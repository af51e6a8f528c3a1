package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"vulfi/internal/campaign"
	"vulfi/internal/telemetry"
)

// referenceJSON holds per-cell digests of the default seed's studies,
// computed on each workload's other backend (-update-reference).
//
//go:embed testdata/reference.json
var referenceJSON []byte

// referencePath is where -update-reference writes, relative to the
// repository root.
const referencePath = "bench/testdata/reference.json"

// refRounds is how many rounds of each study workload the reference
// covers; later rounds rely on the sampled cross-backend check.
const refRounds = 4

// sampleStride is the cross-backend check's sampling stride along each
// cell's experiment sequence.
const sampleStride = 37

type reference struct {
	Seed    int64             `json:"seed"`
	Digests map[string]string `json:"digests"`
}

func loadReference() (*reference, error) {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	return &ref, nil
}

// digest returns the reference digest for key when the run's seed is
// the one the reference covers.
func (ref *reference) digest(seed int64, key string) (string, bool) {
	if ref == nil || seed != ref.Seed {
		return "", false
	}
	d, ok := ref.Digests[key]
	return d, ok
}

// write stores the reference as indented JSON (map keys sorted).
func (ref *reference) write(path string) error {
	b, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// refKey names one cell of one round in the reference.
func refKey(workload string, round int, cell string) string {
	return fmt.Sprintf("%s/r%d/%s", workload, round, cell)
}

// volatileFields vary between runs of one study — timing, the binary's
// revision, and the optional observability payloads — and are left out
// of a digest.
var volatileFields = []string{
	"build", "timeline", "hot_profile",
	"wall_total_ns", "wall_min_ns", "wall_mean_ns", "wall_max_ns",
}

// digestJSON hashes a study's JSON export without its volatile fields.
func digestJSON(raw []byte) (string, error) {
	var m map[string]any
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	if err := dec.Decode(&m); err != nil {
		return "", fmt.Errorf("study JSON: %w", err)
	}
	for _, k := range volatileFields {
		delete(m, k)
	}
	b, err := json.Marshal(m)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

func studyDigest(sr *campaign.StudyResult) (string, error) {
	var buf bytes.Buffer
	if err := sr.WriteJSON(&buf); err != nil {
		return "", err
	}
	return digestJSON(buf.Bytes())
}

// sampled returns the indices of a cell's run-th study that the
// cross-backend check re-runs: every sampleStride-th experiment along
// the cell's experiment sequence across its studies.
func sampled(run, total int) []int {
	var out []int
	for i := 0; i < total; i++ {
		if (run*total+i)%sampleStride == 0 {
			out = append(out, i)
		}
	}
	return out
}

// sameExperiment compares everything an experiment's outcome rests on.
func sameExperiment(a, b *campaign.ExperimentResult) bool {
	return a.Outcome == b.Outcome && a.Detected == b.Detected && a.Hang == b.Hang &&
		a.DynSites == b.DynSites && a.GoldenDynInstrs == b.GoldenDynInstrs &&
		a.Record == b.Record
}

// crossCheck re-runs the given experiments of cfg on the other backend
// and returns the indices whose results differ.
func crossCheck(ctx context.Context, cfg campaign.Config, other string, got map[int]*campaign.ExperimentResult) ([]int, error) {
	if len(got) == 0 {
		return nil, nil
	}
	cfg.Backend = other
	cfg.Timeline, cfg.Profile, cfg.Atlas = false, false, false
	cfg.OnStart, cfg.OnResult, cfg.Completed = nil, nil, nil
	cfg.Metrics = telemetry.NewRegistry()
	p, err := campaign.Prepare(cfg)
	if err != nil {
		return nil, err
	}
	var bad []int
	for i, want := range got {
		r, err := p.RunExperimentAt(ctx, i)
		if err != nil {
			return nil, fmt.Errorf("experiment %d: %w", i, err)
		}
		if want == nil || !sameExperiment(r, want) {
			bad = append(bad, i)
		}
	}
	sort.Ints(bad)
	return bad, nil
}
