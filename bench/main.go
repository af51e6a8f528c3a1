// Command vulfi-bench is the VULFI benchmark: four fixed workloads
// driven through the layers' public APIs, every result checked against a
// reference backend, every end-to-end metric printed by name and unit.
//
//	bash bench/run.sh                                  # every workload, once
//	bash bench/run.sh --workload fig11-sweep --seed 7  # one workload
//	bash bench/run.sh --trace 1                        # per-layer metrics
//	bash bench/run.sh compare PARENT_DIR CHANGE_DIR    # verdicts
//
// See README.md for the workloads, metrics and bounds.
package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"

	"vulfi/internal/campaign"
	"vulfi/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("vulfi-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run one workload in this process (default: every workload, one child process each)")
	seed := fs.Int64("seed", defaultSeed, "workload seed: generates every cell's study seed")
	seconds := fs.Float64("seconds", 25, "measurement time per workload run")
	trace := fs.Int("trace", 0, "1 reruns the workloads traced and reports the per-layer metrics")
	runs := fs.Int("runs", 1, "repetitions of the workload set, alternating their order")
	outDir := fs.String("outdir", "bench-out", "directory for result and trace files")
	out := fs.String("out", "", "result file of a -workload run (default OUTDIR/WORKLOAD[.traced].json)")
	update := fs.Bool("update-reference", false, "regenerate "+referencePath+" on each workload's other backend")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *runs < 1 || *seconds <= 0 {
		fmt.Fprintln(stderr, "usage: vulfi-bench [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-runs N] | compare PARENT_DIR CHANGE_DIR")
		return 2
	}
	// Every run uses every CPU, whatever GOMAXPROCS the environment sets.
	runtime.GOMAXPROCS(runtime.NumCPU())
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *update {
		if err := updateReference(ctx, stderr); err != nil {
			fmt.Fprintln(stderr, "update-reference:", err)
			return 1
		}
		return 0
	}
	if *name == "" {
		return driveAll(ctx, args, *runs, *trace == 1, *outDir, stdout, stderr)
	}
	w := workloadByName(*name)
	if w == nil {
		fmt.Fprintf(stderr, "unknown workload %q (%s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	ref, err := loadReference()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	o := runOpts{
		seed: *seed, seconds: *seconds, trace: *trace == 1, size: 1,
		ref: ref, outDir: *outDir, log: stderr,
	}
	path := *out
	if path == "" {
		path = filepath.Join(*outDir, resultName(w.name, o.trace, -1))
	}
	return runOne(ctx, w, o, path, stdout, stderr)
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// resultName names a result file; k >= 0 numbers one of several runs.
func resultName(workload string, traced bool, k int) string {
	name := workload
	if traced {
		name += ".traced"
	}
	if k >= 0 {
		name += fmt.Sprintf(".run%d", k)
	}
	return name + ".json"
}

// runWorkload runs one workload in this process.
func runWorkload(ctx context.Context, w *workload, o runOpts) (*result, error) {
	if w.service {
		return runService(ctx, w, o)
	}
	return runStudyWorkload(ctx, w, o)
}

// runOne runs one workload, writes its result file and summary, and
// prints the result line last. It exits non-zero when any operation
// failed or a metric could not be measured.
func runOne(ctx context.Context, w *workload, o runOpts, path string, stdout, stderr io.Writer) int {
	res, err := runWorkload(ctx, w, o)
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", w.name, err)
		return 1
	}
	res.requireMetrics()
	if err := res.writeFile(path); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	res.writeSummary(stderr)
	if err := res.writeLine(stdout); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if !res.correct() {
		return 1
	}
	return 0
}

// driveAll runs every workload runs times, each in a child process of
// its own so heap, GC state and the RSS high-water mark start fresh;
// the order alternates between repetitions. args are passed through.
func driveAll(ctx context.Context, args []string, runs int, traced bool, outDir string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	code := 0
	for k := 0; k < runs; k++ {
		order := append([]*workload(nil), workloads...)
		if k%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, w := range order {
			idx := k
			if runs == 1 {
				idx = -1
			}
			childArgs := append(append([]string(nil), args...),
				"-workload", w.name, "-out", filepath.Join(outDir, resultName(w.name, traced, idx)))
			cmd := exec.CommandContext(ctx, self, childArgs...)
			var buf bytes.Buffer
			cmd.Stdout, cmd.Stderr = &buf, stderr
			err := cmd.Run()
			fmt.Fprintf(stdout, "%s %s", w.name, lastLine(buf.Bytes()))
			var ee *exec.ExitError
			switch {
			case errors.As(err, &ee):
				code = 1
			case err != nil:
				fmt.Fprintln(stderr, err)
				return 1
			}
			if ctx.Err() != nil {
				return 1
			}
		}
	}
	return code
}

// lastLine returns the last non-empty line of b, newline-terminated.
func lastLine(b []byte) string {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	return last + "\n"
}

// updateReference recomputes the reference digests for the default
// seed on each workload's other backend.
func updateReference(ctx context.Context, log io.Writer) error {
	if _, err := os.Stat(filepath.Dir(referencePath)); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	ref := &reference{Seed: defaultSeed, Digests: map[string]string{}}
	put := func(key string, cfg campaign.Config, other string) error {
		cfg.Backend = other
		cfg.Metrics = telemetry.NewRegistry()
		sr, err := campaign.RunStudy(ctx, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", key, err)
		}
		d, err := studyDigest(sr)
		if err != nil {
			return err
		}
		ref.Digests[key] = d
		return nil
	}
	strat := newStratifier()
	for _, w := range workloads {
		rounds := refRounds
		if w.service {
			rounds = 1
		}
		for r := 0; r < rounds; r++ {
			cfgs, err := w.plan(strat, defaultSeed, r, 1)
			if err != nil {
				return err
			}
			for i, cfg := range cfgs {
				if err := put(refKey(w.name, r, w.cells[i].name), cfg, w.other); err != nil {
					return err
				}
			}
			fmt.Fprintf(log, "%s round %d: %d digests\n", w.name, r, len(cfgs))
		}
		if w.service {
			for i, c := range shardedCells {
				cfg := c.cfg
				cfg.Seed = mix(defaultSeed, -1, int64(i))
				if err := put(refKey(w.name, 0, c.name), cfg, w.other); err != nil {
					return err
				}
			}
		}
	}
	return ref.write(referencePath)
}
