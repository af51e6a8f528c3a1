// Command vulfi runs a fault-injection campaign for one benchmark:
//
//	vulfi -benchmark Blackscholes -isa AVX -category control \
//	      -experiments 100 -campaigns 20 -detectors
//
// It prints per-campaign and aggregate SDC/Benign/Crash rates with the
// paper's 95%-confidence margin of error, and a sample of injection
// records in verbose mode.
//
// With -remote ADDR the study is not run in-process: the same flags are
// submitted to a vulfid daemon as a job, live progress is tailed over
// the job's SSE stream, and the daemon's final result is printed.
// Ctrl-C cancels the job on the daemon before exiting.
//
// With -atlas FILE the study additionally attributes every outcome to
// its static fault site and renders a self-contained HTML heatmap to
// FILE; -history FILE appends the finished study to a JSONL history
// store that the subcommands read:
//
//	vulfi history list              # recorded studies, newest last
//	vulfi history show N            # full JSON of entry N (1-based)
//	vulfi diff BASELINE [CANDIDATE] # regression gate between two entries
//
// `vulfi diff` exits non-zero when the candidate significantly regresses
// the baseline (SDC or crash rate up, detection rate down), so it can
// gate CI.
//
// With -timeline FILE the study records hierarchical wall-time spans
// (study → experiment → golden/faulty/compare) and writes them to FILE
// as Chrome trace-event JSON — load it in Perfetto or chrome://tracing
// for one lane per worker — plus the raw span list to FILE.jsonl.
// Combined with -remote, the client generates a W3C traceparent, the
// daemon's spans nest under the client's root span, and FILE holds the
// single merged trace. Both -timeline and -profile also combine with
// -shards: the coordinator harvests each shard's span tree and profile
// from its workers and serves the fleet-wide merge, so the written
// trace shows one lane group per worker under the coordinator's
// dispatch lane, and the profile's counts equal a single-node run's.
// So does -trace: the merged study's propagation summary is folded from
// the harvested explanations and equals a single-node run's.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"vulfi/internal/atlas"
	"vulfi/internal/benchmarks"
	"vulfi/internal/campaign"
	"vulfi/internal/cliutil"
	"vulfi/internal/report"
	"vulfi/internal/server"
	"vulfi/internal/telemetry"
)

func main() {
	// Subcommands operate on the history store and take their own flags;
	// everything else is the classic flag-driven study runner.
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "history":
			os.Exit(historyCmd(os.Args[2:], os.Stdout, os.Stderr))
		case "diff":
			os.Exit(diffCmd(os.Args[2:], os.Stdout, os.Stderr))
		}
	}

	fs := flag.CommandLine
	var (
		benchName            = cliutil.Benchmark(fs, "VectorCopy")
		isaName              = cliutil.ISA(fs, "AVX")
		catName              = cliutil.Category(fs)
		exps                 = cliutil.Experiments(fs)
		camps                = cliutil.Campaigns(fs)
		seed                 = cliutil.Seed(fs, 1)
		workers              = cliutil.Workers(fs)
		inputs               = cliutil.Inputs(fs)
		backend              = cliutil.Backend(fs)
		timelineOut          = cliutil.Timeline(fs)
		detectors, broadcast = cliutil.Detectors(fs)
		large                = cliutil.Large(fs)
		tel                  = cliutil.TelemetryFlags(fs)

		list      = flag.Bool("list", false, "list benchmarks and exit")
		verbose   = flag.Bool("v", false, "print per-campaign rows and sample injections")
		jsonOut   = flag.Bool("json", false, "emit the study as JSON instead of text")
		csvOut    = flag.Bool("csv", false, "emit the study as a CSV row (with header)")
		remote    = flag.String("remote", "", "submit to a vulfid daemon at this address instead of running locally")
		shards    = cliutil.Shards(fs)
		apiKey    = cliutil.APIKey(fs)
		traceRuns = flag.Bool("trace", false, "record golden/faulty divergence traces and print the propagation profile")
		explain   = flag.Int("explain", -1, "run only the experiment at this index of the seed schedule, with tracing, and print its fault→divergence→outcome explanation")
		atlasOut  = flag.String("atlas", "", "attribute outcomes to static fault sites and write the HTML heatmap to this file")
		profOut   = flag.String("profile", "", "profile interpreter execution: write folded stacks to this file, a flame graph to FILE.html, and print the hot-opcode table")
		histOut   = flag.String("history", "", "append the finished study to this JSONL history store (see 'vulfi history', 'vulfi diff')")
		version   = cliutil.Version(fs)
	)
	flag.Parse()

	if *version {
		cliutil.PrintVersion(os.Stdout, "vulfi")
		return
	}
	if *list {
		for _, b := range benchmarks.All() {
			fmt.Printf("%-18s %-7s entry=%s  %s\n", b.Name, b.Suite, b.Entry, b.InputDesc)
		}
		return
	}

	// Flag combinations that cannot work together fail fast, with one
	// shared message shape (cliutil) instead of per-combination prose.
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *remote != "" {
		switch {
		case *explain >= 0:
			fail(cliutil.MutuallyExclusive("explain", "remote",
				"-explain runs locally; against a daemon use GET /v1/jobs/{id}/explain?index=N"))
		case *atlasOut != "" || *histOut != "":
			fail(cliutil.MutuallyExclusive("atlas/-history", "remote",
				"these run locally; a vulfid daemon records its own history (GET /v1/history)"))
		case *tel.Events != "" || *tel.HTTP != "":
			fail(cliutil.MutuallyExclusive("events/-http", "remote",
				"the study runs on the daemon: -timeline FILE writes its spans to FILE.jsonl in the -events format (fleet-merged for sharded jobs), and the daemon serves its own /metrics"))
		case *csvOut:
			fail(cliutil.MutuallyExclusive("csv", "remote",
				"a daemon's result prints as text or, with -json, as the study JSON; run locally for the CSV row"))
		}
	}
	if *shards > 0 && *remote == "" {
		fail(cliutil.Requires("shards", "remote",
			"sharding is scheduled by a vulfid coordinator"))
	}
	remoteAPIKey = *apiKey

	scaleName := "default"
	if *large {
		scaleName = "large"
	}
	spec := server.Spec{
		Benchmark: *benchName, ISA: strings.ToUpper(*isaName),
		Category: *catName, Scale: scaleName,
		Experiments: *exps, Campaigns: *camps, Seed: *seed, Workers: *workers,
		Inputs:    *inputs,
		Backend:   *backend,
		Detectors: *detectors, BroadcastDetector: *broadcast,
		Trace:    *traceRuns || *explain >= 0,
		Atlas:    *atlasOut != "" || *histOut != "",
		Profile:  *profOut != "",
		Timeline: *timelineOut != "",
		Shards:   *shards,
	}
	cfg, err := spec.Config()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	// Ctrl-C cancels the study cooperatively (and, in remote mode, asks
	// the daemon to cancel the job).
	ctx, stop := signal.NotifyContext(context.Background(),
		os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *explain >= 0 {
		r, err := campaign.ExplainExperiment(ctx, cfg, *explain)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *jsonOut {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(map[string]any{
				"index": *explain, "seed": cfg.ExperimentSeed(*explain),
				"outcome": r.Outcome.String(), "detected": r.Detected,
				"input": r.InputLabel, "explanation": r.Explanation,
			}); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			return
		}
		fmt.Printf("VULFI explain: %s  experiment %d (seed %d)\n",
			cfg, *explain, cfg.ExperimentSeed(*explain))
		report.WriteExplanation(os.Stdout, r)
		return
	}

	if *remote != "" {
		if err := runRemote(ctx, *remote, spec, *jsonOut, *tel.Progress, *timelineOut, *profOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	events, telStop, err := tel.Start(os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer telStop()
	if events != nil {
		cfg.Timeline = true
	}
	if *tel.Progress {
		pr := telemetry.NewProgress(os.Stderr, cfg.String(), *camps**exps)
		cfg.OnResult = func(_ int, _ int64, r *campaign.ExperimentResult) {
			pr.Observe(r.Outcome.String(), r.Detected)
		}
		defer pr.Finish()
	}
	if !*jsonOut && !*csvOut {
		fmt.Printf("VULFI study: %s  (%d campaigns x %d experiments)\n",
			cfg, *camps, *exps)
	}

	sr, err := campaign.RunStudy(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if events != nil {
		if err := sr.Timeline.WriteJSONL(events); err != nil {
			fmt.Fprintf(os.Stderr, "events: %v\n", err)
			os.Exit(1)
		}
	}

	if *atlasOut != "" {
		if err := writeHeatmap(*atlasOut, sr); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if !*jsonOut && !*csvOut {
			fmt.Printf("atlas heatmap written to %s\n", *atlasOut)
		}
	}
	if *histOut != "" {
		if err := atlas.AppendEntry(*histOut, atlas.NewEntry(sr, time.Now())); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *profOut != "" {
		if err := writeProfileFiles(*profOut, cfg.String(), sr); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if !*jsonOut && !*csvOut {
			fmt.Printf("folded stacks written to %s, flame graph to %s.html\n",
				*profOut, *profOut)
		}
	}
	if *timelineOut != "" {
		if err := writeTimelineFiles(*timelineOut, sr.Timeline); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if !*jsonOut && !*csvOut {
			fmt.Printf("trace events written to %s (load in Perfetto), spans to %s.jsonl\n",
				*timelineOut, *timelineOut)
			report.WriteTimeline(os.Stdout, sr.Timeline)
		}
	}

	switch {
	case *jsonOut:
		if err := sr.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	case *csvOut:
		if err := writeCSV(os.Stdout, sr); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	report.WriteStudy(os.Stdout, sr, *verbose)
}

// writeCSV writes the study as a CSV header and one row.
func writeCSV(w io.Writer, sr *campaign.StudyResult) error {
	if err := campaign.WriteCSVHeader(w); err != nil {
		return err
	}
	return sr.WriteCSVRow(w)
}
