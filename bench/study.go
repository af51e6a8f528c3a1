package main

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"time"

	"vulfi/internal/api"
	"vulfi/internal/campaign"
	"vulfi/internal/obs"
	"vulfi/internal/telemetry"
)

// runOpts configure one run of one workload.
type runOpts struct {
	seed    int64
	seconds float64
	trace   bool
	// size scales every cell's experiment count; below 1 it also runs a
	// single round (the quick runs the tests use).
	size   float64
	ref    *reference
	outDir string
	log    io.Writer
}

func (o runOpts) rounds(w *workload) (minR, maxR int) {
	if o.size < 1 {
		return 1, 1
	}
	if o.trace {
		return 2, w.maxRounds
	}
	return w.minRounds, w.maxRounds
}

// countRounds is how many leading rounds the exact-count metrics cover:
// every run executes them, so two runs of one seed agree exactly.
func countRounds(minR int) int { return min(2, minR) }

// cellRun is one study of one cell in one round.
type cellRun struct {
	round, idx int
	cfg        campaign.Config
	timeline   bool
	start      time.Time
	prepare    time.Duration
	wall       time.Duration
	results    []*campaign.ExperimentResult
	lat        []float64
	digest     string
	tl         *obs.Timeline
	err        error
}

// runCell prepares and runs one study, stamping every experiment from
// the public OnStart/OnResult hooks.
func runCell(ctx context.Context, cfg campaign.Config, round, idx int, timeline bool) *cellRun {
	total := cfg.Experiments * cfg.Campaigns
	cr := &cellRun{
		round: round, idx: idx, cfg: cfg, timeline: timeline,
		results: make([]*campaign.ExperimentResult, total),
		lat:     make([]float64, total),
	}
	starts := make([]time.Time, total)
	cfg.Timeline = timeline
	cfg.Metrics = telemetry.NewRegistry()
	cfg.OnStart = func(i, _ int) { starts[i] = time.Now() }
	cfg.OnResult = func(i int, _ int64, r *campaign.ExperimentResult) {
		cr.lat[i] = ms(time.Since(starts[i]))
		cr.results[i] = r
	}
	cr.start = time.Now()
	p, err := campaign.Prepare(cfg)
	cr.prepare = time.Since(cr.start)
	if err != nil {
		cr.err = err
		return cr
	}
	runStart := time.Now()
	sr, err := p.RunStudy(ctx)
	cr.wall = time.Since(runStart)
	if err != nil {
		cr.err = err
		return cr
	}
	cr.tl = sr.Timeline
	cr.digest, cr.err = studyDigest(sr)
	return cr
}

// roundStat is the timing of one measured round.
type roundStat struct {
	prepare, wall, dur time.Duration
	exps               int
}

// runStudyWorkload runs a study workload: rounds of its cells until the
// measurement time is spent, then the correctness checks, then the
// metrics of the mode.
func runStudyWorkload(ctx context.Context, w *workload, o runOpts) (*result, error) {
	res := newResult(w.name, o.seed, o.trace)
	strat := newStratifier()
	minR, maxR := o.rounds(w)
	var tb *traceBuilder
	if o.trace {
		tb = newTraceBuilder(w.name, time.Now())
		cfgs, err := w.plan(strat, o.seed, 0, o.size)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := probeLayers(res, cfgs); err != nil {
			return nil, err
		}
		tb.span("layer-probes", "", start, time.Since(start), nil)
	}

	var runs []*cellRun
	var rounds []roundStat
	var measured time.Duration
	var clock hostClock
	steal := startSteal()
	var gc0, gc1 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	for r := 0; r < maxR; r++ {
		if r >= minR && measured.Seconds()+measured.Seconds()/float64(r) > o.seconds {
			break
		}
		cfgs, err := w.plan(strat, o.seed, r, o.size)
		if err != nil {
			return nil, err
		}
		rs := roundStat{}
		roundStart := time.Now()
		for i, cfg := range cfgs {
			// A traced round runs each cell twice, untraced and traced, in
			// alternating order, so obs.overhead_pct compares like with like.
			modes := []bool{o.trace && r%2 == 1}
			if o.trace {
				modes = append(modes, !modes[0])
			}
			for _, tlOn := range modes {
				clock.sample()
				cr := runCell(ctx, cfg, r, i, tlOn)
				runs = append(runs, cr)
				rs.prepare += cr.prepare
				rs.wall += cr.wall
				rs.exps += len(cr.results)
				id := tb.span("study", "", cr.start, cr.prepare+cr.wall, map[string]string{
					"cell": w.cells[i].name, "round": fmt.Sprint(r), "timeline": fmt.Sprint(tlOn),
				})
				if cr.tl != nil {
					tb.graft(cr.tl, id, "study")
				}
			}
		}
		rs.dur = time.Since(roundStart)
		measured += rs.dur
		rounds = append(rounds, rs)
		fmt.Fprintf(o.log, "%s round %d: %d experiments in %.2fs\n", w.name, r, rs.exps, rs.dur.Seconds())
	}
	runtime.ReadMemStats(&gc1)
	res.Rounds, res.Measured = len(rounds), measured.Seconds()
	res.set("host.steal_pct", steal.pct(), len(rounds))
	rss := peakRSSMB()

	checkStudyRuns(ctx, w, o, res, runs)
	res.set("host.calib_ms", clock.ms(), clock.n)

	if !o.trace {
		var rates, setups, lats []float64
		for _, rs := range rounds {
			rates = append(rates, float64(rs.exps)/rs.wall.Seconds())
			setups = append(setups, rs.prepare.Seconds())
		}
		for _, cr := range runs {
			lats = append(lats, cr.lat...)
		}
		setEndToEnd(res, w, &clock, rates, setups, lats, rss)
		return res, nil
	}

	var all, counted spanStats
	var on, off time.Duration
	var captured []*campaign.ExperimentResult
	var sites, hangs float64
	var countExps, exps int
	for _, cr := range runs {
		exps += len(cr.results)
		if !cr.timeline {
			off += cr.wall
			continue
		}
		on += cr.wall
		if cr.tl != nil {
			all.add(cr.tl)
			if cr.round < countRounds(minR) {
				counted.add(cr.tl)
			}
		}
		for _, e := range cr.results {
			if e == nil {
				continue
			}
			captured = append(captured, e)
			if cr.round < countRounds(minR) {
				countExps++
				sites += float64(e.DynSites)
				if e.Hang {
					hangs++
				}
			}
		}
	}
	all.timeMetrics(res)
	counted.countMetrics(res)
	if countExps > 0 {
		res.set("core.dyn_sites_per_exp", sites/float64(countExps), countExps)
		res.set("campaign.hang_frac", hangs/float64(countExps), countExps)
	}
	if off > 0 {
		res.set("obs.overhead_pct", 100*(on.Seconds()/off.Seconds()-1), len(runs))
	}
	if exps > 0 {
		res.set("runtime.gc_per_kexp", float64(gcCycles(&gc1)-gcCycles(&gc0))/(float64(exps)/1000), exps)
	}
	c := w.cells[0].cfg
	spec := api.Spec{Benchmark: c.Benchmark.Name, ISA: c.ISA.Name, Category: c.Category.String()}
	if err := probeJournal(res, o.outDir, spec, captured); err != nil {
		return nil, err
	}
	if err := tb.write(filepath.Join(o.outDir, "trace-"+w.name+".json"), time.Now()); err != nil {
		return nil, err
	}
	return res, nil
}

// setEndToEnd sets an untraced run's end-to-end metrics from its
// per-round rates and set-up times and its unit-of-work latencies, the
// timings and rates rescaled to the reference host (hostClock).
func setEndToEnd(res *result, w *workload, clock *hostClock, rates, setups, lats []float64, rssMB float64) {
	k := clock.slowdown()
	res.set("exp_per_s", median(rates)*k, len(rates))
	res.set("setup_s", median(setups)/k, len(setups))
	res.set("peak_rss_mb", rssMB, 1)
	for _, q := range []struct {
		name string
		p    float64
	}{{"latency_p50_ms", 50}, {"latency_tail_ms", w.tailP}} {
		v, err := percentile(lats, q.p)
		if err != nil {
			res.fail(0, "%s: %v", q.name, err)
			continue
		}
		res.set(q.name, v/k, len(lats))
	}
}

// checkStudyRuns checks every cell run: it must have finished, its
// digest must match the reference where the reference covers it and
// match its traced twin, and every sampled experiment must agree with
// the other backend. A failed check fails all of the cell's experiments.
func checkStudyRuns(ctx context.Context, w *workload, o runOpts, res *result, runs []*cellRun) {
	twin := map[[2]int]string{}
	for _, cr := range runs {
		total := len(cr.results)
		res.Attempted += total
		name := w.cells[cr.idx].name
		if cr.err != nil {
			res.fail(total, "%s round %d: %v", name, cr.round, cr.err)
			continue
		}
		key := refKey(w.name, cr.round, name)
		if want, ok := o.ref.digest(o.seed, key); ok && want != cr.digest {
			res.fail(total, "%s: digest %.12s, reference %.12s", key, cr.digest, want)
			continue
		}
		id := [2]int{cr.round, cr.idx}
		if d, ok := twin[id]; ok {
			if d != cr.digest {
				res.fail(total, "%s: timeline changed the study digest", key)
			}
			continue
		}
		twin[id] = cr.digest
		got := map[int]*campaign.ExperimentResult{}
		for _, i := range sampled(cr.round, total) {
			got[i] = cr.results[i]
		}
		bad, err := crossCheck(ctx, cr.cfg, w.other, got)
		switch {
		case err != nil:
			res.fail(total, "%s: cross-backend check: %v", key, err)
		case len(bad) > 0:
			res.fail(total, "%s: experiments %v differ on the %s backend", key, bad, w.other)
		}
	}
}
