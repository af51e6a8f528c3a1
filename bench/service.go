package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"vulfi/internal/api"
	"vulfi/internal/benchmarks"
	"vulfi/internal/campaign"
	"vulfi/internal/client"
	"vulfi/internal/isa"
	"vulfi/internal/obs"
	"vulfi/internal/passes"
	"vulfi/internal/server"
	"vulfi/internal/telemetry"
)

// harvestEvery is the coordinator's shard poll interval. At the daemon's
// 2 s default a sharded job's latency would be a multiple of the poll,
// hiding every change to the work underneath it.
const harvestEvery = 100 * time.Millisecond

// joinEvery is how often the bench re-registers the workers, as
// `vulfid -join` does.
const joinEvery = 5 * time.Second

// profileEvery picks the cells whose timeline-pass jobs also run the
// execution profiler: it timestamps every interpreted instruction and
// makes a job several times slower, so a few jobs carry it. Cells come
// six per benchmark, so this profiles one cell of every benchmark. The
// choice is by cell, not by the seed's job order: the profiled jobs are
// the slowest of the mix and set its tail percentile.
const profileEvery = 6

// restartsPerRound is how many times phase C restarts the coordinator.
const restartsPerRound = 3

// shardedPasses is how many times phase B runs each sharded cell in a
// round. A sharded job's latency moves by a harvest interval or two from
// job to job, so the throughput rests on several.
const shardedPasses = 2

// shardedCells are phase B's coordinator-sharded jobs.
var shardedCells = []cell{
	{"sharded/" + cellName(benchmarks.Raytracing, isa.AVX, passes.Control), campaign.Config{
		Benchmark: benchmarks.Raytracing, ISA: isa.AVX, Category: passes.Control,
		Scale: benchmarks.ScaleTest, Experiments: 1000, Campaigns: 4, Workers: 1, Backend: "vm",
	}},
	{"sharded/" + cellName(benchmarks.ConjugateGradient, isa.SSE, passes.Control), campaign.Config{
		Benchmark: benchmarks.ConjugateGradient, ISA: isa.SSE, Category: passes.Control,
		Scale: benchmarks.ScaleTest, Experiments: 1000, Campaigns: 4, Workers: 1, Backend: "vm",
	}},
}

// specOf renders a study configuration as the job spec the client
// submits.
func specOf(cfg campaign.Config) api.Spec {
	return api.Spec{
		Benchmark: cfg.Benchmark.Name, ISA: cfg.ISA.Name, Category: cfg.Category.String(),
		Scale: cfg.Scale.String(), Experiments: cfg.Experiments, Campaigns: cfg.Campaigns,
		Seed: cfg.Seed, Workers: cfg.Workers, Backend: cfg.Backend, Atlas: cfg.Atlas,
	}
}

// node is one in-process vulfid: a server plus its HTTP listener.
type node struct {
	srv  *server.Server
	hs   *http.Server
	addr string
}

func startNode(opts server.Options) (*node, error) {
	opts.Logf = func(string, ...any) {}
	s, err := server.New(opts)
	if err != nil {
		return nil, err
	}
	hs, addr, err := s.Serve("127.0.0.1:0")
	if err != nil {
		_ = s.Drain(context.Background())
		return nil, err
	}
	return &node{srv: s, hs: hs, addr: addr}, nil
}

// stop closes the listener and drains the server.
func (n *node) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := n.hs.Shutdown(ctx)
	if derr := n.srv.Drain(ctx); err == nil {
		err = derr
	}
	return err
}

// joiner keeps the workers registered with a coordinator.
type joiner struct {
	cancel context.CancelFunc
	done   chan struct{}
}

func startJoin(cl *client.Client, workers []*node) (*joiner, error) {
	register := func(ctx context.Context) error {
		for i, w := range workers {
			reg := api.WorkerRegistration{URL: "http://" + w.addr, Name: fmt.Sprintf("worker-%d", i)}
			if _, err := cl.RegisterWorker(ctx, reg); err != nil {
				return err
			}
		}
		return nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	if err := register(ctx); err != nil {
		cancel()
		return nil, fmt.Errorf("register workers: %w", err)
	}
	j := &joiner{cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(j.done)
		t := time.NewTicker(joinEvery)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				_ = register(ctx)
			}
		}
	}()
	return j, nil
}

func (j *joiner) stop() {
	j.cancel()
	<-j.done
}

// jobRun is one job as the client saw it.
type jobRun struct {
	round, cell int
	// run numbers the cell's jobs across passes and rounds.
	run      int
	name     string
	sharded  bool
	timeline bool
	profile  bool
	cfg      campaign.Config
	start    time.Time
	submit   time.Duration
	lat      time.Duration
	// tailReturn is when Tail returned the terminal status.
	tailReturn        time.Time
	created           time.Time
	started, finished *time.Time
	digest            string
	resultKB          float64
	// studyWall is the study's own wall time (wall_total_ns).
	studyWall time.Duration
	// sample holds the triples the cross-backend check re-runs; all
	// holds every triple of the count rounds of a traced run. A job
	// keeps nothing larger, so a run's memory does not grow with its
	// round count.
	sample map[int]*campaign.ExperimentResult
	all    []api.ExperimentRecord
	tl     *obs.Timeline
	// harvestLag is the fleet view's harvest lag when a sharded job ends.
	harvestLag time.Duration
	err        error
}

// serviceRun holds one run of vulfid-service.
type serviceRun struct {
	w       *workload
	o       runOpts
	tmp     string
	cells   []campaign.Config
	sharded []campaign.Config
	order   []int
	jobs    []*jobRun
	tb      *traceBuilder
	clock   hostClock
	// countR is how many leading rounds feed the exact-count metrics.
	countR int
	// restartErrs records restarts that lost jobs; each fails the
	// round's jobs.
	restartErrs []string
}

// runService runs vulfid-service: an in-process coordinator and two
// workers on loopback, driven by one closed-loop client. A round is
// phase A (every cell as a small job, once plain and once with a
// timeline), phase B (each sharded cell twice) and phase C (drain the
// coordinator and restart it on its journals).
func runService(ctx context.Context, w *workload, o runOpts) (*result, error) {
	res := newResult(w.name, o.seed, o.trace)
	sv := &serviceRun{w: w, o: o, tmp: filepath.Join(o.outDir, fmt.Sprintf("tmp-%d", os.Getpid()))}
	defer os.RemoveAll(sv.tmp)
	var err error
	if sv.cells, err = w.plan(newStratifier(), o.seed, 0, o.size); err != nil {
		return nil, err
	}
	for i, c := range shardedCells {
		cfg := scaled(c.cfg, o.size)
		cfg.Seed = mix(o.seed, -1, int64(i))
		sv.sharded = append(sv.sharded, cfg)
	}
	sv.order = rand.New(rand.NewSource(mix(o.seed, -2))).Perm(len(sv.cells))
	if o.trace {
		sv.tb = newTraceBuilder(w.name, time.Now())
		start := time.Now()
		if err := probeLayers(res, sv.cells); err != nil {
			return nil, err
		}
		sv.tb.span("layer-probes", "", start, time.Since(start), nil)
	}

	minR, maxR := o.rounds(w)
	sv.countR = countRounds(minR)
	var restarts, rates, shardRates []float64
	var measured time.Duration
	steal := startSteal()
	var gc0, gc1 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	for r := 0; r < maxR; r++ {
		if r >= minR && measured.Seconds()+measured.Seconds()/float64(r) > o.seconds {
			break
		}
		start := time.Now()
		rt, err := sv.round(ctx, r)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", r, err)
		}
		d := time.Since(start)
		measured += d
		for _, rd := range rt.restarts {
			restarts = append(restarts, rd.Seconds())
		}
		rates = append(rates, rt.all.rate())
		shardRates = append(shardRates, rt.sharded.rate())
		fmt.Fprintf(o.log, "%s round %d: %d jobs in %.2fs\n", w.name, r, sv.jobsPerRound(), d.Seconds())
	}
	runtime.ReadMemStats(&gc1)
	res.Rounds, res.Measured = len(rates), measured.Seconds()
	res.set("host.steal_pct", steal.pct(), len(rates))
	rss := peakRSSMB()

	sv.check(ctx, res)
	res.set("host.calib_ms", sv.clock.ms(), sv.clock.n)
	res.set("coordinator.sharded_exp_per_s", median(shardRates), len(shardRates))

	if !o.trace {
		var lats []float64
		for _, j := range sv.jobs {
			if !j.sharded {
				lats = append(lats, ms(j.lat))
			}
		}
		setEndToEnd(res, w, &sv.clock, rates, restarts, lats, rss)
		return res, nil
	}
	if err := sv.layerMetrics(res, gcCycles(&gc1)-gcCycles(&gc0)); err != nil {
		return nil, err
	}
	if err := sv.tb.write(filepath.Join(o.outDir, "trace-"+w.name+".json"), time.Now()); err != nil {
		return nil, err
	}
	return res, nil
}

func (sv *serviceRun) jobsPerRound() int { return 2*len(sv.cells) + shardedPasses*len(sv.sharded) }

// throughput sums jobs' experiments and Submit-to-Tail latencies.
type throughput struct {
	exps int
	lat  time.Duration
}

func (t *throughput) add(j *jobRun) {
	t.exps += j.cfg.Experiments * j.cfg.Campaigns
	t.lat += j.lat
}

func (t throughput) rate() float64 {
	if t.lat <= 0 {
		return 0
	}
	return float64(t.exps) / t.lat.Seconds()
}

// roundTimes is what one service round measured: the throughput of all
// its jobs and of the sharded ones alone, and the restart times.
type roundTimes struct {
	all, sharded throughput
	restarts     []time.Duration
}

// round runs phases A, B and C. Every round starts its coordinator and
// workers afresh, on journal directories of its own: a daemon keeps its
// finished jobs in memory, and carrying them from round to round would
// make a run's memory and speed depend on how many rounds it fitted.
func (sv *serviceRun) round(ctx context.Context, r int) (*roundTimes, error) {
	dir := filepath.Join(sv.tmp, fmt.Sprintf("round-%d", r))
	var workers []*node
	defer func() {
		for _, n := range workers {
			_ = n.stop()
		}
	}()
	for i := 0; i < 2; i++ {
		n, err := startNode(server.Options{
			JournalDir: filepath.Join(dir, fmt.Sprintf("worker-%d", i)), HistoryPath: "none",
		})
		if err != nil {
			return nil, err
		}
		workers = append(workers, n)
	}
	opts := server.Options{
		JournalDir:  filepath.Join(dir, "coordinator"),
		Coordinator: true, HarvestEvery: harvestEvery,
	}
	coord, err := startNode(opts)
	if err != nil {
		return nil, err
	}
	cl := client.New(coord.addr)
	join, err := startJoin(cl, workers)
	if err != nil {
		_ = coord.stop()
		return nil, err
	}

	rt := &roundTimes{}
	for pass, timeline := range []bool{false, true} {
		for _, i := range sv.order {
			rt.all.add(sv.runJob(ctx, cl, &jobRun{
				round: r, cell: i, run: 2*r + pass, name: sv.w.cells[i].name,
				timeline: timeline, profile: timeline && i%profileEvery == 0, cfg: sv.cells[i],
			}))
		}
	}
	for pass := 0; pass < shardedPasses; pass++ {
		for k := range sv.sharded {
			j := sv.runJob(ctx, cl, &jobRun{
				round: r, cell: k, run: shardedPasses*r + pass, name: shardedCells[k].name, sharded: true,
				timeline: sv.o.trace, cfg: sv.sharded[k],
			})
			rt.all.add(j)
			rt.sharded.add(j)
		}
	}

	join.stop()
	if err := coord.stop(); err != nil {
		return nil, fmt.Errorf("drain coordinator: %w", err)
	}
	for k := 0; k < restartsPerRound; k++ {
		sv.clock.sample()
		start := time.Now()
		again, err := startNode(opts)
		if err != nil {
			return nil, fmt.Errorf("restart coordinator: %w", err)
		}
		listed, err := client.New(again.addr).Jobs(ctx)
		d := time.Since(start)
		if serr := again.stop(); err == nil {
			err = serr
		}
		if err != nil {
			return nil, fmt.Errorf("restarted coordinator: %w", err)
		}
		rt.restarts = append(rt.restarts, d)
		sv.tb.span("restart", "", start, d, map[string]string{"round": fmt.Sprint(r)})
		done := 0
		for _, st := range listed {
			if st.State == api.StateDone {
				done++
			}
		}
		if want := sv.jobsPerRound(); done != want {
			sv.restartErrs = append(sv.restartErrs,
				fmt.Sprintf("round %d: restarted coordinator lists %d done jobs, want %d", r, done, want))
		}
	}
	return rt, nil
}

// runJob submits one job, follows it to its terminal state, and then —
// outside the timed window — fetches what the checks and metrics need.
func (sv *serviceRun) runJob(ctx context.Context, cl *client.Client, j *jobRun) *jobRun {
	sv.jobs = append(sv.jobs, j)
	spec := specOf(j.cfg)
	spec.Timeline, spec.Profile = j.timeline, j.profile
	if j.sharded {
		spec.Shards = 2
	}
	sv.clock.sample()
	j.start = time.Now()
	st, err := cl.Submit(ctx, spec)
	j.submit = time.Since(j.start)
	if err != nil {
		j.err = err
		return j
	}
	fin, err := cl.Tail(ctx, st.ID, nil)
	j.lat = time.Since(j.start)
	j.tailReturn = time.Now()
	if err != nil {
		j.err = err
		return j
	}
	j.created, j.started, j.finished = fin.Created, fin.Started, fin.Finished
	if j.sharded && sv.o.trace {
		if fl, err := cl.Fleet(ctx); err == nil {
			var lag int64
			for _, w := range fl.Workers {
				lag = max(lag, w.HarvestLagNS)
			}
			j.harvestLag = time.Duration(lag)
		}
	}
	id := sv.tb.span("job", "", j.start, j.lat, map[string]string{"cell": j.name, "id": st.ID})
	if fin.State != api.StateDone {
		j.err = fmt.Errorf("job %s ended %s: %s", st.ID, fin.State, fin.Error)
		return j
	}
	if j.digest, err = digestJSON(fin.Result); err != nil {
		j.err = err
		return j
	}
	j.resultKB = float64(len(fin.Result)) / 1024
	var body struct {
		WallTotalNS int64         `json:"wall_total_ns"`
		Timeline    *obs.Timeline `json:"timeline"`
	}
	if err := json.Unmarshal(fin.Result, &body); err != nil {
		j.err = err
		return j
	}
	j.studyWall = time.Duration(body.WallTotalNS)
	if sv.o.trace && body.Timeline != nil {
		j.tl = body.Timeline
		group := "coordinator"
		if j.sharded {
			group = "fleet"
		}
		sv.tb.graft(j.tl, id, group)
	}
	total := j.cfg.Experiments * j.cfg.Campaigns
	var all []api.ExperimentRecord
	if j.sharded || (sv.o.trace && j.round < sv.countR) {
		if all, err = cl.Experiments(ctx, st.ID, 0, 0); err != nil {
			j.err = err
			return j
		}
		if len(all) != total {
			j.err = fmt.Errorf("job %s serves %d of %d experiments", st.ID, len(all), total)
			return j
		}
	}
	j.sample = map[int]*campaign.ExperimentResult{}
	for _, i := range sampled(j.run, total) {
		if all != nil {
			j.sample[i] = all[i].Result
			continue
		}
		recs, err := cl.Experiments(ctx, st.ID, i, i+1)
		if err != nil || len(recs) != 1 {
			j.err = fmt.Errorf("job %s: fetch experiment %d: %v", st.ID, i, err)
			return j
		}
		j.sample[i] = recs[0].Result
	}
	if j.sharded {
		j.err = mergeCheck(ctx, j, all)
	} else if sv.o.trace {
		j.all = all
	}
	return j
}

// check validates every job: done, digest equal to the reference where
// it covers the job and to the same cell's other rounds, sampled
// experiments equal on the other backend, and a sharded job's result
// equal to a local merge of its own triples.
func (sv *serviceRun) check(ctx context.Context, res *result) {
	for _, e := range sv.restartErrs {
		res.fail(sv.jobsPerRound(), "%s", e)
	}
	first := map[string]string{}
	for _, j := range sv.jobs {
		res.Attempted++
		key := refKey(sv.w.name, 0, j.name)
		if j.err != nil {
			res.fail(1, "%s round %d: %v", j.name, j.round, j.err)
			continue
		}
		if want, ok := sv.o.ref.digest(sv.o.seed, key); ok && want != j.digest {
			res.fail(1, "%s: digest %.12s, reference %.12s", key, j.digest, want)
			continue
		}
		if d, ok := first[j.name]; ok && d != j.digest {
			res.fail(1, "%s round %d: digest differs from round 0", j.name, j.round)
			continue
		}
		first[j.name] = j.digest
		bad, err := crossCheck(ctx, j.cfg, sv.w.other, j.sample)
		if err == nil && len(bad) > 0 {
			err = fmt.Errorf("experiments %v differ on the %s backend", bad, sv.w.other)
		}
		if err != nil {
			res.fail(1, "%s round %d: %v", j.name, j.round, err)
		}
	}
}

// mergeCheck replays a sharded job's triples through a local merge-only
// study and compares its digest with the coordinator's result.
func mergeCheck(ctx context.Context, j *jobRun, all []api.ExperimentRecord) error {
	cfg := j.cfg
	cfg.Metrics = telemetry.NewRegistry()
	cfg.Completed = map[int]*campaign.ExperimentResult{}
	for _, rec := range all {
		cfg.Completed[rec.Index] = rec.Result
	}
	sr, err := campaign.RunStudy(ctx, cfg)
	if err != nil {
		return fmt.Errorf("local merge: %w", err)
	}
	d, err := studyDigest(sr)
	if err != nil {
		return err
	}
	if d != j.digest {
		return fmt.Errorf("merged digest %.12s, local merge %.12s", j.digest, d)
	}
	return nil
}

// layerMetrics derives the traced run's per-layer metrics from the
// jobs: span statistics of the timeline jobs, counts from the count
// rounds' triples, each cell's timeline and profile jobs against its
// plain job of the same round, the journal probe on captured triples,
// and the service-only layers.
func (sv *serviceRun) layerMetrics(res *result, gcs uint32) error {
	var all, counted spanStats
	var captured []*campaign.ExperimentResult
	var sites, hangs float64
	var countExps, exps int
	type roundCell struct{ round, cell int }
	plain := map[roundCell]float64{}
	var queue, overhead, resultKB, submit, tailLag []float64
	var merge, finishWait, harvestLag []float64
	for _, j := range sv.jobs {
		exps += j.cfg.Experiments * j.cfg.Campaigns
		if j.err != nil {
			continue
		}
		if j.sharded {
			harvestLag = append(harvestLag, j.harvestLag.Seconds())
			if j.tl != nil {
				m, fw := coordinatorSpans(j.tl, j.finished)
				merge = append(merge, m)
				finishWait = append(finishWait, fw)
			}
			continue
		}
		if !j.timeline {
			plain[roundCell{j.round, j.cell}] = ms(j.lat)
		}
		// Profiled jobs' spans carry the profiler's per-instruction cost.
		if j.tl != nil && !j.profile {
			all.add(j.tl)
			if j.round < sv.countR {
				counted.add(j.tl)
			}
		}
		for _, rec := range j.all {
			captured = append(captured, rec.Result)
			if j.round < sv.countR {
				countExps++
				sites += float64(rec.Result.DynSites)
				if rec.Result.Hang {
					hangs++
				}
			}
		}
		if j.started != nil && j.finished != nil {
			queue = append(queue, ms(j.started.Sub(j.created)))
			overhead = append(overhead, ms(j.finished.Sub(*j.started)-j.studyWall))
			tailLag = append(tailLag, ms(j.tailReturn.Sub(*j.finished)))
		}
		resultKB = append(resultKB, j.resultKB)
		submit = append(submit, ms(j.submit))
	}
	all.timeMetrics(res)
	counted.countMetrics(res)
	if countExps > 0 {
		res.set("core.dyn_sites_per_exp", sites/float64(countExps), countExps)
		res.set("campaign.hang_frac", hangs/float64(countExps), countExps)
	}
	var ratios, deltas []float64
	for _, j := range sv.jobs {
		p, ok := plain[roundCell{j.round, j.cell}]
		if j.err != nil || j.sharded || !j.timeline || !ok {
			continue
		}
		if j.profile {
			deltas = append(deltas, ms(j.lat)-p)
		} else {
			ratios = append(ratios, ms(j.lat)/p)
		}
	}
	if len(ratios) > 0 {
		res.set("obs.overhead_pct", 100*(median(ratios)-1), len(ratios))
	}
	if len(deltas) > 0 {
		res.set("profile.job_overhead_ms", median(deltas), len(deltas))
	}
	if exps > 0 {
		res.set("runtime.gc_per_kexp", float64(gcs)/(float64(exps)/1000), exps)
	}
	for name, xs := range map[string][]float64{
		"server.queue_wait_ms": queue, "server.job_overhead_ms": overhead,
		"api.result_kb": resultKB, "client.submit_ms": submit, "client.tail_lag_ms": tailLag,
		"coordinator.harvest_lag_s": harvestLag, "coordinator.merge_ms": merge,
		"coordinator.finish_wait_ms": finishWait,
	} {
		if len(xs) > 0 {
			res.set(name, median(xs), len(xs))
		}
	}
	return probeJournal(res, sv.tmp, specOf(sv.cells[0]), captured)
}

// coordinatorSpans reads a sharded job's merged timeline: the merge
// span's duration, and the wait from the last shard's end to the job's
// finish.
func coordinatorSpans(tl *obs.Timeline, finished *time.Time) (mergeMS, finishWaitMS float64) {
	var lastShard int64
	for _, s := range tl.Spans {
		switch {
		case s.Name == "merge":
			mergeMS = float64(s.DurNS) / 1e6
		case strings.HasPrefix(s.Name, "shard["):
			lastShard = max(lastShard, s.StartNS+s.DurNS)
		}
	}
	if finished != nil && lastShard > 0 {
		end := tl.Start.Add(time.Duration(lastShard))
		finishWaitMS = ms(finished.Sub(end))
	}
	return mergeMS, finishWaitMS
}
