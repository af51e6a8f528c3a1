package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"vulfi/internal/benchmarks"
	"vulfi/internal/campaign"
	"vulfi/internal/codegen"
	"vulfi/internal/core"
	"vulfi/internal/detect"
	"vulfi/internal/exec"
	"vulfi/internal/interp"
	"vulfi/internal/ir"
	"vulfi/internal/isa"
	"vulfi/internal/lang"
	"vulfi/internal/passes"
	"vulfi/internal/server"
	"vulfi/internal/vm"
)

// us converts a duration to microseconds.
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// backendProbe accumulates golden runs on one backend.
type backendProbe struct {
	dyn, allocs, bytes float64
	dur                time.Duration
	runs               int
}

func (p *backendProbe) set(r *result, prefix string) {
	if p.runs == 0 || p.dur <= 0 {
		return
	}
	r.set(prefix+".minstr_per_s", p.dyn/p.dur.Seconds()/1e6, p.runs)
	r.set(prefix+".allocs_per_run", p.allocs/float64(p.runs), p.runs)
	r.set(prefix+".bytes_per_run", p.bytes/float64(p.runs), p.runs)
}

// probeLayers times each layer's public entry points over the
// workload's cells: parse+check per benchmark, lowering and the
// detector passes per benchmark × ISA, then per cell instrumentation,
// bytecode compilation and one golden run on each backend from a clean
// instance. Compile-side times are totals over the workload.
func probeLayers(r *result, cfgs []campaign.Config) error {
	type target struct {
		b *benchmarks.Benchmark
		t *isa.ISA
	}
	progs := map[*benchmarks.Benchmark]*lang.Program{}
	seenTarget := map[target]bool{}
	var langT, cgT, detT, instT, vmT, newT, resetT, setupT time.Duration
	var irInstrs, fused float64
	var instances, cells int
	var onVM, onTree backendProbe

	for _, cfg := range cfgs {
		b := cfg.Benchmark
		if progs[b] == nil {
			start := time.Now()
			prog, err := lang.Compile(b.Source)
			langT += time.Since(start)
			if err != nil {
				return fmt.Errorf("lang %s: %w", b.Name, err)
			}
			progs[b] = prog
		}
		if tg := (target{b, cfg.ISA}); !seenTarget[tg] {
			seenTarget[tg] = true
			start := time.Now()
			res, err := codegen.Compile(progs[b], cfg.ISA, b.Name)
			cgT += time.Since(start)
			if err != nil {
				return fmt.Errorf("codegen %s/%s: %w", b.Name, cfg.ISA.Name, err)
			}
			irInstrs += float64(countInstrs(res.Module))
			pm := &passes.Manager{}
			pm.Add(&detect.ForeachInvariantPass{}, &detect.UniformBroadcastPass{}, &detect.MaskMonotonicityPass{})
			start = time.Now()
			err = pm.Run(res.Module)
			detT += time.Since(start)
			if err != nil {
				return fmt.Errorf("detectors %s/%s: %w", b.Name, cfg.ISA.Name, err)
			}
		}

		res, err := codegen.Compile(progs[b], cfg.ISA, b.Name)
		if err != nil {
			return err
		}
		if cfg.Detectors {
			pm := &passes.Manager{}
			pm.Add(&detect.ForeachInvariantPass{EveryIteration: cfg.DetectorEveryIteration})
			if cfg.BroadcastDetector {
				pm.Add(&detect.UniformBroadcastPass{})
			}
			if cfg.MaskLoopDetector {
				pm.Add(&detect.MaskMonotonicityPass{})
			}
			if err := pm.Run(res.Module); err != nil {
				return err
			}
		}
		pm := &passes.Manager{Verify: true}
		pm.Add(&core.InstrumentPass{Category: cfg.Category, Out: &core.Instrumentation{}})
		start := time.Now()
		err = pm.Run(res.Module)
		instT += time.Since(start)
		if err != nil {
			return fmt.Errorf("instrument %s: %w", cfg, err)
		}
		start = time.Now()
		prog := vm.Compile(res.Module)
		vmT += time.Since(start)
		fused += float64(prog.Fused("gep+load") + prog.Fused("gep+store") + prog.Fused("cmp+br"))
		cells++

		for _, p := range []*backendProbe{&onVM, &onTree} {
			start := time.Now()
			x, err := exec.NewInstance(res, interp.Options{})
			newT += time.Since(start)
			if err != nil {
				return err
			}
			instances++
			if p == &onVM {
				vm.Attach(x.It, prog)
			}
			core.AttachRuntime(x.It, &core.Plan{Mode: core.CountOnly})
			detect.AttachRuntime(x.It)
			start = time.Now()
			spec, err := b.Setup(x, rand.New(rand.NewSource(cfg.InputSeed(0))), cfg.Scale)
			setupT += time.Since(start)
			if err != nil {
				return err
			}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			start = time.Now()
			_, tr := x.CallExport(b.Entry, spec.Args...)
			p.dur += time.Since(start)
			runtime.ReadMemStats(&m1)
			if tr != nil {
				return fmt.Errorf("golden run %s: %w", cfg, tr)
			}
			p.dyn += float64(x.It.DynInstrs)
			p.allocs += float64(m1.Mallocs - m0.Mallocs)
			p.bytes += float64(m1.TotalAlloc - m0.TotalAlloc)
			p.runs++
			start = time.Now()
			err = x.Reset(interp.Options{})
			resetT += time.Since(start)
			if err != nil {
				return err
			}
		}
	}
	r.set("lang.compile_us", us(langT), len(progs))
	r.set("codegen.compile_us", us(cgT), len(seenTarget))
	r.set("codegen.ir_instrs", irInstrs, len(seenTarget))
	r.set("detect.passes_us", us(detT), len(seenTarget))
	r.set("core.instrument_us", us(instT), cells)
	r.set("vm.compile_us", us(vmT), cells)
	r.set("vm.fused_pairs", fused, cells)
	onVM.set(r, "vm")
	onTree.set(r, "interp")
	r.set("exec.new_instance_us", us(newT)/float64(instances), instances)
	r.set("exec.reset_us", us(resetT)/float64(instances), instances)
	r.set("benchmarks.setup_us", us(setupT)/float64(instances), instances)
	return nil
}

func countInstrs(m *ir.Module) int {
	n := 0
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			n += len(b.Instrs)
		}
	}
	return n
}

// journalAppends is how many experiment records the journal probe
// writes, cycling through the captured results.
const journalAppends = 10_000

// probeJournal times the service journal on this workload's captured
// experiment results: appending journalAppends records through
// server.OpenJournal, then replaying them with server.ReplayJournal. It
// works in a temporary directory under dir and removes it.
func probeJournal(r *result, dir string, spec server.Spec, exps []*campaign.ExperimentResult) error {
	if len(exps) == 0 {
		return fmt.Errorf("journal probe: no captured experiments")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(dir, "journal-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	path := filepath.Join(tmp, "probe.jsonl")
	j, err := server.OpenJournal(path, false)
	if err != nil {
		return err
	}
	j.Submit("probe", spec)
	start := time.Now()
	for i := 0; i < journalAppends; i++ {
		j.Experiment(i, int64(i), exps[i%len(exps)])
	}
	appendT := time.Since(start)
	if err := j.Close(); err != nil {
		return err
	}
	if err := j.Err(); err != nil {
		return err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	start = time.Now()
	rp, err := server.ReplayJournal(path)
	replayT := time.Since(start)
	if err != nil {
		return err
	}
	if len(rp.Completed) != journalAppends {
		return fmt.Errorf("journal probe replayed %d of %d records", len(rp.Completed), journalAppends)
	}
	r.set("journal.append_us", us(appendT)/journalAppends, journalAppends)
	r.set("journal.bytes_per_exp", float64(fi.Size())/journalAppends, journalAppends)
	r.set("journal.replay_us_per_record", us(replayT)/(journalAppends+1), journalAppends+1)
	return nil
}
