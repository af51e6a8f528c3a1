// Package benchmarks implements the paper's evaluation workloads (Table
// I) as VSPC kernels: the PARVEC pair (fluidanimate, swaptions), the ISPC
// examples (blackscholes, sorting, stencil, ray tracing), the SCL trio
// (chebyshev, jacobi, conjugate gradient), and the three §IV-E
// micro-benchmarks (vector copy, dot product, vector sum).
//
// The kernels keep the computational character of the originals
// (array-intensive vs compute-intensive, control-heavy vs straight-line)
// at simulator-friendly input sizes; each Setup picks one input from a
// predefined set at random, as the paper's execution strategy does.
package benchmarks

import (
	"fmt"
	"math/rand"

	"vulfi/internal/exec"
	"vulfi/internal/interp"
)

// Scale selects the input-size regime.
type Scale int

// Scales: Test keeps unit tests fast; Default drives the fault-injection
// study; Large stretches toward the paper's input shapes.
const (
	ScaleTest Scale = iota
	ScaleDefault
	ScaleLarge
)

// String names the scale with the spelling the service spec and CLIs
// parse (server.ParseScale round-trips it).
func (s Scale) String() string {
	switch s {
	case ScaleTest:
		return "test"
	case ScaleLarge:
		return "large"
	default:
		return "default"
	}
}

// Region is a memory range compared between golden and faulty runs.
// When Quantize is nonzero the range is interpreted as float32 cells and
// quantized to that step before comparison — modeling benchmarks whose
// observable output is printed with limited precision (PARSEC swaptions
// prices, solver residuals), which the paper's output comparison
// inherits.
type Region struct {
	Addr     uint64
	Size     uint64
	Quantize float32
}

// RunSpec is a prepared invocation: entry arguments plus the output
// regions whose bytes define the program's observable result.
type RunSpec struct {
	Args    []interp.Value
	Outputs []Region
	Label   string
}

// withArgs sets the spec's arguments and returns it (builder sugar).
func (s *RunSpec) withArgs(args ...interp.Value) *RunSpec {
	s.Args = args
	return s
}

// Benchmark is one workload.
type Benchmark struct {
	Name   string
	Suite  string
	Entry  string
	Source string
	// InputDesc describes the Table I input set.
	InputDesc string
	// Setup allocates one randomly chosen input in the instance's memory
	// and returns the invocation spec.
	Setup func(x *exec.Instance, rng *rand.Rand, scale Scale) (*RunSpec, error)
}

// registry holds all benchmarks in the paper's Table I order followed by
// the micro-benchmarks.
var registry []*Benchmark

func init() {
	registry = []*Benchmark{
		Fluidanimate, Swaptions,
		Blackscholes, Sorting, Stencil, Raytracing,
		Chebyshev, Jacobi, ConjugateGradient,
		VectorCopy, DotProduct, VectorSum,
		Mandelbrot,
	}
}

// All returns every benchmark in registration (Table I) order.
func All() []*Benchmark {
	out := make([]*Benchmark, len(registry))
	copy(out, registry)
	return out
}

// Study returns the nine Table I benchmarks (no micro-benchmarks, no
// extension extras).
func Study() []*Benchmark {
	var out []*Benchmark
	for _, b := range registry {
		switch b.Suite {
		case "Parvec", "ISPC", "SCL":
			out = append(out, b)
		}
	}
	return out
}

// Micro returns the three §IV-E micro-benchmarks.
func Micro() []*Benchmark {
	var out []*Benchmark
	for _, b := range registry {
		if b.Suite == "Micro" {
			out = append(out, b)
		}
	}
	return out
}

// ByName returns the named benchmark, or nil.
func ByName(name string) *Benchmark {
	for _, b := range registry {
		if b.Name == name {
			return b
		}
	}
	return nil
}

// pick selects one element of xs with rng (deterministic per seed).
func pick(rng *rand.Rand, xs []int) int { return xs[rng.Intn(len(xs))] }

// randF32s fills a deterministic pseudo-random float32 slice in [lo, hi).
// The product is rounded explicitly so no target fuses it into a
// multiply-add: every host draws the same inputs (scripts/fma-check.sh).
func randF32s(rng *rand.Rand, n int, lo, hi float64) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(lo + float64(rng.Float64()*(hi-lo)))
	}
	return out
}

// randI32s fills a deterministic pseudo-random int32 slice in [lo, hi).
func randI32s(rng *rand.Rand, n int, lo, hi int32) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = lo + int32(rng.Intn(int(hi-lo)))
	}
	return out
}

// allocF32 allocates and returns both the address and a pointer argument.
func allocF32(x *exec.Instance, data []float32) (uint64, interp.Value, error) {
	addr, err := x.AllocF32(data)
	if err != nil {
		return 0, interp.Value{}, err
	}
	return addr, exec.PtrArgF32(addr), nil
}

func allocI32(x *exec.Instance, data []int32) (uint64, interp.Value, error) {
	addr, err := x.AllocI32(data)
	if err != nil {
		return 0, interp.Value{}, err
	}
	return addr, exec.PtrArgI32(addr), nil
}

func f32Region(addr uint64, n int) Region {
	return Region{Addr: addr, Size: uint64(4 * n)}
}

func label(format string, args ...any) string {
	return fmt.Sprintf(format, args...)
}
