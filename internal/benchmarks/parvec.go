package benchmarks

import (
	"math/rand"

	"vulfi/internal/exec"
)

// The two benchmarks drawn from the PARVEC suite (vectorized PARSEC).

const fluidanimateSrc = `
// Smoothed-particle fluid kernel (PARVEC fluidanimate, reduced to a 1D
// particle line with a fixed interaction window): density estimation,
// pressure forces, and symplectic integration.
export void fluidstep(uniform float pos[], uniform float vel[],
		uniform float dens[], uniform float acc[], uniform int n,
		uniform int window, uniform float h, uniform float dt) {
	uniform float h2 = h * h;
	// Density estimation over the interaction window.
	foreach (i = window ... n - window) {
		varying float pi = pos[i];
		varying float d = 0.0;
		for (uniform int k = -window; k <= window; k++) {
			varying float diff = pi - pos[i + k];
			varying float q = h2 - diff * diff;
			if (q > 0.0) {
				d += q * q * q;
			}
		}
		dens[i] = d;
	}
	// Pressure forces.
	foreach (i2 = window ... n - window) {
		varying float pi2 = pos[i2];
		varying float di = dens[i2];
		varying float a = 0.0;
		for (uniform int k2 = -window; k2 <= window; k2++) {
			varying float diff2 = pi2 - pos[i2 + k2];
			varying float q2 = h2 - diff2 * diff2;
			if (q2 > 0.0) {
				varying float press = di + dens[i2 + k2];
				a += press * q2 * diff2;
			}
		}
		acc[i2] = a * 0.05 - 0.1;
	}
	// Symplectic Euler integration.
	foreach (i3 = window ... n - window) {
		varying float v = vel[i3] + acc[i3] * dt;
		vel[i3] = v;
		pos[i3] = pos[i3] + v * dt;
	}
}
`

// Fluidanimate is the PARVEC fluidanimate benchmark (SPH kernel).
var Fluidanimate = &Benchmark{
	Name:      "Fluidanimate",
	Suite:     "Parvec",
	Entry:     "fluidstep",
	Source:    fluidanimateSrc,
	InputDesc: "particles: {64, 128} (paper: simsmall/simmedium)",
	Setup: func(x *exec.Instance, rng *rand.Rand, scale Scale) (*RunSpec, error) {
		var sizes []int
		switch scale {
		case ScaleTest:
			sizes = []int{24}
		case ScaleLarge:
			sizes = []int{512, 1024}
		default:
			sizes = []int{64, 128}
		}
		n := pick(rng, sizes)
		window := 2
		pos := make([]float32, n)
		for i := range pos {
			// Rounded products: no target fuses them (see randF32s).
			pos[i] = float32(float32(i)*0.1) + float32(float32(rng.Float64())*0.02)
		}
		posAddr, posArg, err := allocF32(x, pos)
		if err != nil {
			return nil, err
		}
		velAddr, velArg, err := allocF32(x, randF32s(rng, n, -0.1, 0.1))
		if err != nil {
			return nil, err
		}
		densAddr, densArg, err := allocF32(x, make([]float32, n))
		if err != nil {
			return nil, err
		}
		_, accArg, err := allocF32(x, make([]float32, n))
		if err != nil {
			return nil, err
		}
		return (&RunSpec{
			Outputs: []Region{
				f32Region(posAddr, n), f32Region(velAddr, n), f32Region(densAddr, n),
			},
			Label: label("n=%d", n),
		}).withArgs(posArg, velArg, densArg, accArg, exec.I32Arg(int64(n)),
			exec.I32Arg(int64(window)), exec.F32Arg(0.25), exec.F32Arg(0.01)), nil
	},
}

const swaptionsSrc = `
// Monte-Carlo swaption pricing (PARVEC swaptions, HJM reduced to a
// one-factor short-rate simulation with a per-lane LCG).
export void swaptions(uniform float strike[], uniform float years[],
		uniform float prices[], uniform float stderrs[], uniform int n,
		uniform int trials, uniform int steps, uniform int seed) {
	foreach (i = 0 ... n) {
		varying int state = seed + i * 747796405;
		varying float sum = 0.0;
		varying float sum2 = 0.0;
		for (uniform int t = 0; t < trials; t++) {
			// Evolve a four-tenor forward curve (as HJM evolves the whole
			// curve); the swaption payoff below prices only the short
			// tenor, so most of the curve evolution does not feed the
			// reported output — the structure that makes the original
			// benchmark unusually fault-resilient.
			varying float r0 = 0.05;
			varying float r1 = 0.052;
			varying float r2 = 0.055;
			varying float r3 = 0.06;
			for (uniform int s = 0; s < steps; s++) {
				state = state * 1103515245 + 12345;
				varying int u0 = (state >> 16) & 32767;
				varying float z0 = ((float)u0 / 32768.0) - 0.5;
				state = state * 1103515245 + 12345;
				varying int u1 = (state >> 16) & 32767;
				varying float z1 = ((float)u1 / 32768.0) - 0.5;
				r0 = r0 + 0.1 * z0 * 0.05;
				r1 = r1 + 0.1 * z1 * 0.05 + 0.01 * z0 * 0.05;
				r2 = r2 + 0.08 * z1 * 0.05;
				r3 = r3 + 0.06 * z0 * 0.04 + 0.02 * z1 * 0.04;
				if (r0 < 0.001) {
					r0 = 0.001;
				}
				if (r1 < 0.001) {
					r1 = 0.001;
				}
				if (r2 < 0.001) {
					r2 = 0.001;
				}
				if (r3 < 0.001) {
					r3 = 0.001;
				}
			}
			varying float payoff = r0 - strike[i];
			if (payoff < 0.0) {
				payoff = 0.0;
			}
			varying float discounted = payoff * exp(-r0 * years[i]);
			sum += discounted;
			sum2 += discounted * discounted;
		}
		varying float mean = sum / (float)trials;
		varying float variance = sum2 / (float)trials - mean * mean;
		if (variance < 0.0) {
			variance = 0.0;
		}
		prices[i] = mean;
		stderrs[i] = sqrt(variance / (float)trials);
	}
}
`

// Swaptions is the PARVEC swaptions benchmark (Monte-Carlo pricing).
var Swaptions = &Benchmark{
	Name:      "Swaptions",
	Suite:     "Parvec",
	Entry:     "swaptions",
	Source:    swaptionsSrc,
	InputDesc: "swaptions: [8, 16], simulations: [16, 32] (paper: [16,64] x [100,200])",
	Setup: func(x *exec.Instance, rng *rand.Rand, scale Scale) (*RunSpec, error) {
		type cfg struct{ n, trials, steps int }
		var cfgs []cfg
		switch scale {
		case ScaleTest:
			cfgs = []cfg{{8, 4, 8}}
		case ScaleLarge:
			cfgs = []cfg{{32, 64, 32}, {64, 100, 32}}
		default:
			cfgs = []cfg{{8, 16, 8}, {16, 16, 12}}
		}
		c := cfgs[rng.Intn(len(cfgs))]
		_, st, err := allocF32(x, randF32s(rng, c.n, 0.03, 0.07))
		if err != nil {
			return nil, err
		}
		_, yr, err := allocF32(x, randF32s(rng, c.n, 1, 10))
		if err != nil {
			return nil, err
		}
		prAddr, pr, err := allocF32(x, make([]float32, c.n))
		if err != nil {
			return nil, err
		}
		seAddr, se, err := allocF32(x, make([]float32, c.n))
		if err != nil {
			return nil, err
		}
		// Prices and standard errors are reported to fixed precision (as
		// the PARSEC original prints them), so sub-precision
		// perturbations are not observable output corruption.
		out := f32Region(prAddr, c.n)
		out.Quantize = 1e-4
		outSE := f32Region(seAddr, c.n)
		outSE.Quantize = 1e-2
		return (&RunSpec{
			Outputs: []Region{out, outSE},
			Label:   label("n=%d trials=%d steps=%d", c.n, c.trials, c.steps),
		}).withArgs(st, yr, pr, se, exec.I32Arg(int64(c.n)),
			exec.I32Arg(int64(c.trials)), exec.I32Arg(int64(c.steps)),
			exec.I32Arg(int64(rng.Intn(1<<30)))), nil
	},
}
