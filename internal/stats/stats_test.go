package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVarianceKnownValues(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(xs) != 5 {
		t.Errorf("mean = %v", Mean(xs))
	}
	// Sample variance with n-1: sum sq dev = 32, /7.
	if !almost(Variance(xs), 32.0/7, 1e-12) {
		t.Errorf("variance = %v", Variance(xs))
	}
	if !almost(StdDev(xs), math.Sqrt(32.0/7), 1e-12) {
		t.Errorf("stddev = %v", StdDev(xs))
	}
	if !almost(StdErr(xs), math.Sqrt(32.0/7)/math.Sqrt(8), 1e-12) {
		t.Errorf("stderr = %v", StdErr(xs))
	}
}

func TestEmptyAndDegenerate(t *testing.T) {
	if Mean(nil) != 0 || Variance(nil) != 0 || StdErr(nil) != 0 {
		t.Error("empty sample should yield zeros")
	}
	if Variance([]float64{5}) != 0 {
		t.Error("singleton variance should be 0")
	}
	if !math.IsInf(MarginOfError95([]float64{1}), 1) {
		t.Error("MoE of singleton should be +Inf")
	}
}

// TestTCritical: the table up to df 30, then the Cornish–Fisher
// expansion, checked against standard t-table values.
func TestTCritical(t *testing.T) {
	table := []struct {
		df   int
		want float64
	}{{1, 12.706}, {5, 2.571}, {19, 2.093}, {30, 2.042}}
	for _, c := range table {
		if got := TCritical95(c.df); got != c.want {
			t.Errorf("t(%d) = %v, want %v", c.df, got, c.want)
		}
	}
	expansion := []struct {
		df   int
		want float64
	}{
		{31, 2.0395}, {35, 2.0301}, {40, 2.0211}, {50, 2.0086},
		{60, 2.0003}, {100, 1.9840}, {120, 1.9799}, {1000, 1.9623},
	}
	for _, c := range expansion {
		if got := TCritical95(c.df); math.Abs(got-c.want) > 5e-4 {
			t.Errorf("t(%d) = %.4f, want %.4f", c.df, got, c.want)
		}
	}
	if !math.IsInf(TCritical95(0), 1) {
		t.Error("t(0) should be +Inf")
	}
}

// TestPaperMarginRule reproduces the §IV-D setup: 20 campaign SDC rates;
// the margin of error uses t(19) = 2.093.
func TestPaperMarginRule(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 20)
	for i := range xs {
		xs[i] = 0.5 + float64(rng.NormFloat64()*0.02)
	}
	moe := MarginOfError95(xs)
	want := float64(2.093 * StdErr(xs))
	if !almost(moe, want, 1e-12) {
		t.Errorf("moe = %v, want %v", moe, want)
	}
	// With σ≈2% over 20 campaigns, the margin lands within the paper's
	// ±3% target.
	if moe > 0.03 {
		t.Errorf("margin %v exceeds the paper's ±3%% regime", moe)
	}
}

// Property: mean is shift-equivariant and variance shift-invariant.
func TestShiftProperties(t *testing.T) {
	prop := func(raw []float64, shift float64) bool {
		if len(raw) < 2 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			// Clamp wild quick-generated values to keep FP error bounded.
			xs[i] = math.Mod(v, 1000)
			if math.IsNaN(xs[i]) {
				xs[i] = 0
			}
		}
		shift = math.Mod(shift, 1000)
		if math.IsNaN(shift) {
			shift = 0
		}
		ys := make([]float64, len(xs))
		for i := range xs {
			ys[i] = xs[i] + shift
		}
		return almost(Mean(ys), Mean(xs)+shift, 1e-6) &&
			almost(Variance(ys), Variance(xs), 1e-5*(1+Variance(xs)))
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestSkewnessKurtosis(t *testing.T) {
	// Symmetric sample: zero skewness.
	sym := []float64{-2, -1, 0, 1, 2}
	if !almost(Skewness(sym), 0, 1e-12) {
		t.Errorf("symmetric skewness = %v", Skewness(sym))
	}
	// Right-skewed sample: positive skewness.
	skew := []float64{1, 1, 1, 1, 10}
	if Skewness(skew) <= 0 {
		t.Errorf("right-skewed sample has skewness %v", Skewness(skew))
	}
	if Skewness([]float64{3, 3, 3}) != 0 {
		t.Error("degenerate skewness should be 0")
	}
}

func TestNearNormal(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	normal := make([]float64, 200)
	for i := range normal {
		normal[i] = rng.NormFloat64()
	}
	if !NearNormal(normal) {
		t.Errorf("gaussian sample rejected (JB=%v)", JarqueBera(normal))
	}
	// A heavily skewed sample must be rejected.
	skewed := make([]float64, 200)
	for i := range skewed {
		skewed[i] = math.Exp(rng.NormFloat64() * 2)
	}
	if NearNormal(skewed) {
		t.Errorf("lognormal sample accepted (JB=%v)", JarqueBera(skewed))
	}
	// Constant samples count as near normal (degenerate distributions).
	if !NearNormal([]float64{1, 1, 1, 1}) {
		t.Error("constant sample should pass")
	}
}

func TestWilsonInterval(t *testing.T) {
	cases := []struct {
		x, n   int
		lo, hi float64 // expected bounds (reference values, 1e-6)
	}{
		{0, 0, 0, 1},          // no trials: no information
		{0, 10, 0, 0.277535},  // zero successes still gets hi > 0
		{10, 10, 0.722465, 1}, // all successes still gets lo < 1
		{5, 10, 0.236593, 0.763407},
		{50, 100, 0.403832, 0.596168},
	}
	for _, c := range cases {
		lo, hi := WilsonInterval(c.x, c.n, Z95)
		if math.Abs(lo-c.lo) > 1e-5 || math.Abs(hi-c.hi) > 1e-5 {
			t.Errorf("WilsonInterval(%d,%d) = [%v,%v], want [%v,%v]",
				c.x, c.n, lo, hi, c.lo, c.hi)
		}
		if lo < 0 || hi > 1 || lo > hi {
			t.Errorf("WilsonInterval(%d,%d) = [%v,%v] not a sane interval",
				c.x, c.n, lo, hi)
		}
		p := float64(0)
		if c.n > 0 {
			p = float64(c.x) / float64(c.n)
		} else {
			p = lo // vacuous containment for the n==0 row
		}
		if p < lo-1e-12 || p > hi+1e-12 {
			t.Errorf("WilsonInterval(%d,%d) = [%v,%v] excludes p=%v",
				c.x, c.n, lo, hi, p)
		}
	}
}

func TestTwoProportionZ(t *testing.T) {
	// Identical samples: z must be exactly 0.
	if z := TwoProportionZ(30, 100, 30, 100); z != 0 {
		t.Errorf("identical proportions: z = %v, want 0", z)
	}
	// Degenerate inputs return 0, never NaN.
	for _, z := range []float64{
		TwoProportionZ(0, 0, 5, 10),
		TwoProportionZ(5, 10, 0, 0),
		TwoProportionZ(0, 50, 0, 50),   // pooled rate 0
		TwoProportionZ(50, 50, 50, 50), // pooled rate 1
	} {
		if z != 0 || math.IsNaN(z) {
			t.Errorf("degenerate input: z = %v, want 0", z)
		}
	}
	// A textbook case: 20/100 vs 35/100 → z ≈ 2.3754 (second larger →
	// positive), antisymmetric under swapping the samples.
	z := TwoProportionZ(20, 100, 35, 100)
	if math.Abs(z-2.375423) > 1e-5 {
		t.Errorf("TwoProportionZ(20/100, 35/100) = %v, want ~2.375423", z)
	}
	if zr := TwoProportionZ(35, 100, 20, 100); math.Abs(z+zr) > 1e-12 {
		t.Errorf("z not antisymmetric: %v vs %v", z, zr)
	}
	if z < Z95 {
		t.Errorf("z = %v should exceed Z95 = %v", z, Z95)
	}
	// NormalCDF sanity: Φ(0) = 0.5, Φ(Z95) ≈ 0.975.
	if c := NormalCDF(0); math.Abs(c-0.5) > 1e-12 {
		t.Errorf("NormalCDF(0) = %v", c)
	}
	if c := NormalCDF(Z95); math.Abs(c-0.975) > 1e-9 {
		t.Errorf("NormalCDF(Z95) = %v, want 0.975", c)
	}
}
