// Package stats implements the statistical machinery of the paper's
// evaluation methodology (§IV-D): sample mean/deviation, Student-t
// critical values for 95% confidence, the margin-of-error rule used to
// decide how many fault-injection campaigns to run, and a normality
// diagnostic for the campaign-rate sample distribution.
//
// A product that feeds a sum is rounded by an explicit conversion
// (float64(d*d) + s): Go may fuse x*y + z into one multiply-add on
// arm64, ppc64le, s390x and riscv64, and the conversion keeps every
// host's statistics bit-identical to amd64's. scripts/fma-check.sh
// checks the compiled code for fused instructions.
package stats

import "math"

// Mean returns the arithmetic mean (0 for an empty sample).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	// Rounded: inlined at a constant power-of-two length, the division
	// becomes a product that a caller's x - Mean(xs) could fuse.
	return float64(s / float64(len(xs)))
}

// Variance returns the unbiased sample variance (n-1 denominator).
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += float64(d * d)
	}
	return s / float64(len(xs)-1)
}

// StdDev returns the sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// StdErr returns the standard error of the mean.
func StdErr(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return StdDev(xs) / math.Sqrt(float64(len(xs)))
}

// tTable95 holds two-sided 95% Student-t critical values for df = 1..30.
var tTable95 = []float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// z975 is the standard normal 0.975 quantile.
const z975 = 1.959964

// TCritical95 returns the two-sided 95% Student-t critical value for the
// given degrees of freedom: the table up to df 30, and beyond it the
// first four terms of the Cornish–Fisher expansion of the t quantile
// around the normal one (Abramowitz & Stegun 26.7.5), within 1e-4 of
// the exact value there.
func TCritical95(df int) float64 {
	switch {
	case df <= 0:
		return math.Inf(1)
	case df <= len(tTable95):
		return tTable95[df-1]
	}
	z, v := z975, float64(df)
	z2 := z * z
	g1 := z * (z2 + 1) / 4
	g2 := z * ((5*z2+16)*z2 + 3) / 96
	g3 := z * (((3*z2+19)*z2+17)*z2 - 15) / 384
	return z + g1/v + g2/(v*v) + g3/(v*v*v)
}

// MarginOfError95 returns the paper's ±margin at 95% confidence for the
// sample of campaign rates: t(df) × stderr.
func MarginOfError95(xs []float64) float64 {
	if len(xs) < 2 {
		return math.Inf(1)
	}
	return TCritical95(len(xs)-1) * StdErr(xs)
}

// Skewness returns the sample skewness (0 for degenerate samples).
func Skewness(xs []float64) float64 {
	n := float64(len(xs))
	if n < 3 {
		return 0
	}
	m := Mean(xs)
	var m2, m3 float64
	for _, x := range xs {
		d := x - m
		m2 += float64(d * d)
		m3 += float64(d * d * d)
	}
	m2 /= n
	m3 /= n
	if m2 == 0 {
		return 0
	}
	return m3 / math.Pow(m2, 1.5)
}

// Kurtosis returns the sample excess kurtosis (0 for degenerate samples).
func Kurtosis(xs []float64) float64 {
	n := float64(len(xs))
	if n < 4 {
		return 0
	}
	m := Mean(xs)
	var m2, m4 float64
	for _, x := range xs {
		d := x - m
		m2 += float64(d * d)
		m4 += float64(d * d * d * d)
	}
	m2 /= n
	m4 /= n
	if m2 == 0 {
		return 0
	}
	return m4/(m2*m2) - 3
}

// JarqueBera returns the Jarque–Bera normality statistic; under
// normality it is χ²(2)-distributed.
func JarqueBera(xs []float64) float64 {
	n := float64(len(xs))
	s := Skewness(xs)
	k := Kurtosis(xs)
	return n / 6 * (float64(s*s) + float64(k*k/4))
}

// NearNormal applies the paper's "normal or near normal" criterion using
// the Jarque–Bera statistic at the χ²(2) 95% cut-off (5.991). Degenerate
// (zero-variance) samples count as near normal.
func NearNormal(xs []float64) bool {
	if Variance(xs) == 0 {
		return true
	}
	return JarqueBera(xs) < 5.991
}

// Z95 is the two-sided 95% standard-normal critical value, the default
// significance threshold of the atlas regression gate.
const Z95 = 1.959963984540054

// NormalCDF returns Φ(z), the standard normal cumulative distribution.
func NormalCDF(z float64) float64 {
	// Rounded, so an inlined 1 - NormalCDF(z) cannot fuse the product.
	return float64(0.5 * (1 + math.Erf(z/math.Sqrt2)))
}

// WilsonInterval returns the Wilson score confidence interval for a
// binomial proportion of successes out of n trials at critical value z
// (z = Z95 for 95% confidence). Unlike the Wald interval it stays inside
// [0,1] and behaves sensibly at the extremes (0 or n successes), which
// per-site tallies hit constantly — a site injected 3 times with 3 SDCs
// gets a wide interval instead of the overconfident [1,1]. With n == 0
// there is no information and the interval is the whole of [0,1].
func WilsonInterval(successes, n int, z float64) (lo, hi float64) {
	if n <= 0 {
		return 0, 1
	}
	p := float64(successes) / float64(n)
	nn := float64(n)
	z2 := z * z
	denom := 1 + z2/nn
	center := p + z2/(2*nn)
	spread := float64(z * math.Sqrt(p*(1-p)/nn+z2/(4*nn*nn)))
	lo = (center - spread) / denom
	hi = (center + spread) / denom
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// TwoProportionZ returns the pooled two-proportion z statistic comparing
// x1/n1 against x2/n2 — positive when the second proportion is larger.
// It is the atlas regression test: |z| ≥ Z95 rejects "the two studies
// have the same underlying rate" at 95% confidence. Degenerate inputs
// (an empty sample, or a pooled rate of exactly 0 or 1, under which the
// two samples cannot differ) return 0.
func TwoProportionZ(x1, n1, x2, n2 int) float64 {
	if n1 <= 0 || n2 <= 0 {
		return 0
	}
	p1 := float64(x1) / float64(n1)
	p2 := float64(x2) / float64(n2)
	pool := float64(x1+x2) / float64(n1+n2)
	se := math.Sqrt(pool * (1 - pool) * (1/float64(n1) + 1/float64(n2)))
	if se == 0 {
		return 0
	}
	return (p2 - p1) / se
}
