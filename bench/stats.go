package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// a tail figure resting on fewer is an anecdote, not a statistic.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// xs. It refuses when fewer than minBeyond samples lie beyond that rank.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("p%g of no samples", p)
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples leaves %d beyond it (need %d)",
			p, n, beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first quartile, median and third quartile of xs
// by the "exclusive" method (Python's statistics.quantiles default).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j, delta := i*m/4, i*m%4
		lo, hi := j-1, j
		if lo < 0 {
			lo = 0
		}
		if hi > n-1 {
			hi = n - 1
		}
		q[i-1] = (s[lo]*float64(4-delta) + s[hi]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// interval is a half-open time range in nanoseconds.
type interval struct{ lo, hi int64 }

// selfTime returns the part of parent not covered by any child, with
// children clipped to the parent and overlaps between children counted
// once: a span's self time.
func selfTime(parent interval, children []interval) int64 {
	var cs []interval
	for _, c := range children {
		lo, hi := max(c.lo, parent.lo), min(c.hi, parent.hi)
		if lo < hi {
			cs = append(cs, interval{lo, hi})
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].lo < cs[j].lo })
	var covered int64
	end := parent.lo
	for _, c := range cs {
		if c.hi <= end {
			continue
		}
		covered += c.hi - max(c.lo, end)
		end = c.hi
	}
	return parent.hi - parent.lo - covered
}
