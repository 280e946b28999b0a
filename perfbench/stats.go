package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples that must lie beyond a reported
// tail percentile: a p99 over 150 samples rests on one or two values and
// says nothing steady, so the tail reported is the highest percentile
// that still has this many samples above it.
const minBeyond = 10

// tailLadder lists the percentiles a tail may be reported at, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// median returns the middle of xs (the mean of the two middle values
// for even counts), 0 for none. xs is not modified.
func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile returns the p-th percentile of xs, interpolating linearly
// between the two samples around position (n-1)·p/100 of the sorted
// values (numpy's default), 0 for none. Interpolation keeps the p95 of a
// few dozen samples from being just the single worst one. xs is not
// modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	h, lo := pos(len(s), p)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + max(0, h-float64(lo))*(s[lo+1]-s[lo])
}

// pos is the 0-based position h of percentile p among n sorted samples
// and the sample lo at or just below it. The slack keeps float error
// (199·0.95 = 189.04999…) from moving lo across an integer.
func pos(n int, p float64) (h float64, lo int) {
	h = max(0, min(float64(n-1)*p/100, float64(n-1)))
	return h, int(math.Floor(h + 1e-9))
}

// beyond counts the samples that lie above the p-th percentile of n.
func beyond(n int, p float64) int {
	_, lo := pos(n, p)
	return n - 1 - lo
}

// tail picks the highest ladder percentile of xs with at least minBeyond
// samples beyond it and returns that percentile and its value. With too
// few samples for even the median to qualify it returns the maximum and
// p = 100, so a short run still reports its worst case, labelled as such.
func tail(xs []float64) (p, v float64) {
	for _, q := range tailLadder {
		if beyond(len(xs), q) >= minBeyond {
			return q, percentile(xs, q)
		}
	}
	return 100, percentile(xs, 100)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func seconds(d time.Duration) float64 { return d.Seconds() }
func millis(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }

// ratio keeps a ratio together with its base, so that every printed
// ratio shows what it was computed from.
type ratio struct {
	num, den float64
}

// value is num/den, 0 when the base is empty.
func (r ratio) value() float64 {
	if r.den == 0 {
		return 0
	}
	return r.num / r.den
}

func (r ratio) String() string {
	return fmt.Sprintf("%.6g (%.6g / %.6g)", r.value(), r.num, r.den)
}
