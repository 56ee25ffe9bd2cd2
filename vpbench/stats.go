package main

import (
	"math"
	"sort"
	"time"
)

// dist is a sample of one timing or count. Every figure the benchmark
// reports from it carries the sample count, so a percentile drawn from a
// handful of samples is never mistaken for a well-supported one.
type dist struct {
	xs     []float64
	sorted bool
}

func (d *dist) add(x float64) {
	d.xs = append(d.xs, x)
	d.sorted = false
}

func (d *dist) addDur(v time.Duration, unit time.Duration) {
	d.add(float64(v) / float64(unit))
}

// n returns the sample count.
func (d *dist) n() int { return len(d.xs) }

// pct returns the q-th percentile (0 <= q <= 100) by linear interpolation
// between the closest ranks, and the sample count it was drawn from. An
// empty sample reports 0 with n = 0.
func (d *dist) pct(q float64) (float64, int) {
	n := len(d.xs)
	if n == 0 {
		return 0, 0
	}
	if !d.sorted {
		sort.Float64s(d.xs)
		d.sorted = true
	}
	pos := q / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return d.xs[lo] + (d.xs[hi]-d.xs[lo])*frac, n
}

// tailBeyond reports how many samples lie strictly above the q-th
// percentile. A tail figure is well supported with at least ten samples
// beyond it.
func (d *dist) tailBeyond(q float64) int {
	v, n := d.pct(q)
	beyond := 0
	for i := n - 1; i >= 0 && d.xs[i] > v; i-- {
		beyond++
	}
	return beyond
}

func (d *dist) sum() float64 {
	s := 0.0
	for _, x := range d.xs {
		s += x
	}
	return s
}
