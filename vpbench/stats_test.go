package main

import (
	"testing"
	"time"
)

func TestPercentileCarriesSampleCount(t *testing.T) {
	var d dist
	if v, n := d.pct(50); v != 0 || n != 0 {
		t.Fatalf("empty sample: got (%v, %d), want (0, 0)", v, n)
	}
	for _, x := range []float64{40, 10, 30, 20} {
		d.add(x)
	}
	cases := []struct {
		q    float64
		want float64
	}{
		{0, 10}, {50, 25}, {100, 40}, {25, 17.5}, {99, 39.7},
	}
	for _, c := range cases {
		v, n := d.pct(c.q)
		if n != 4 || v < c.want-1e-9 || v > c.want+1e-9 {
			t.Errorf("pct(%v) = (%v, %d), want (%v, 4)", c.q, v, n, c.want)
		}
	}
	d.addDur(5*time.Millisecond, time.Millisecond)
	if v, n := d.pct(0); v != 5 || n != 5 {
		t.Errorf("after addDur: pct(0) = (%v, %d), want (5, 5)", v, n)
	}
}

func TestTailBeyondCountsSupport(t *testing.T) {
	var d dist
	for i := 1; i <= 1000; i++ {
		d.add(float64(i))
	}
	// p99 of 1..1000 is 990.01: ten samples (991..1000) lie beyond it.
	if got := d.tailBeyond(99); got != 10 {
		t.Errorf("tailBeyond(99) over 1000 samples = %d, want 10", got)
	}
	var small dist
	for i := 0; i < 20; i++ {
		small.add(float64(i))
	}
	if got := small.tailBeyond(99); got != 1 {
		t.Errorf("tailBeyond(99) over 20 samples = %d, want 1", got)
	}
}
