package main

import (
	"math"
	"testing"
)

func TestPercentileKnownVectors(t *testing.T) {
	one2ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1} // unsorted on purpose
	cases := []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{one2ten, 0, 1},
		{one2ten, 50, 5.5},
		{one2ten, 90, 9.1},
		{one2ten, 99, 9.91},
		{one2ten, 100, 10},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110}, 25, 35},
		{[]float64{4}, 99, 4},
		{[]float64{1, 3}, 50, 2},
	}
	for _, c := range cases {
		if got := percentile(c.xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v, %g) = %g, want %g", c.xs, c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); !math.IsNaN(got) {
		t.Errorf("percentile of an empty sample = %g, want NaN", got)
	}
	if one2ten[0] != 10 {
		t.Error("percentile sorted its input in place")
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), including the clamped small-sample cases.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3.5, 1.25}, 0.6875, 4.0625},
		{[]float64{7, 1, 3}, 1, 7},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110}, 30, 90},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got, want := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-9 {
		t.Errorf("spread = %g, want %g", got, want)
	}
}
