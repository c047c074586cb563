package main

import (
	"math"
	"testing"
)

func TestPercentile(t *testing.T) {
	xs := []float64{40, 10, 30, 20} // unsorted on purpose
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 10}, {1, 40}, {0.5, 25}, {0.25, 17.5}, {0.75, 32.5},
		{1.0 / 3, 20}, // lands exactly on a sample
		{-1, 10}, {2, 40},
	}
	for _, c := range cases {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if xs[0] != 40 {
		t.Errorf("percentile sorted its input in place: %v", xs)
	}
	if got := percentile([]float64{7}, 0.9); got != 7 {
		t.Errorf("single sample: got %v, want 7", got)
	}
	if got := percentile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("empty sample: got %v, want NaN", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of odd sample: got %v, want 2", got)
	}
}

func TestRatioAndOrZero(t *testing.T) {
	if got := ratio(6, 3); got != 2 {
		t.Errorf("ratio(6,3) = %v", got)
	}
	if got := ratio(6, 0); got != 0 {
		t.Errorf("ratio with empty denominator = %v, want 0", got)
	}
	if got := orZero(math.NaN()); got != 0 {
		t.Errorf("orZero(NaN) = %v", got)
	}
	if got := orZero(1.5); got != 1.5 {
		t.Errorf("orZero(1.5) = %v", got)
	}
}
