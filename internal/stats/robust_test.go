package stats

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1}, 2},
		{[]float64{9, 1, 5}, 5},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{1, 1, 1, 100}, 1},
	}
	for _, c := range cases {
		if got := Median(c.in); got != c.want {
			t.Errorf("Median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	// Median must not mutate its argument.
	in := []float64{3, 1, 2}
	Median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("Median mutated its input: %v", in)
	}
}

func TestMAD(t *testing.T) {
	if got := MAD([]float64{1, 1, 1, 1}); got != 0 {
		t.Errorf("MAD of constant sample = %v, want 0", got)
	}
	// {1,2,3,4,5}: median 3, deviations {2,1,0,1,2}, MAD 1.
	if got := MAD([]float64{1, 2, 3, 4, 5}); got != 1 {
		t.Errorf("MAD = %v, want 1", got)
	}
	// A single far outlier barely moves the MAD.
	if got := MAD([]float64{1, 2, 3, 4, 1e6}); got > 2 {
		t.Errorf("MAD with outlier = %v, want <= 2", got)
	}
}

// TestSignTestTail pins the sign-test tail against exact binomial
// values: the counts the perfgate needs at its default and nightly pair
// counts, and the degenerate ends.
func TestSignTestTail(t *testing.T) {
	cases := []struct {
		k, n int
		want float64
	}{
		{5, 5, 1.0 / 32},     // every pair of five: the default gate's only firing count
		{4, 5, 6.0 / 32},     // C(5,4)+C(5,5)
		{9, 10, 11.0 / 1024}, // C(10,9)+C(10,10): fires at ten pairs
		{8, 10, 56.0 / 1024}, // 45+10+1: just misses 0.05
		{10, 10, 1.0 / 1024},
		{0, 5, 1},
		{0, 10, 1},
		{6, 5, 0},
		{25, 50, 0.5 + 0.5*126410606437752.0/1125899906842624.0}, // P(X>=25) = (1+P(X=25))/2
	}
	for _, c := range cases {
		if got := SignTestTail(c.k, c.n); math.Abs(got-c.want) > 1e-15 {
			t.Errorf("SignTestTail(%d, %d) = %v, want %v", c.k, c.n, got, c.want)
		}
	}
	// The gate's decision points at alpha 0.05.
	if SignTestTail(5, 5) >= 0.05 || SignTestTail(9, 10) >= 0.05 || SignTestTail(8, 10) < 0.05 || SignTestTail(4, 5) < 0.05 {
		t.Error("sign-test tail puts the 0.05 cut in the wrong place for 5 or 10 pairs")
	}
}
