package main

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// TestQuantilesExact checks the percentiles of known sample sets: every
// reported value must be the nearest-rank sample, with no bucketing.
func TestQuantilesExact(t *testing.T) {
	for _, tc := range []struct {
		n           int
		p50, p99    int64
		shuffleSeed uint64
		wantN       int
	}{
		{n: 1, p50: 1, p99: 1},
		{n: 2, p50: 1, p99: 2},
		{n: 100, p50: 50, p99: 99},
		{n: 101, p50: 51, p99: 100},
		{n: 1000, p50: 500, p99: 990},
		{n: 12345, p50: 6173, p99: 12222},
	} {
		s := make([]int64, tc.n)
		for i := range s {
			s[i] = int64(i + 1)
		}
		rand.New(rand.NewPCG(uint64(tc.n), 7)).Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
		d := summarize(s)
		if d.n != tc.n || d.p50 != tc.p50 || d.p99 != tc.p99 {
			t.Errorf("n=%d: got n=%d p50=%d p99=%d, want p50=%d p99=%d", tc.n, d.n, d.p50, d.p99, tc.p50, tc.p99)
		}
	}
	if d := summarize(nil); d.n != 0 || d.p50 != 0 || d.p99 != 0 {
		t.Errorf("empty set: %+v", d)
	}
}

// TestQuantileMatchesDefinition compares against the nearest-rank
// definition on random data with duplicates: at least a fraction q of
// the samples are <= the result, and fewer than q are < it.
func TestQuantileMatchesDefinition(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 200; trial++ {
		s := make([]int64, 1+r.IntN(500))
		for i := range s {
			s[i] = r.Int64N(50)
		}
		slices.Sort(s)
		for _, q := range []float64{0.5, 0.9, 0.99} {
			v := quantile(s, q)
			le, lt := 0, 0
			for _, x := range s {
				if x <= v {
					le++
				}
				if x < v {
					lt++
				}
			}
			if float64(le) < q*float64(len(s)) || float64(lt) >= q*float64(len(s)) {
				t.Fatalf("q=%v of %v = %d: %d <=, %d <", q, s, v, le, lt)
			}
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
}
