package main

import (
	"math"
	"slices"
	"time"
)

// clockBase anchors every timestamp the benchmark records: the
// generator's send and receive instants and the tracing wrapper's spans
// all read the same monotonic clock, so cross-layer differences (request
// transit, ack transit) are plain subtractions.
var clockBase = time.Now()

// now returns monotonic nanoseconds since clockBase.
func now() int64 { return int64(time.Since(clockBase)) }

// quantile returns the exact nearest-rank q-quantile of sorted: the
// smallest sample with at least a fraction q of all samples at or below
// it. No interpolation and no bucketing, so a reported percentile is
// always one of the measured samples.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// dist summarizes one latency (or duration) sample set.
type dist struct {
	n        int
	p50, p99 int64
}

// summarize sorts samples in place and returns their exact median and
// 99th percentile together with the sample count.
func summarize(samples []int64) dist {
	slices.Sort(samples)
	return dist{n: len(samples), p50: quantile(samples, 0.50), p99: quantile(samples, 0.99)}
}

// us converts nanoseconds to microseconds.
func us(ns int64) float64 { return float64(ns) / 1e3 }

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// median returns the median of xs (the mean of the middle pair for an
// even count); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}
