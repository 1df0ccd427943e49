package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie above a reported percentile.
const minTail = 10

// minSamples is the smallest sample count for which the q-quantile has
// minTail samples beyond it.
func minSamples(q float64) float64 {
	return math.Ceil(minTail/(1-q) - 1e-9)
}

// percentile returns the exact q-quantile of samples by nearest rank over
// the sorted raw values, and an error when fewer than minTail samples lie
// beyond it. samples is sorted in place.
func percentile(samples []float64, q float64) (float64, error) {
	n := len(samples)
	if n == 0 {
		return 0, fmt.Errorf("no samples")
	}
	sort.Float64s(samples)
	rank := int(math.Ceil(q*float64(n) - 1e-9)) // tolerate q·n landing a hair above an integer
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minTail && q > 0.5 {
		return 0, fmt.Errorf("p%g of %d samples has only %d beyond it (need %d)", q*100, n, beyond, minTail)
	}
	return samples[rank-1], nil
}

// median is percentile(samples, 0.5) for samples that are allowed to be
// empty (0 then means the layer did no such work).
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	v, _ := percentile(samples, 0.5) // the median needs no tail
	return v
}
