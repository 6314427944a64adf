package main

import (
	"cmp"
	"math"
	"slices"
	"time"
)

// percentile returns the exact q-quantile (0 < q <= 1) of the samples by the
// nearest-rank rule: the smallest sample with at least q of the samples at
// or below it. No interpolation and no buckets, so the value is always one
// that was measured. It sorts samples in place and returns 0 for none.
func percentile[T cmp.Ordered](samples []T, q float64) T {
	if len(samples) == 0 {
		var zero T
		return zero
	}
	slices.Sort(samples)
	rank := int(math.Ceil(q * float64(len(samples))))
	if rank < 1 {
		rank = 1
	}
	return samples[rank-1]
}

// median is the middle sample, or the mean of the middle two.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := slices.Clone(samples)
	slices.Sort(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// trimmedMean is the mean of the samples left when the lowest and the
// highest trim share of them are dropped. Unlike a single quantile it moves
// in proportion when a distribution with two modes shifts weight from one to
// the other, and unlike the mean it ignores the tails. It sorts samples in
// place and returns 0 for none.
func trimmedMean(samples []float64, trim float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	slices.Sort(samples)
	drop := int(trim * float64(len(samples)))
	kept := samples[drop : len(samples)-drop]
	sum := 0.0
	for _, v := range kept {
		sum += v
	}
	return sum / float64(len(kept))
}

// minPool is how many samples a gated latency figure draws on at least: a
// durable-pair run completes some 700 ops a second, and the median over the
// hundred or so beats of its best twentieth spread by 8-14 % over ten runs
// on a busy host, against 3-8 % over four hundred (README.md, "Noise").
const minPool = 400

// minSamples is how many samples a q-quantile is taken over at least:
// minPool, and at least ten beyond the quantile.
func minSamples(q float64) int {
	return max(minPool, int(math.Round(10/(1-q))))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// durationsMS converts latencies to float milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
