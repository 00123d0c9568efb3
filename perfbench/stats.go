package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// the samples: the smallest value with at least p% of the samples at or
// below it. The samples are sorted in place.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	sort.Float64s(samples)
	rank := int(math.Ceil(p / 100 * float64(len(samples))))
	if rank < 1 {
		rank = 1
	}
	return samples[rank-1]
}

// beyond counts the samples strictly above the nearest-rank p-th
// percentile position. A percentile is reported only when at least
// minTail samples lie beyond it.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

// minTail is the number of samples that must lie beyond a reported tail
// percentile.
const minTail = 10

// blockRate is the median event rate, in events per second, over
// consecutive blocks of block events, given the events' completion times;
// 0 when not even one block completed.
func blockRate(ends []time.Duration, block int) float64 {
	ends = append([]time.Duration(nil), ends...)
	sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
	nb := (len(ends) - 1) / block
	if nb < 1 {
		return 0
	}
	rates := make([]float64, nb)
	for b := 0; b < nb; b++ {
		rates[b] = float64(block) / (ends[(b+1)*block] - ends[b*block]).Seconds()
	}
	return median(rates)
}

// median of a copy of xs.
func median(xs []float64) float64 {
	return percentile(append([]float64(nil), xs...), 50)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
