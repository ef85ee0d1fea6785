package main

import "math/bits"

// subBits sets the histogram's precision: 2^subBits buckets per power
// of two, so a recorded value is off by at most 1/128 (0.8%).
const subBits = 7

// hist is a log-linear histogram of non-negative nanosecond values in
// constant memory (32 KiB), so recording a run's latencies does not
// grow the heap with the run's length and change how often the
// program garbage-collects.
type hist struct {
	n int64
	b [64 << subBits]uint32
}

func bucketOf(v int64) int {
	if v < 1<<subBits {
		return int(max(v, 0))
	}
	shift := bits.Len64(uint64(v)) - subBits - 1
	return (shift+1)<<subBits + int(v>>shift) - 1<<subBits
}

// bucketRange is the value range [lo, hi) bucket i holds.
func bucketRange(i int) (lo, hi float64) {
	if i < 1<<subBits {
		return float64(i), float64(i + 1)
	}
	shift := i>>subBits - 1
	l := int64(i&(1<<subBits-1)+1<<subBits) << shift
	return float64(l), float64(l + int64(1)<<shift)
}

func (h *hist) add(v int64) {
	h.b[bucketOf(v)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	h.n += o.n
	for i, c := range o.b {
		h.b[i] += c
	}
}

// quantile returns the q-quantile, interpolated linearly by rank
// within its bucket; 0 when empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := max(1, q*float64(h.n))
	var seen float64
	for i, c := range h.b {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, hi := bucketRange(i)
			return lo + (hi-lo)*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	lo, _ := bucketRange(len(h.b) - 1)
	return lo
}
