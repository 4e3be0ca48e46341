package obs

import (
	"math/bits"
	"sync/atomic"
)

// NumBuckets is the number of log2 histogram buckets: bucket i counts
// observations with ceil(log2(ns)) == i, saturating at the top, so the
// range spans 1ns through ~68s.  The server's per-endpoint latency and
// per-stage histograms share it, so their distributions compare directly.
const NumBuckets = 37

// Histogram is a lock-free log2 latency histogram.  The zero value is
// ready to use; Observe is wait-free (three atomic adds).
type Histogram struct {
	buckets [NumBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64
}

// Observe records one duration in nanoseconds (non-positive values
// count in the first bucket with zero sum contribution).
func (h *Histogram) Observe(ns int64) {
	i := 0
	if ns > 1 {
		i = bits.Len64(uint64(ns) - 1)
	}
	if i >= NumBuckets {
		i = NumBuckets - 1
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	if ns > 0 {
		h.sum.Add(uint64(ns))
	}
}

// HistogramSnapshot is a point-in-time copy of a Histogram.
type HistogramSnapshot struct {
	Buckets [NumBuckets]uint64
	Count   uint64
	SumNs   uint64
}

// Snapshot copies the histogram's counters.  Buckets are read without
// a global lock, so a snapshot taken during concurrent observes may be
// torn by at most the in-flight observations — fine for scraping.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	s.Count = h.count.Load()
	s.SumNs = h.sum.Load()
	return s
}

// BucketUpperNs returns bucket i's inclusive upper bound in
// nanoseconds (2^i).
func BucketUpperNs(i int) uint64 { return 1 << uint(i) }

// Quantile returns the upper bound in nanoseconds of the bucket that
// holds the q-quantile (0 for an empty snapshot): at most a factor-2
// overestimate.  The rank is taken over the bucket counts themselves,
// so a snapshot torn by in-flight observations still resolves within
// its buckets.
func (s HistogramSnapshot) Quantile(q float64) uint64 {
	var total uint64
	for _, c := range s.Buckets {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := uint64(q * float64(total))
	if target < 1 {
		target = 1
	}
	var cum uint64
	for i, c := range s.Buckets {
		cum += c
		if cum >= target {
			return BucketUpperNs(i)
		}
	}
	return BucketUpperNs(NumBuckets - 1)
}
