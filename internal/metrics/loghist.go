package metrics

import (
	"fmt"
	"math"
	"math/bits"

	"es2/internal/sim"
)

// Log-bucket geometry. Values below subCount land in exact unit-wide
// buckets; above, each power of two is split into subCount linear
// sub-buckets, so the relative bucket width — and therefore the worst
// quantile error — is bounded by 1/subCount (< 0.8%).
const (
	logSubBits  = 7
	logSubCount = 1 << logSubBits
	// logNumBlocks covers every non-negative int64: the exact region,
	// plus one block of logSubCount sub-buckets for each exponent
	// logSubBits..62. Bucket i lives in block i>>logSubBits.
	logNumBlocks  = 62 - logSubBits + 2
	logNumBuckets = logNumBlocks * logSubCount
)

// logBlock holds one octave's sub-bucket counts (the exact region's
// unit buckets for block 0).
type logBlock [logSubCount]uint64

// LogHistogram is an HDR-style log-bucketed latency histogram: O(1)
// insertion, exact count/sum/min/max (hence exact Mean), and quantiles
// within the bucket's relative error bound (< 1%). Its memory follows
// the range of values seen, not the sample count: each octave's block
// of 128 buckets (1KB) is allocated when a value first lands in it, so
// latencies from 1µs to 10ms touch 15 blocks of the 57. It is the
// simulator's one latency histogram: workload request
// latencies, the event-path probe's per-stage spectra, the telemetry
// latency spectra and their OpenMetrics exposition all use it.
type LogHistogram struct {
	blocks   *[logNumBlocks]*logBlock // allocated on first Observe
	count    uint64
	sum      sim.Time
	min, max sim.Time
}

// NewLogHistogram returns an empty log-bucketed histogram.
func NewLogHistogram() *LogHistogram { return &LogHistogram{} }

// logBucketIndex maps a non-negative value to its bucket.
func logBucketIndex(v sim.Time) int {
	if v < logSubCount {
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1 // 2^e <= v < 2^(e+1), e >= logSubBits
	shift := uint(e - logSubBits)
	return (e-logSubBits+1)*logSubCount + int(uint64(v)>>shift) - logSubCount
}

// logBucketBounds returns a bucket's [low, low+width) range.
func logBucketBounds(idx int) (low, width sim.Time) {
	if idx < logSubCount {
		return sim.Time(idx), 1
	}
	block := idx >> logSubBits // >= 1
	sub := idx & (logSubCount - 1)
	shift := uint(block - 1)
	return sim.Time(uint64(logSubCount+sub) << shift), sim.Time(uint64(1) << shift)
}

// Observe records one duration. Negative durations (which the
// simulator never produces) are clamped into the zero bucket but enter
// sum/min/max exactly.
func (h *LogHistogram) Observe(d sim.Time) {
	h.count++
	h.sum += d
	if h.count == 1 || d < h.min {
		h.min = d
	}
	if h.count == 1 || d > h.max {
		h.max = d
	}
	i := logBucketIndex(max(d, 0))
	if h.blocks == nil {
		h.blocks = new([logNumBlocks]*logBlock)
	}
	b := h.blocks[i>>logSubBits]
	if b == nil {
		b = new(logBlock)
		h.blocks[i>>logSubBits] = b
	}
	b[i&(logSubCount-1)]++
}

// Count returns the number of observations.
func (h *LogHistogram) Count() uint64 { return h.count }

// Sum returns the exact sum of all observations.
func (h *LogHistogram) Sum() sim.Time { return h.sum }

// Mean returns the exact mean of all observations (0 when empty).
func (h *LogHistogram) Mean() sim.Time {
	if h.count == 0 {
		return 0
	}
	return sim.Time(float64(h.sum) / float64(h.count))
}

// Min returns the smallest observation (0 when empty).
func (h *LogHistogram) Min() sim.Time { return h.min }

// Max returns the largest observation (0 when empty).
func (h *LogHistogram) Max() sim.Time { return h.max }

// Reset discards all observations (used at measurement-window
// boundaries). The allocated blocks are kept, zeroed.
func (h *LogHistogram) Reset() {
	if h.blocks != nil {
		for _, b := range h.blocks {
			if b != nil {
				*b = logBlock{}
			}
		}
	}
	h.count, h.sum, h.min, h.max = 0, 0, 0, 0
}

// Quantile returns the q-quantile (0 <= q <= 1). The result is the
// midpoint of the bucket holding the rank, clamped into [Min, Max], so
// the relative error is bounded by the bucket width (< 1%).
func (h *LogHistogram) Quantile(q float64) sim.Time {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := uint64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for bi, b := range h.blocks { // allocated: count > 0
		if b == nil {
			continue
		}
		for sub, c := range b {
			if c == 0 {
				continue
			}
			cum += c
			if cum >= rank {
				low, width := logBucketBounds(bi<<logSubBits | sub)
				return min(max(low+width/2, h.min), h.max)
			}
		}
	}
	return h.max
}

// CountAbove returns the number of observations strictly above
// threshold, at bucket resolution: the bucket straddling the
// threshold counts as below, so the result errs low by at most the
// bucket's relative width (< 1%). Backs latency SLOs (bad = requests
// slower than the objective threshold).
func (h *LogHistogram) CountAbove(threshold sim.Time) uint64 {
	if h.count == 0 {
		return 0
	}
	if threshold < 0 {
		return h.count
	}
	if threshold >= h.max {
		return 0
	}
	first := logBucketIndex(threshold) + 1
	var n uint64
	for bi := first >> logSubBits; bi < logNumBlocks; bi++ {
		b := h.blocks[bi]
		if b == nil {
			continue
		}
		from := 0
		if bi == first>>logSubBits {
			from = first & (logSubCount - 1)
		}
		for _, c := range b[from:] {
			n += c
		}
	}
	return n
}

// Buckets calls fn for every non-empty bucket in ascending order with
// the bucket's exclusive upper bound and count. Used for histogram
// exposition.
func (h *LogHistogram) Buckets(fn func(upper sim.Time, count uint64)) {
	if h.blocks == nil {
		return
	}
	for bi, b := range h.blocks {
		if b == nil {
			continue
		}
		for sub, c := range b {
			if c == 0 {
				continue
			}
			low, width := logBucketBounds(bi<<logSubBits | sub)
			fn(low+width, c)
		}
	}
}

// Summary formats count/mean/p50/p99/max for reports.
func (h *LogHistogram) Summary() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v max=%v",
		h.count, h.Mean(), h.Quantile(0.5), h.Quantile(0.99), h.max)
}
