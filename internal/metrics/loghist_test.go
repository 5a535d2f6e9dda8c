package metrics

import (
	"encoding/binary"
	"math"
	"sort"
	"testing"

	"es2/internal/sim"
)

func TestLogHistogramExactSmallValues(t *testing.T) {
	h := NewLogHistogram()
	for v := sim.Time(0); v < 128; v++ {
		h.Observe(v)
	}
	if h.Count() != 128 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Min() != 0 || h.Max() != 127 {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
	// Below the sub-bucket count every value has its own bucket, so
	// quantiles are exact.
	if got := h.Quantile(0.5); got != 63 {
		t.Fatalf("p50 = %v, want 63", got)
	}
	if got := h.Quantile(1); got != 127 {
		t.Fatalf("p100 = %v, want 127", got)
	}
}

func TestLogHistogramMeanSumExact(t *testing.T) {
	h := NewLogHistogram()
	var sum sim.Time
	for i := 0; i < 1000; i++ {
		v := sim.Time(i*i*7 + 13)
		h.Observe(v)
		sum += v
	}
	if h.Sum() != sum {
		t.Fatalf("sum = %v, want %v", h.Sum(), sum)
	}
	want := sim.Time(float64(sum) / 1000)
	if h.Mean() != want {
		t.Fatalf("mean = %v, want %v", h.Mean(), want)
	}
}

// TestLogHistogramQuantileError checks the advertised bound: every
// quantile is within 1% relative error of the exact order statistic.
func TestLogHistogramQuantileError(t *testing.T) {
	h := NewLogHistogram()
	rng := sim.NewRand(42)
	var all []sim.Time
	for i := 0; i < 50000; i++ {
		// Spread over six decades, as simulated latencies are.
		v := sim.Time(1 + rng.Uint64()%uint64(math.Pow10(1+i%6)))
		h.Observe(v)
		all = append(all, v)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		idx := int(math.Ceil(q*float64(len(all)))) - 1
		exact := float64(all[idx])
		got := float64(h.Quantile(q))
		if relErr := math.Abs(got-exact) / exact; relErr > 0.01 {
			t.Errorf("q=%v: got %v exact %v relerr %.4f", q, got, exact, relErr)
		}
	}
	if h.Quantile(1) != all[len(all)-1] {
		t.Errorf("p100 = %v, want exact max %v", h.Quantile(1), all[len(all)-1])
	}
	if h.Quantile(0) != all[0] {
		t.Errorf("p0 = %v, want exact min %v", h.Quantile(0), all[0])
	}
}

func TestLogHistogramBucketsAndReset(t *testing.T) {
	h := NewLogHistogram()
	for i := 0; i < 1000; i++ {
		h.Observe(sim.Time(i * 37))
	}
	var n uint64
	last := sim.Time(-1)
	h.Buckets(func(upper sim.Time, count uint64) {
		if upper <= last {
			t.Fatalf("bucket uppers not ascending: %v after %v", upper, last)
		}
		last = upper
		n += count
	})
	if n != h.Count() {
		t.Fatalf("bucket counts sum to %d, count is %d", n, h.Count())
	}
	h.Reset()
	if h.Count() != 0 || h.Sum() != 0 || h.Max() != 0 {
		t.Fatalf("reset left state: %v", h.Summary())
	}
	h.Buckets(func(sim.Time, uint64) { t.Fatal("reset left buckets") })
}

func TestLogBucketIndexCoversInt64(t *testing.T) {
	// Every power of two up to 2^62 must map inside the bucket array,
	// and bounds must tile contiguously.
	for e := 0; e <= 62; e++ {
		v := sim.Time(1) << e
		idx := logBucketIndex(v)
		if idx < 0 || idx >= logNumBuckets {
			t.Fatalf("2^%d: index %d out of range", e, idx)
		}
		low, width := logBucketBounds(idx)
		if v < low || v >= low+width {
			t.Fatalf("2^%d: not inside its bucket [%d,%d)", e, low, low+width)
		}
	}
}

// denseHist is the reference for FuzzLogHistogram: the histogram as one
// array of every bucket, read by plain scans.
type denseHist struct {
	counts   [logNumBuckets]uint64
	count    uint64
	sum      sim.Time
	min, max sim.Time
}

func (r *denseHist) observe(d sim.Time) {
	r.count++
	r.sum += d
	if r.count == 1 || d < r.min {
		r.min = d
	}
	if r.count == 1 || d > r.max {
		r.max = d
	}
	r.counts[logBucketIndex(max(d, 0))]++
}

func (r *denseHist) quantile(q float64) sim.Time {
	switch {
	case r.count == 0:
		return 0
	case q <= 0:
		return r.min
	case q >= 1:
		return r.max
	}
	rank := max(uint64(math.Ceil(q*float64(r.count))), 1)
	var cum uint64
	for i, c := range r.counts {
		if cum += c; c > 0 && cum >= rank {
			low, width := logBucketBounds(i)
			return min(max(low+width/2, r.min), r.max)
		}
	}
	return r.max
}

func (r *denseHist) countAbove(threshold sim.Time) uint64 {
	switch {
	case r.count == 0:
		return 0
	case threshold < 0:
		return r.count
	case threshold >= r.max:
		return 0
	}
	var n uint64
	for _, c := range r.counts[logBucketIndex(threshold)+1:] {
		n += c
	}
	return n
}

// The op codes of FuzzLogHistogram's input. An op byte is taken mod
// numHistOps; Observe and CountAbove read a value after it, Quantile a
// q.
const (
	histObserve    = 0 // and 1, 2
	histReset      = 3
	histQuantile   = 4
	histCountAbove = 5
	histBuckets    = 6
	numHistOps     = 7
)

// checkBuckets compares h's Buckets listing with every non-empty bucket
// of ref.
func checkBuckets(t *testing.T, step int, h *LogHistogram, ref *denseHist) {
	t.Helper()
	i := 0
	h.Buckets(func(upper sim.Time, c uint64) {
		for i < logNumBuckets && ref.counts[i] == 0 {
			i++
		}
		if i == logNumBuckets {
			t.Fatalf("step %d: bucket below %d holds %d, reference has no more buckets", step, upper, c)
		}
		low, width := logBucketBounds(i)
		if upper != low+width || c != ref.counts[i] {
			t.Fatalf("step %d: bucket below %d holds %d, want below %d holding %d", step, upper, c, low+width, ref.counts[i])
		}
		i++
	})
	for ; i < logNumBuckets; i++ {
		if ref.counts[i] != 0 {
			t.Fatalf("step %d: Buckets missed bucket %d holding %d", step, i, ref.counts[i])
		}
	}
}

// fuzzValue decodes a value from in: a selector byte picks an int64
// extreme, zero, or a little-endian int64 from the next eight bytes
// shifted right by a selector-chosen amount, so that values spread over
// every octave, negative ones included. It returns the bytes left.
func fuzzValue(in []byte) (sim.Time, []byte) {
	if len(in) == 0 {
		return 0, in
	}
	sel, in := in[0], in[1:]
	switch sel % 8 {
	case 0:
		return math.MinInt64, in
	case 1:
		return math.MaxInt64, in
	case 2:
		return 0, in
	}
	var raw [8]byte
	n := copy(raw[:], in)
	v := int64(binary.LittleEndian.Uint64(raw[:]))
	return sim.Time(v >> (sel / 4 % 64)), in[n:]
}

// FuzzLogHistogram drives the per-octave histogram and a dense
// reference with one stream of Observe, Reset, Quantile, CountAbove and
// Buckets ops. Every query must agree with the reference, and after
// every op so must Count, Sum, Min, Max and Mean. A block is allocated
// only once a value has landed in it.
func FuzzLogHistogram(f *testing.F) {
	f.Add([]byte{})
	// Extremes of both signs, then every query.
	f.Add([]byte{0, 0, 1, 1, 2, 2, 4, 128, 5, 255, 6, 2, 6, 0, 6, 1})
	// Values across octaves, a window reset, then the same again.
	f.Add([]byte{0, 11, 1, 2, 3, 4, 5, 6, 7, 8, 1, 200, 9, 9, 9, 9, 9, 9, 9, 9,
		2, 119, 0, 0, 0, 0, 0, 0, 8, 4, 100, 3, 0, 51, 7, 7, 7, 7, 7, 7, 7, 7, 4, 250, 6, 250, 1, 2, 3, 4, 5, 6, 7, 8})
	// Values packed into a few buckets of two octaves and of the exact
	// region, with thresholds on, between and just below them, so
	// that CountAbove starts inside a populated block.
	var packed []byte
	exact := func(op byte, v sim.Time) { // selector 3: v unshifted
		packed = append(packed, op, 3)
		packed = binary.LittleEndian.AppendUint64(packed, uint64(v))
	}
	for _, v := range []sim.Time{5, 6, 1000, 1008, 1016, 1024, 1031, 70000} {
		exact(histObserve, v)
	}
	for _, thr := range []sim.Time{4, 5, 127, 999, 1000, 1007, 1015, 1023, 1030, 69999} {
		exact(histCountAbove, thr)
	}
	packed = append(packed, histQuantile, 128, histBuckets, histReset)
	exact(histObserve, 1008)
	exact(histCountAbove, 1000)
	f.Add(packed)
	r := sim.NewRand(7)
	long := make([]byte, 1024)
	for i := range long {
		long[i] = byte(r.Intn(256))
	}
	f.Add(long)

	f.Fuzz(func(t *testing.T, in []byte) {
		h := NewLogHistogram()
		ref := new(denseHist)
		var touched [logNumBlocks]bool // blocks a value has landed in
		for step := 0; len(in) > 0; step++ {
			op := in[0] % numHistOps
			in = in[1:]
			switch op {
			case histObserve, histObserve + 1, histObserve + 2:
				var v sim.Time
				v, in = fuzzValue(in)
				h.Observe(v)
				ref.observe(v)
				touched[logBucketIndex(max(v, 0))>>logSubBits] = true
			case histReset:
				h.Reset()
				*ref = denseHist{}
			case histBuckets:
				checkBuckets(t, step, h, ref)
			case histQuantile:
				var b byte
				if len(in) > 0 {
					b, in = in[0], in[1:]
				}
				q := float64(int(b)-8) / 239 // a little below 0 to a little above 1
				if got, want := h.Quantile(q), ref.quantile(q); got != want {
					t.Fatalf("step %d: Quantile(%v) = %d, want %d", step, q, got, want)
				}
			case histCountAbove:
				var thr sim.Time
				thr, in = fuzzValue(in)
				if got, want := h.CountAbove(thr), ref.countAbove(thr); got != want {
					t.Fatalf("step %d: CountAbove(%d) = %d, want %d", step, thr, got, want)
				}
			}
			if h.Count() != ref.count || h.Sum() != ref.sum || h.Min() != ref.min || h.Max() != ref.max {
				t.Fatalf("step %d: count/sum/min/max = %d/%d/%d/%d, want %d/%d/%d/%d", step,
					h.Count(), h.Sum(), h.Min(), h.Max(), ref.count, ref.sum, ref.min, ref.max)
			}
			if ref.count > 0 && h.Mean() != sim.Time(float64(ref.sum)/float64(ref.count)) {
				t.Fatalf("step %d: Mean = %d", step, h.Mean())
			}
			for b := range touched {
				if allocated := h.blocks != nil && h.blocks[b] != nil; allocated != touched[b] {
					t.Fatalf("step %d: block %d allocated %t, touched %t", step, b, allocated, touched[b])
				}
			}
		}
		checkBuckets(t, -1, h, ref)
	})
}
