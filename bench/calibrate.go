package main

import "time"

// Machine-speed calibration. On a shared 2-vCPU box the speed of one
// vCPU swings by up to 2x within seconds as neighbours come and go, so
// raw host times of the same pass differ by 20% or more between runs.
// Every timed region is therefore bracketed by bursts of a fixed
// reference workload and reported scaled to the speed at which one
// reference event takes refNsPerEvent. The reference is this file's own
// frozen code, independent of the simulator, so it runs at the same
// speed on every commit and a faster simulator still reads faster. It
// allocates nothing: a burst that triggered the GC would measure the
// collector's timing instead of the machine's speed.

// refNsPerEvent is the nominal cost of one reference event: about what
// it costs on an uncontended 2.1 GHz Xeon vCPU.
const refNsPerEvent = 300

// Reference burst sizes: passBurst brackets each scenario of a timed
// pass, setupBurst each (much shorter) set-up build.
const (
	passBurst  = 100_000
	setupBurst = 10_000
)

// refItem is one event of the reference loop's queue.
type refItem struct {
	at  int64
	seq uint64
}

// refLoop is a discrete-event loop in miniature: a binary heap of
// indexes into a fixed event pool, each fired event rescheduled at a
// pseudo-random delay and charged to a 2 MB table, so a burst exercises
// branches, caches and memory like the simulator's event loop does.
type refLoop struct {
	pool  []refItem
	heap  []int32
	table []int64
	x     uint64
	seq   uint64
}

// reference is the one loop every burst continues, so bursts measure a
// steady state rather than the loop's set-up.
var reference = newRefLoop()

func newRefLoop() *refLoop {
	r := &refLoop{pool: make([]refItem, 1<<14), heap: make([]int32, 0, 1<<14),
		table: make([]int64, 1<<18), x: 0x9E3779B97F4A7C15}
	for i := range r.pool {
		r.pool[i] = refItem{at: r.delay(), seq: r.nextSeq()}
		r.push(int32(i))
	}
	return r
}

func (r *refLoop) delay() int64 {
	r.x ^= r.x << 13
	r.x ^= r.x >> 7
	r.x ^= r.x << 17
	return 1 + int64(r.x%(1<<15))
}

func (r *refLoop) nextSeq() uint64 { r.seq++; return r.seq }

func (r *refLoop) less(a, b int32) bool {
	x, y := &r.pool[a], &r.pool[b]
	if x.at != y.at {
		return x.at < y.at
	}
	return x.seq < y.seq
}

func (r *refLoop) push(i int32) {
	r.heap = append(r.heap, i)
	for j := len(r.heap) - 1; j > 0; {
		p := (j - 1) / 2
		if !r.less(r.heap[j], r.heap[p]) {
			break
		}
		r.heap[j], r.heap[p] = r.heap[p], r.heap[j]
		j = p
	}
}

func (r *refLoop) pop() int32 {
	top := r.heap[0]
	n := len(r.heap) - 1
	r.heap[0] = r.heap[n]
	r.heap = r.heap[:n]
	for j := 0; ; {
		m := 2*j + 1
		if m >= n {
			break
		}
		if k := m + 1; k < n && r.less(r.heap[k], r.heap[m]) {
			m = k
		}
		if !r.less(r.heap[m], r.heap[j]) {
			break
		}
		r.heap[j], r.heap[m] = r.heap[m], r.heap[j]
		j = m
	}
	return top
}

// slowdown fires n reference events and returns how much slower than
// nominal they ran.
func slowdown(n int) float64 {
	r := reference
	start := time.Now()
	for k := 0; k < n; k++ {
		i := r.pop()
		now := r.pool[i].at
		r.table[r.x%uint64(len(r.table))] += now
		r.pool[i] = refItem{at: now + r.delay(), seq: r.nextSeq()}
		r.push(i)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n*refNsPerEvent)
}
