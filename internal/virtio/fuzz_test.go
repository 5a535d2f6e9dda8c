package virtio

import (
	"testing"

	"es2/internal/metrics"
	"es2/internal/netsim"
	"es2/internal/sim"
)

// The operations FuzzVirtqueue drives, one per input byte: the byte
// modulo numVQOps picks the operation, and the byte divided by
// numVQOps is its argument.
const (
	vqAdd = iota
	vqAddBlank
	vqPop
	vqPushUsed
	vqPopUsed
	vqReclaim
	vqCollect
	vqKick
	vqSignal
	vqProbe
	numVQOps
)

// vqRef is a descriptor of the reference: id 0 is a blank buffer, and
// t is when the driver posted it.
type vqRef struct {
	id int
	t  sim.Time
}

// refused reports whether op panicked.
func refused(op func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	op()
	return false
}

// FuzzVirtqueue drives a virtqueue's driver and device operations
// against a reference of plain slices: the avail ring, the descriptors
// the device holds and the used ring. Filled descriptor i carries
// length i and its own packet, and the device fills each blank buffer
// it completes with the next id, as the RX back-end copies a packet
// in. After every operation it checks the order of what comes out, the
// queue's lengths, Free and Full, its counters and CheckInvariants,
// and, once a residency probe is installed, that each Pop observes
// exactly its own descriptor's Pop − Add on a fake clock that moves on
// every operation. The first input byte picks the ring size, 1 to 8.
func FuzzVirtqueue(f *testing.F) {
	f.Add([]byte{})
	// A probed queue: three adds at different instants, pops in between
	// and after, completion and a counting reclaim of two.
	f.Add([]byte{7, vqProbe, vqAdd, vqAdd, vqAdd, vqPop, vqAdd, vqPop, vqPop,
		vqPushUsed, vqPushUsed, vqReclaim, vqPop, vqPushUsed, vqPushUsed, vqPopUsed, vqReclaim})
	// Blank buffers reposted as an RX driver does: fill, pop, complete,
	// read in place, repost, with a refused filled add and probe.
	f.Add([]byte{3, vqAddBlank + 3*numVQOps, vqAdd, vqProbe, vqPop, vqPop, vqPushUsed, vqPushUsed,
		vqPopUsed, vqAddBlank + 2*numVQOps, vqPop, vqPushUsed + numVQOps, vqCollect + numVQOps, vqCollect,
		vqPop, vqPop, vqPop, vqPushUsed, vqPushUsed, vqPushUsed, vqReclaim, vqProbe, vqAdd, vqPop})
	// Kick and signal suppression toggled around a full ring, a
	// PushUsed with nothing popped, and batches of every size.
	f.Add([]byte{1, vqKick, vqKick + numVQOps, vqKick, vqSignal + numVQOps, vqSignal, vqSignal + 2*numVQOps,
		vqAdd, vqAdd, vqAddBlank + 4*numVQOps, vqPushUsed, vqPop, vqPushUsed, vqCollect + 2*numVQOps,
		vqAdd, vqPop, vqPushUsed, vqReclaim, vqProbe, vqAdd, vqPop, vqPushUsed, vqCollect})
	r := sim.NewRand(1)
	long := make([]byte, 512)
	for i := range long {
		long[i] = byte(r.Intn(256))
	}
	f.Add(long)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		size := 1 + int(data[0]%8)
		q := New("fuzz", size)
		var clock sim.Time
		now := func() sim.Time { return clock }
		var (
			avail, device, used []vqRef
			pkts                = []*netsim.Packet{nil} // by id; id 0 is a blank
			kicks, signals      int                     // callbacks run
			hist                *metrics.LogHistogram   // the installed probe's
			observed            uint64                  // filled pops since the probe was installed
			added, popped       uint64
			noNotify, noIntr    bool
			wantKicks, wantSup  uint64
			wantSigs, wantSSup  uint64
		)
		q.OnKick(func() { kicks++ })
		q.OnInterrupt(func() { signals++ })
		newDesc := func() (Desc, vqRef) {
			id := len(pkts)
			pkts = append(pkts, &netsim.Packet{Seq: int64(id)})
			return Desc{Len: id, Payload: pkts[id]}, vqRef{id: id, t: clock}
		}
		check := func(i int, what string, d Desc, ref vqRef) {
			if d.Len != ref.id || d.Payload != pkts[ref.id] {
				t.Fatalf("op %d: %s = {Len %d, Payload %p}, want id %d", i, what, d.Len, d.Payload, ref.id)
			}
		}
		for i, op := range data[1:] {
			clock += sim.Time(op) + 1
			arg := int(op) / numVQOps
			outstanding := len(avail) + len(device) + len(used)
			switch op % numVQOps {
			case vqAdd:
				d, ref := newDesc()
				if len(avail) > 0 && avail[0].id == 0 {
					if !refused(func() { q.Add(d) }) {
						t.Fatalf("op %d: Add beside blank buffers was not refused", i)
					}
					break
				}
				fits := outstanding < size
				if q.Add(d) != fits {
					t.Fatalf("op %d: Add = %t with %d of %d outstanding", i, !fits, outstanding, size)
				}
				if fits {
					avail = append(avail, ref)
					added++
				}
			case vqAddBlank:
				n := arg%6 - 1
				if len(avail) > 0 && avail[0].id != 0 || hist != nil {
					if !refused(func() { q.AddBlank(n) }) {
						t.Fatalf("op %d: AddBlank(%d) beside filled descriptors or a probe was not refused", i, n)
					}
					break
				}
				want := max(min(n, size-outstanding), 0)
				if got := q.AddBlank(n); got != want {
					t.Fatalf("op %d: AddBlank(%d) = %d, want %d", i, n, got, want)
				}
				for range want {
					avail = append(avail, vqRef{t: clock})
				}
				added += uint64(want)
			case vqPop:
				count, sum := uint64(0), sim.Time(0)
				if hist != nil {
					count, sum = hist.Count(), hist.Sum()
				}
				d, ok := q.Pop()
				if ok != (len(avail) > 0) {
					t.Fatalf("op %d: Pop ok = %t with %d posted", i, ok, len(avail))
				}
				if !ok {
					break
				}
				ref := avail[0]
				avail = avail[1:]
				check(i, "Pop", d, ref)
				device = append(device, ref)
				popped++
				if hist != nil {
					observed++
					if got := hist.Count() - count; got != 1 {
						t.Fatalf("op %d: the probe observed %d values for one Pop", i, got)
					}
					if got, want := hist.Sum()-sum, clock-ref.t; got != want {
						t.Fatalf("op %d: the probe observed a residency of %v for descriptor %d, want %v", i, got, ref.id, want)
					}
				}
			case vqPushUsed:
				if len(device) == 0 {
					if !refused(func() { q.PushUsed(Desc{}) }) {
						t.Fatalf("op %d: PushUsed with nothing popped was not refused", i)
					}
					break
				}
				// The device may complete out of order, and fills a
				// blank buffer with a packet.
				k := arg % len(device)
				ref := device[k]
				device = append(device[:k], device[k+1:]...)
				d := Desc{Len: ref.id, Payload: pkts[ref.id]}
				if ref.id == 0 {
					d, ref = newDesc()
				}
				q.PushUsed(d)
				used = append(used, ref)
			case vqPopUsed:
				d, ok := q.PopUsed()
				if ok != (len(used) > 0) {
					t.Fatalf("op %d: PopUsed ok = %t with %d used", i, ok, len(used))
				}
				if ok {
					check(i, "PopUsed", d, used[0])
					used = used[1:]
				}
			case vqReclaim:
				if got := q.ReclaimUsed(); got != len(used) {
					t.Fatalf("op %d: ReclaimUsed = %d, want %d", i, got, len(used))
				}
				used = used[:0]
			case vqCollect:
				n := arg % 4 // 0 collects all
				if n == 0 || n > len(used) {
					n = len(used)
				}
				batch := q.CollectUsed(arg % 4)
				if len(batch) != n {
					t.Fatalf("op %d: CollectUsed(%d) returned %d descriptors, want %d", i, arg%4, len(batch), n)
				}
				for j, d := range batch {
					check(i, "CollectUsed", d, used[j])
				}
				used = used[n:]
			case vqKick:
				noNotify = arg%3 == 1 || arg%3 == 2 && noNotify
				q.SetNoNotify(noNotify)
				if q.Kick() == noNotify {
					t.Fatalf("op %d: Kick delivered = %t with notifications suppressed = %t", i, noNotify, noNotify)
				}
				if noNotify {
					wantSup++
				} else {
					wantKicks++
				}
			case vqSignal:
				noIntr = arg%3 == 1 || arg%3 == 2 && noIntr
				q.SetNoInterrupt(noIntr)
				if q.Signal() == noIntr {
					t.Fatalf("op %d: Signal delivered = %t with interrupts suppressed = %t", i, noIntr, noIntr)
				}
				if noIntr {
					wantSSup++
				} else {
					wantSigs++
				}
			case vqProbe:
				h := metrics.NewLogHistogram()
				if len(avail) > 0 {
					if !refused(func() { q.SetResidencyProbe(h, now) }) {
						t.Fatalf("op %d: residency probe installed with %d buffers posted", i, len(avail))
					}
					break
				}
				q.SetResidencyProbe(h, now)
				hist, observed = h, 0
			}
			switch free := size - len(avail) - len(device) - len(used); {
			case q.AvailLen() != len(avail) || q.UsedLen() != len(used):
				t.Fatalf("op %d: AvailLen %d, UsedLen %d; want %d and %d", i, q.AvailLen(), q.UsedLen(), len(avail), len(used))
			case q.Free() != free || q.Full() != (free == 0):
				t.Fatalf("op %d: Free %d, Full %t; want %d free", i, q.Free(), q.Full(), free)
			case q.Added != added || q.Popped != popped:
				t.Fatalf("op %d: Added %d, Popped %d; want %d and %d", i, q.Added, q.Popped, added, popped)
			case q.Kicks != wantKicks || q.SuppressedKicks != wantSup || uint64(kicks) != wantKicks:
				t.Fatalf("op %d: %d kicks (%d callbacks), %d suppressed; want %d and %d", i, q.Kicks, kicks, q.SuppressedKicks, wantKicks, wantSup)
			case q.Signals != wantSigs || q.SuppressedSignals != wantSSup || uint64(signals) != wantSigs:
				t.Fatalf("op %d: %d signals (%d callbacks), %d suppressed; want %d and %d", i, q.Signals, signals, q.SuppressedSignals, wantSigs, wantSSup)
			case q.KickSuppressed() != noNotify || q.InterruptSuppressed() != noIntr:
				t.Fatalf("op %d: suppression flags %t/%t, want %t/%t", i, q.KickSuppressed(), q.InterruptSuppressed(), noNotify, noIntr)
			case hist != nil && hist.Count() != observed:
				t.Fatalf("op %d: the probe holds %d observations, want %d", i, hist.Count(), observed)
			case hist == nil && q.res != nil:
				t.Fatalf("op %d: a queue without the probe holds stamp storage", i)
			}
			if err := q.CheckInvariants(); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
	})
}
