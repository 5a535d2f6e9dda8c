package virtio

import (
	"testing"
	"testing/quick"
	"unsafe"

	"es2/internal/metrics"
	"es2/internal/sim"
)

func TestAddPopRoundTrip(t *testing.T) {
	q := New("tx", 4)
	if !q.Add(Desc{Len: 100}) {
		t.Fatal("Add failed on empty queue")
	}
	d, ok := q.Pop()
	if !ok || d.Len != 100 {
		t.Fatalf("Pop = %+v,%t", d, ok)
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop on empty avail should fail")
	}
}

// A descriptor is 16 bytes, as the split ring's own is: a length and a
// typed packet pointer. Every avail and used slot is one, and a rack's
// rings keep the depth of their deepest moment.
func TestDescSize(t *testing.T) {
	if got := unsafe.Sizeof(Desc{}); got > 16 {
		t.Errorf("Desc is %d bytes, want at most 16", got)
	}
}

func TestRingCapacity(t *testing.T) {
	q := New("tx", 3)
	for i := 0; i < 3; i++ {
		if !q.Add(Desc{Len: i}) {
			t.Fatalf("Add %d failed", i)
		}
	}
	if q.Add(Desc{}) {
		t.Fatal("Add beyond capacity should fail")
	}
	if !q.Full() || q.Free() != 0 {
		t.Fatal("Full/Free wrong")
	}
	// Descriptors stay outstanding until the driver reclaims used ones.
	d, _ := q.Pop()
	if q.Add(Desc{}) {
		t.Fatal("popped-but-not-completed descriptor must still occupy the ring")
	}
	q.PushUsed(d)
	if q.Add(Desc{}) {
		t.Fatal("used-but-unreclaimed descriptor must still occupy the ring")
	}
	q.CollectUsed(0)
	if !q.Add(Desc{}) {
		t.Fatal("Add should succeed after reclamation")
	}
}

func TestFIFOOrder(t *testing.T) {
	q := New("tx", 16)
	for i := 0; i < 10; i++ {
		q.Add(Desc{Len: i})
	}
	for i := 0; i < 10; i++ {
		d, ok := q.Pop()
		if !ok || d.Len != i {
			t.Fatalf("Pop %d = %+v,%t", i, d, ok)
		}
	}
}

func TestKickSuppression(t *testing.T) {
	q := New("tx", 8)
	kicked := 0
	q.OnKick(func() { kicked++ })
	if !q.Kick() {
		t.Fatal("unsuppressed kick should deliver")
	}
	q.SetNoNotify(true)
	if q.Kick() {
		t.Fatal("suppressed kick should not deliver")
	}
	q.SetNoNotify(false)
	q.Kick()
	if kicked != 2 {
		t.Fatalf("kick callback ran %d times, want 2", kicked)
	}
	if q.Kicks != 2 || q.SuppressedKicks != 1 {
		t.Fatalf("kick stats: %d/%d", q.Kicks, q.SuppressedKicks)
	}
}

func TestInterruptSuppression(t *testing.T) {
	q := New("rx", 8)
	raised := 0
	q.OnInterrupt(func() { raised++ })
	if !q.Signal() {
		t.Fatal("unsuppressed signal should deliver")
	}
	q.SetNoInterrupt(true)
	if q.Signal() {
		t.Fatal("suppressed signal should not deliver")
	}
	if !q.InterruptSuppressed() {
		t.Fatal("InterruptSuppressed should be true")
	}
	q.SetNoInterrupt(false)
	q.Signal()
	if raised != 2 {
		t.Fatalf("interrupt callback ran %d times, want 2", raised)
	}
	if q.Signals != 2 || q.SuppressedSignals != 1 {
		t.Fatalf("signal stats: %d/%d", q.Signals, q.SuppressedSignals)
	}
}

func TestCollectUsedPartial(t *testing.T) {
	q := New("rx", 16)
	for i := 0; i < 5; i++ {
		q.Add(Desc{Len: i})
		d, _ := q.Pop()
		q.PushUsed(d)
	}
	got := q.CollectUsed(2)
	if len(got) != 2 || got[0].Len != 0 || got[1].Len != 1 {
		t.Fatalf("CollectUsed(2) = %+v", got)
	}
	got = q.CollectUsed(0)
	if len(got) != 3 || got[0].Len != 2 {
		t.Fatalf("CollectUsed(0) = %+v", got)
	}
	if q.UsedLen() != 0 {
		t.Fatal("used ring should be empty")
	}
}

func TestStringAndAccessors(t *testing.T) {
	q := New("tx", 256)
	if q.Name() != "tx" || q.Size() != 256 {
		t.Fatal("accessors wrong")
	}
	if q.String() == "" {
		t.Fatal("String empty")
	}
	mustPanic(t, func() { New("bad", 0) })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}

// Property: under any interleaving of operations the queue neither
// loses nor duplicates descriptors, outstanding never exceeds size, and
// both rings are FIFO: Pop returns descriptors in Add order and
// CollectUsed in PushUsed order.
func TestVirtqueueConservationProperty(t *testing.T) {
	type op byte
	f := func(ops []byte) bool {
		q := New("p", 8)
		next := 0        // next descriptor id to add
		nextPop := 0     // id the next Pop must return
		inFlight := 0    // popped but not yet pushed used
		var popped []int // ids held by the device
		seen := make(map[int]bool)
		for _, o := range ops {
			switch o % 4 {
			case 0: // add
				if q.Add(Desc{Len: next}) {
					next++
				}
			case 1: // pop
				if d, ok := q.Pop(); ok {
					if d.Len != nextPop {
						return false // out of order
					}
					nextPop++
					popped = append(popped, d.Len)
					inFlight++
				}
			case 2: // push used
				if inFlight > 0 {
					id := popped[0]
					popped = popped[1:]
					q.PushUsed(Desc{Len: id})
					inFlight--
				}
			case 3: // collect
				for _, d := range q.CollectUsed(0) {
					if seen[d.Len] || d.Len != len(seen) {
						return false // duplicate or out of order
					}
					seen[d.Len] = true
				}
			}
			if q.AvailLen()+q.UsedLen() > q.Size() {
				return false
			}
			if q.Free() < 0 {
				return false
			}
		}
		// Drain everything and verify all added ids come back once, in
		// order.
		for inFlight > 0 {
			id := popped[0]
			popped = popped[1:]
			q.PushUsed(Desc{Len: id})
			inFlight--
		}
		for {
			d, ok := q.Pop()
			if !ok {
				break
			}
			if d.Len != nextPop {
				return false
			}
			nextPop++
			q.PushUsed(d)
		}
		for _, d := range q.CollectUsed(0) {
			if seen[d.Len] || d.Len != len(seen) {
				return false
			}
			seen[d.Len] = true
		}
		if len(seen) != next {
			return false // lost a descriptor
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// A descriptor's round trip through the queue allocates nothing once
// both rings and the used batch have grown to the working depth.
func TestRoundTripAllocs(t *testing.T) {
	q := New("tx", 256)
	q.OnKick(func() {})
	got := testing.AllocsPerRun(1000, func() {
		q.Add(Desc{Len: 1024})
		q.Kick()
		d, _ := q.Pop()
		q.PushUsed(d)
		q.CollectUsed(0)
	})
	if got != 0 {
		t.Fatalf("Add/Kick/Pop/PushUsed/CollectUsed: %v allocs/op, want 0", got)
	}
}

// Fill posts blank buffers until the ring is full, and the queue
// counts them rather than storing them: pre-posting a 1024-buffer ring
// allocates nothing.
func TestFillAllocs(t *testing.T) {
	const runs = 10
	qs := make([]*Virtqueue, runs+1) // AllocsPerRun adds a warm-up call
	for i := range qs {
		qs[i] = New("rx", 1024)
	}
	i := 0
	got := testing.AllocsPerRun(runs, func() {
		qs[i].Fill()
		if !qs[i].Full() || qs[i].AvailLen() != 1024 {
			t.Fatalf("AvailLen = %d after Fill, want a full ring of 1024", qs[i].AvailLen())
		}
		i++
	})
	if got != 0 {
		t.Fatalf("Fill of a 1024 ring: %v allocs, want 0", got)
	}
	// With one descriptor in flight, Fill posts the other seven.
	q := New("rx", 8)
	q.Add(Desc{})
	q.Pop()
	q.Fill()
	if q.AvailLen() != 7 || !q.Full() {
		t.Fatalf("AvailLen = %d after Fill with one in flight, want 7", q.AvailLen())
	}
}

// Blank buffers occupy the ring like filled descriptors: they count in
// AvailLen, Free and Full and in the Added/Popped tallies, AddBlank
// posts only what fits, and Pop hands each out as a zero Desc.
func TestBlankBuffers(t *testing.T) {
	q := New("rx", 8)
	if n := q.AddBlank(5); n != 5 || q.AvailLen() != 5 || q.Free() != 3 || q.Full() {
		t.Fatalf("AddBlank(5) = %d: AvailLen %d, Free %d, Full %t", n, q.AvailLen(), q.Free(), q.Full())
	}
	if n := q.AddBlank(5); n != 3 || q.AvailLen() != 8 || q.Free() != 0 || !q.Full() {
		t.Fatalf("AddBlank(5) with 3 free = %d: AvailLen %d, Free %d, Full %t", n, q.AvailLen(), q.Free(), q.Full())
	}
	if n := q.AddBlank(1); n != 0 {
		t.Fatalf("AddBlank on a full ring posted %d", n)
	}
	if n := q.AddBlank(-1); n != 0 || q.AvailLen() != 8 {
		t.Fatalf("AddBlank(-1) = %d, AvailLen %d", n, q.AvailLen())
	}
	d, ok := q.Pop()
	if !ok || d != (Desc{}) {
		t.Fatalf("Pop of a blank = %+v,%t; want a zero Desc", d, ok)
	}
	// A popped blank stays outstanding until the driver reclaims it.
	if q.AvailLen() != 7 || q.Free() != 0 || q.Added != 8 || q.Popped != 1 {
		t.Fatalf("after Pop: AvailLen %d, Free %d, Added %d, Popped %d", q.AvailLen(), q.Free(), q.Added, q.Popped)
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	d.Len = 64
	q.PushUsed(d)
	if got := q.CollectUsed(0); len(got) != 1 || got[0].Len != 64 {
		t.Fatalf("CollectUsed = %+v", got)
	}
	if q.Free() != 1 {
		t.Fatalf("Free = %d after reclaiming one buffer, want 1", q.Free())
	}
	for q.AvailLen() > 0 {
		q.Pop()
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop succeeded with no buffer posted")
	}
	if q.String() != "vq(rx: avail=0 used=0 free=1)" {
		t.Fatalf("String = %q", q.String())
	}
}

// Blank buffers and filled descriptors never wait in the avail ring
// together, since the blank count keeps no order: each kind of post
// panics while the other kind waits, and succeeds once it has been
// popped. A queue holding blanks refuses the residency probe, and a
// probed queue refuses blanks.
func TestBlankMixRefused(t *testing.T) {
	q := New("rx", 8)
	q.AddBlank(2)
	mustPanic(t, func() { q.Add(Desc{Len: 1}) })
	mustPanic(t, func() { q.SetResidencyProbe(metrics.NewLogHistogram(), func() sim.Time { return 0 }) })
	q.Pop()
	q.Pop()
	if !q.Add(Desc{Len: 1}) {
		t.Fatal("Add refused once the blanks were popped")
	}
	mustPanic(t, func() { q.AddBlank(1) })
	q.Pop()
	if q.AddBlank(1) != 1 {
		t.Fatal("AddBlank refused once the filled descriptor was popped")
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	p := New("tx", 8)
	p.SetResidencyProbe(metrics.NewLogHistogram(), func() sim.Time { return 0 })
	mustPanic(t, func() { p.AddBlank(1) })
	mustPanic(t, func() { p.Fill() })
}

// The residency probe observes each descriptor's own publish → dequeue
// span: its stamps stay in the avail ring's order when the ring drains
// and refills, and when adds and pops interleave. A queue without the
// probe keeps no stamp storage, and one whose avail ring holds a
// descriptor refuses the probe, since that descriptor has no stamp.
func TestResidencyProbe(t *testing.T) {
	var clock sim.Time
	h := metrics.NewLogHistogram()
	q := New("tx", 8)
	q.SetResidencyProbe(h, func() sim.Time { return clock })
	add := func(at sim.Time) {
		t.Helper()
		clock = at
		if !q.Add(Desc{Len: int(at)}) {
			t.Fatalf("Add at %v refused", at)
		}
	}
	pop := func(at, residency sim.Time) {
		t.Helper()
		clock = at
		sum := h.Sum()
		d, ok := q.Pop()
		if !ok {
			t.Fatalf("Pop at %v found nothing", at)
		}
		if got := h.Sum() - sum; got != residency {
			t.Fatalf("descriptor posted at %d, popped at %v: residency %v, want %v", d.Len, at, got, residency)
		}
		q.PushUsed(d)
		q.ReclaimUsed()
	}
	add(10)
	add(20)
	add(30)
	pop(100, 90)
	pop(100, 80)
	pop(105, 75)
	// Drained: the refill's stamps start afresh.
	add(200)
	add(210)
	pop(250, 50)
	add(260)
	pop(300, 90)
	add(310)
	pop(400, 140)
	pop(400, 90)
	if h.Count() != 7 || q.AvailLen() != 0 {
		t.Fatalf("%d observations with %d posted, want 7 and none", h.Count(), q.AvailLen())
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	u := New("tx", 8)
	for i := 0; i < 20; i++ {
		u.Add(Desc{Len: i})
		d, _ := u.Pop()
		u.PushUsed(d)
		u.ReclaimUsed()
	}
	if u.res != nil {
		t.Fatal("a queue without the probe holds stamp storage")
	}
	u.Add(Desc{Len: 1})
	mustPanic(t, func() { u.SetResidencyProbe(metrics.NewLogHistogram(), func() sim.Time { return 0 }) })
}

// Property: with blank buffers in the mix, the queue still neither
// loses nor duplicates buffers, keeps both rings FIFO, refuses every
// post that would put blanks and filled descriptors side by side in
// the avail ring, and passes CheckInvariants after every op. Filled
// descriptors carry ids 1, 2, ...; blanks come back as id 0.
func TestBlankConservationProperty(t *testing.T) {
	f := func(ops []byte) bool {
		q := New("p", 8)
		var avail []int  // reference avail ring: ids, 0 for a blank
		var device []int // popped, not yet pushed used
		var used []int   // pushed used, not yet collected
		next, added, collected := 1, 0, 0
		refused := func(post func()) (panicked bool) {
			defer func() { panicked = recover() != nil }()
			post()
			return false
		}
		for _, o := range ops {
			switch o % 5 {
			case 0: // add a filled descriptor
				if len(avail) > 0 && avail[0] == 0 {
					if !refused(func() { q.Add(Desc{Len: next}) }) {
						return false
					}
					continue
				}
				fits := len(avail)+len(device)+len(used) < q.size
				if q.Add(Desc{Len: next}) != fits {
					return false
				}
				if fits {
					avail = append(avail, next)
					next++
					added++
				}
			case 1: // add blanks
				k := int(o>>3) % 4
				if len(avail) > 0 && avail[0] != 0 {
					if !refused(func() { q.AddBlank(k) }) {
						return false
					}
					continue
				}
				want := min(k, q.size-len(avail)-len(device)-len(used))
				if q.AddBlank(k) != want {
					return false
				}
				for i := 0; i < want; i++ {
					avail = append(avail, 0)
				}
				added += want
			case 2: // pop
				d, ok := q.Pop()
				if ok != (len(avail) > 0) {
					return false
				}
				if ok {
					if d.Len != avail[0] || (avail[0] == 0 && d != (Desc{})) {
						return false // out of order, or a blank not blank
					}
					avail = avail[1:]
					device = append(device, d.Len)
				}
			case 3: // push used
				if len(device) > 0 {
					q.PushUsed(Desc{Len: device[0]})
					used = append(used, device[0])
					device = device[1:]
				}
			case 4: // collect
				for _, d := range q.CollectUsed(0) {
					if len(used) == 0 || d.Len != used[0] {
						return false
					}
					used = used[1:]
					collected++
				}
			}
			if q.AvailLen() != len(avail) || q.UsedLen() != len(used) ||
				q.Free() != q.size-len(avail)-len(device)-len(used) ||
				q.Full() != (q.Free() == 0) ||
				q.Added != uint64(added) || q.CheckInvariants() != nil {
				return false
			}
		}
		return collected+len(used)+len(device)+len(avail) == added
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
