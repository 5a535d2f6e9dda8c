package virtio

import (
	"testing"
	"testing/quick"
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

// Fill posts descriptors until the ring is full and sizes the avail
// ring once: pre-posting a 1024-descriptor ring is one allocation.
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
	if got != 1 {
		t.Fatalf("Fill of a 1024 ring: %v allocs, want 1", got)
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
