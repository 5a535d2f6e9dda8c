package sim

import (
	"slices"
	"testing"
)

// drain pops every value off r, in order.
func drain[T any](r *Ring[T]) []T {
	var out []T
	for r.Len() > 0 {
		out = append(out, r.Pop())
	}
	return out
}

// A ring that fills while its head is mid-storage grows without
// reordering: the wrapped values come out first, then the new ones.
func TestRingGrowsWhileWrapped(t *testing.T) {
	var r Ring[int]
	for i := 0; i < 3; i++ {
		r.Push(-1)
		r.Pop()
	}
	next := 0
	for r.Len() < len(r.buf) {
		r.Push(next)
		next++
	}
	if r.head == 0 {
		t.Fatalf("precondition: head at 0 (storage %d)", len(r.buf))
	}
	for i := 0; i < 5; i++ {
		r.Push(next)
		next++
	}
	for want := 0; want < next; want++ {
		if got := r.Pop(); got != want {
			t.Fatalf("Pop %d = %d", want, got)
		}
	}
	if r.Len() != 0 {
		t.Fatalf("Len = %d after draining", r.Len())
	}
}

// PushFront puts a value ahead of every value already queued, also when
// it wraps head below index 0 and when it finds the ring full.
func TestRingPushFront(t *testing.T) {
	var r Ring[int]
	r.Push(1)
	r.Push(2)
	r.PushFront(0)
	r.Push(3)
	r.PushFront(-1) // full: grows, then wraps head to the last slot
	if f := *r.Front(); f != -1 {
		t.Fatalf("Front = %d, want -1", f)
	}
	*r.Front() = -2 // Front points at the head in place
	if got, want := drain(&r), []int{-2, 0, 1, 2, 3}; !slices.Equal(got, want) {
		t.Fatalf("drained %v, want %v", got, want)
	}
}

// Popped and cleared slots hold the zero value, so the ring keeps no
// popped value alive.
func TestRingClearsSlots(t *testing.T) {
	var r Ring[*int]
	vals := make([]int, 40)
	for i := 0; i < 3; i++ {
		r.Push(&vals[i])
	}
	r.Pop()
	r.Pop()
	for i := 3; i < len(vals); i++ {
		r.Push(&vals[i])
	}
	for i, p := range drain(&r) {
		if p != &vals[i+2] {
			t.Fatalf("value %d out of order", i)
		}
	}
	for i, p := range r.buf {
		if p != nil {
			t.Fatalf("slot %d still holds a popped value", i)
		}
	}
	for i := range 6 {
		r.Push(&vals[i])
	}
	r.Pop()
	r.Clear()
	if r.Len() != 0 {
		t.Fatalf("Len = %d after Clear", r.Len())
	}
	for i, p := range r.buf {
		if p != nil {
			t.Fatalf("slot %d still holds a value after Clear", i)
		}
	}
	r.Push(&vals[7])
	if r.Pop() != &vals[7] || r.Len() != 0 {
		t.Fatal("ring unusable after Clear")
	}
}

func TestRingEmptyPanics(t *testing.T) {
	var used Ring[int]
	used.Push(1)
	used.Pop()
	for _, c := range []struct {
		what string
		f    func()
	}{
		{"Pop of a zero ring", func() { var r Ring[int]; r.Pop() }},
		{"Front of a zero ring", func() { var r Ring[int]; r.Front() }},
		{"Discard of a zero ring", func() { var r Ring[int]; r.Discard() }},
		{"Pop of an emptied ring", func() { used.Pop() }},
		{"Front of an emptied ring", func() { used.Front() }},
		{"Discard of an emptied ring", func() { used.Discard() }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", c.what)
				}
			}()
			c.f()
		}()
	}
	if used.Len() != 0 {
		t.Fatalf("Len = %d after the refused pops", used.Len())
	}
}

// A push and a pop allocate nothing once the ring has grown to the
// working depth.
func TestRingAllocs(t *testing.T) {
	var r Ring[*int]
	v := new(int)
	for range 3 {
		r.Push(v)
	}
	got := testing.AllocsPerRun(1000, func() {
		r.Push(v)
		r.PushFront(v)
		*r.PushSlot() = v
		r.Pop()
		r.Pop()
		r.Discard()
	})
	if got != 0 {
		t.Fatalf("Push/PushFront/PushSlot/Pop/Discard: %v allocs/op, want 0", got)
	}

	// Grow sizes the storage once: the pushes it made room for
	// allocate nothing, where growing by doubling would allocate six
	// times, and a Grow that finds room allocates nothing either.
	const n = 100
	var g Ring[*int]
	got = testing.AllocsPerRun(100, func() {
		g = Ring[*int]{}
		g.Grow(n)
		for range n {
			g.Push(v)
		}
		g.Grow(-1)
		g.Grow(len(g.buf) - n)
	})
	if got != 1 {
		t.Fatalf("Grow(%d), %d pushes and two Grows with room: %v allocs/op, want 1", n, n, got)
	}
}

// The op codes of FuzzRing's input, one byte per op (taken mod
// numRingOps), so pushes outweigh pops and the ring wraps and grows.
// A Grow byte also carries its count: op/numRingOps - 4, from -4 to 18.
const (
	ringPush      = 0 // and 1, 2
	ringPushFront = 3 // and 4
	ringPop       = 5
	ringTryPop    = 6
	ringClear     = 7
	ringPushSlot  = 8
	ringDiscard   = 9
	ringGrow      = 10
	numRingOps    = 11
)

// FuzzRing runs a stream of Push, PushSlot, PushFront, Pop, TryPop,
// Discard, Clear and Grow ops against a ring and a slice. After every
// op the two must hold the same values in the same order, and every
// slot outside the ring's values must be zero. After a Grow the storage
// must hold its count more values; a Grow that finds room, or whose
// count is not positive, must leave the storage as it was, and one that
// does not must allocate the smallest power of two, from four, that
// does.
func FuzzRing(f *testing.F) {
	f.Add([]byte{})
	// Wrap with pops, then grow while wrapped, then drain.
	f.Add([]byte{0, 0, 0, 5, 5, 0, 0, 0, 0, 0, 0, 5, 5, 5, 5, 5, 5, 5, 5})
	// PushFront wrapping head below 0 and growing, a drain, a TryPop on
	// the empty ring, then a Clear and reuse.
	f.Add([]byte{3, 3, 3, 3, 3, 0, 4, 5, 5, 5, 5, 5, 5, 5, 6, 0, 3, 7, 0, 5})
	// PushSlot filling and growing a wrapped ring, then Discards past
	// empty.
	f.Add([]byte{8, 8, 8, 9, 9, 8, 8, 8, 8, 8, 0, 9, 9, 9, 9, 9, 9, 9, 9, 8})
	// Grow by 0 and -4 on an empty ring, by 2 on a full wrapped one, by
	// 1 with room, by 18 on a wrapped one, then a drain.
	f.Add([]byte{54, 10, 0, 0, 0, 5, 0, 0, 76, 65, 0, 5, 5, 0, 0, 0, 0, 252, 0, 5, 5, 5, 5, 5, 5, 5, 5, 5})
	r := NewRand(1)
	long := make([]byte, 512)
	for i := range long {
		long[i] = byte(r.Intn(256))
	}
	f.Add(long)

	f.Fuzz(func(t *testing.T, ops []byte) {
		var r Ring[int]
		var ref []int
		for i, op := range ops {
			v := i + 1 // zero marks a cleared slot
			switch op % numRingOps {
			case ringPush, ringPush + 1, ringPush + 2:
				r.Push(v)
				ref = append(ref, v)
			case ringPushSlot:
				p := r.PushSlot()
				if *p != 0 {
					t.Fatalf("op %d: PushSlot returned a slot holding %d", i, *p)
				}
				*p = v
				ref = append(ref, v)
			case ringPushFront, ringPushFront + 1:
				r.PushFront(v)
				ref = slices.Insert(ref, 0, v)
			case ringPop:
				if len(ref) == 0 {
					continue
				}
				if got := r.Pop(); got != ref[0] {
					t.Fatalf("op %d: Pop = %d, want %d", i, got, ref[0])
				}
				ref = ref[1:]
			case ringTryPop:
				got, ok := r.TryPop()
				if len(ref) == 0 {
					if ok || got != 0 {
						t.Fatalf("op %d: TryPop of an empty ring = %d, %v", i, got, ok)
					}
					continue
				}
				if !ok || got != ref[0] {
					t.Fatalf("op %d: TryPop = %d, %v, want %d, true", i, got, ok, ref[0])
				}
				ref = ref[1:]
			case ringDiscard:
				if len(ref) == 0 {
					continue
				}
				if got := *r.Front(); got != ref[0] {
					t.Fatalf("op %d: Front = %d, want %d", i, got, ref[0])
				}
				r.Discard()
				ref = ref[1:]
			case ringClear:
				r.Clear()
				ref = ref[:0]
			case ringGrow:
				n := int(op)/numRingOps - 4
				before := r.buf
				r.Grow(n)
				need := len(ref) + n
				switch {
				case need <= len(before):
					if len(r.buf) != len(before) || len(r.buf) > 0 && &r.buf[0] != &before[0] {
						t.Fatalf("op %d: Grow(%d) with room for %d replaced the storage", i, n, len(before))
					}
				case len(r.buf) < 4 || len(r.buf)&(len(r.buf)-1) != 0 || len(r.buf) < need || len(r.buf) > 4 && len(r.buf)/2 >= need:
					t.Fatalf("op %d: Grow(%d) of %d values made %d slots", i, n, len(ref), len(r.buf))
				}
			}
			if r.Len() != len(ref) {
				t.Fatalf("op %d: Len = %d, want %d", i, r.Len(), len(ref))
			}
			for j, slot := range r.buf {
				k := (j - r.head) & (len(r.buf) - 1) // position from the head
				if k < len(ref) && slot != ref[k] {
					t.Fatalf("op %d: value %d is %d, want %d", i, k, slot, ref[k])
				}
				if k >= len(ref) && slot != 0 {
					t.Fatalf("op %d: free slot %d holds %d", i, j, slot)
				}
			}
		}
		if got := drain(&r); !slices.Equal(got, ref) {
			t.Fatalf("drained %v, want %v", got, ref)
		}
	})
}
