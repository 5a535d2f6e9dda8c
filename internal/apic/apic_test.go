package apic

import (
	"testing"
	"testing/quick"
)

func TestBitmapSetClearTest(t *testing.T) {
	var b Bitmap256
	if !b.Set(0x31) {
		t.Fatal("Set on clear bit should return true")
	}
	if b.Set(0x31) {
		t.Fatal("Set on set bit should return false")
	}
	if !b.Test(0x31) {
		t.Fatal("Test after Set should be true")
	}
	if !b.Clear(0x31) {
		t.Fatal("Clear on set bit should return true")
	}
	if b.Clear(0x31) {
		t.Fatal("Clear on clear bit should return false")
	}
	if !b.Empty() {
		t.Fatal("bitmap should be empty")
	}
}

func TestBitmapHighest(t *testing.T) {
	var b Bitmap256
	if _, ok := b.Highest(); ok {
		t.Fatal("Highest on empty bitmap should report false")
	}
	b.Set(3)
	b.Set(200)
	b.Set(64)
	if v, ok := b.Highest(); !ok || v != 200 {
		t.Fatalf("Highest = %d,%t, want 200,true", v, ok)
	}
	b.Clear(200)
	if v, _ := b.Highest(); v != 64 {
		t.Fatalf("Highest = %d, want 64", v)
	}
}

func TestBitmapCountAndDrain(t *testing.T) {
	var a, b Bitmap256
	a.Set(1)
	a.Set(63)
	a.Set(64)
	a.Set(255)
	if a.Count() != 4 {
		t.Fatalf("Count = %d, want 4", a.Count())
	}
	b.Set(64) // overlapping bit coalesces
	moved := a.DrainInto(&b)
	if moved != 3 {
		t.Fatalf("DrainInto moved %d, want 3 (one coalesced)", moved)
	}
	if !a.Empty() {
		t.Fatal("source should be empty after drain")
	}
	if b.Count() != 4 {
		t.Fatalf("dest Count = %d, want 4", b.Count())
	}
}

// Property: for any set of vectors, Highest returns the max, and
// DrainInto preserves the union.
func TestBitmapProperties(t *testing.T) {
	f := func(vs []Vector, pre []Vector) bool {
		var a, b Bitmap256
		maxV, any := Vector(0), false
		for _, v := range vs {
			a.Set(v)
			if !any || v > maxV {
				maxV, any = v, true
			}
		}
		if got, ok := a.Highest(); ok != any || (any && got != maxV) {
			return false
		}
		want := map[Vector]bool{}
		for _, v := range vs {
			want[v] = true
		}
		for _, v := range pre {
			b.Set(v)
			want[v] = true
		}
		a.DrainInto(&b)
		if !a.Empty() {
			return false
		}
		if b.Count() != len(want) {
			return false
		}
		for v := range want {
			if !b.Test(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestVectorClass(t *testing.T) {
	if Vector(0x31).Class() != 3 {
		t.Fatalf("class of 0x31 = %d, want 3", Vector(0x31).Class())
	}
	if Vector(0xEF).Class() != 14 {
		t.Fatalf("class of 0xEF = %d, want 14", Vector(0xEF).Class())
	}
}

func TestLAPICBasicCycle(t *testing.T) {
	var l LocalAPIC
	if _, ok := l.PendingIRQ(); ok {
		t.Fatal("empty APIC should have nothing deliverable")
	}
	if !l.RequestIRQ(0x41) {
		t.Fatal("first RequestIRQ should latch")
	}
	if l.RequestIRQ(0x41) {
		t.Fatal("second RequestIRQ of same vector should coalesce")
	}
	v, ok := l.PendingIRQ()
	if !ok || v != 0x41 {
		t.Fatalf("PendingIRQ = %d,%t", v, ok)
	}
	l.Accept(v)
	if depth := l.InServiceDepth(); depth != 1 {
		t.Fatalf("InServiceDepth = %d, want 1", depth)
	}
	if got := l.EOI(); got != 0x41 {
		t.Fatalf("EOI = %d, want 0x41", got)
	}
	if l.Accepted != 1 || l.Completed != 1 {
		t.Fatalf("counters: accepted=%d completed=%d", l.Accepted, l.Completed)
	}
}

func TestLAPICPriorityBlocking(t *testing.T) {
	var l LocalAPIC
	l.RequestIRQ(0x55)
	v, _ := l.PendingIRQ()
	l.Accept(v)
	// Same-class pending vector must be blocked while 0x55 in service.
	l.RequestIRQ(0x52)
	if _, ok := l.PendingIRQ(); ok {
		t.Fatal("same-class vector should be blocked by in-service vector")
	}
	// Higher class preempts.
	l.RequestIRQ(0x81)
	v, ok := l.PendingIRQ()
	if !ok || v != 0x81 {
		t.Fatalf("higher-class vector should be deliverable, got %d,%t", v, ok)
	}
	l.Accept(v)
	if got := l.EOI(); got != 0x81 {
		t.Fatalf("EOI should complete nested 0x81 first, got %#x", got)
	}
	if got := l.EOI(); got != 0x55 {
		t.Fatalf("second EOI should complete 0x55, got %#x", got)
	}
	// Now the blocked 0x52 becomes deliverable.
	if v, ok := l.PendingIRQ(); !ok || v != 0x52 {
		t.Fatalf("0x52 should now deliver, got %d,%t", v, ok)
	}
}

func TestLAPICHighestFirst(t *testing.T) {
	var l LocalAPIC
	l.RequestIRQ(0x33)
	l.RequestIRQ(0x91)
	l.RequestIRQ(0x60)
	if v, _ := l.PendingIRQ(); v != 0x91 {
		t.Fatalf("PendingIRQ = %#x, want 0x91", v)
	}
}

func TestLAPICAcceptWrongVectorPanics(t *testing.T) {
	var l LocalAPIC
	l.RequestIRQ(0x41)
	defer func() {
		if recover() == nil {
			t.Error("Accept of wrong vector should panic")
		}
	}()
	l.Accept(0x42)
}

func TestLAPICEOIEmptyPanics(t *testing.T) {
	var l LocalAPIC
	defer func() {
		if recover() == nil {
			t.Error("EOI with empty ISR should panic")
		}
	}()
	l.EOI()
}

func TestLAPICReset(t *testing.T) {
	var l LocalAPIC
	l.RequestIRQ(0x41)
	v, _ := l.PendingIRQ()
	l.Accept(v)
	l.RequestIRQ(0x99)
	l.Reset()
	if l.HasPending() || l.InServiceDepth() != 0 {
		t.Fatal("Reset should clear all state")
	}
}

func TestPIDescriptorPostNotify(t *testing.T) {
	var d PIDescriptor
	if !d.Post(0x41) {
		t.Fatal("first Post should request a notification")
	}
	if d.Post(0x42) {
		t.Fatal("second Post with ON set should not re-notify")
	}
	if d.Post(0x42) {
		t.Fatal("re-posting a pending vector should not re-notify")
	}
	if !d.Outstanding() {
		t.Fatal("ON should be set")
	}
	var vapic LocalAPIC
	moved := d.Sync(&vapic)
	if moved != 2 {
		t.Fatalf("Sync moved %d, want 2", moved)
	}
	if d.Outstanding() || d.HasPending() {
		t.Fatal("Sync should clear ON and PIR")
	}
	if v, ok := vapic.PendingIRQ(); !ok || v != 0x42 {
		t.Fatalf("vAPIC should have 0x42 deliverable, got %d,%t", v, ok)
	}
	if d.Posts != 3 || d.Notifications != 1 {
		t.Fatalf("counters: posts=%d notifications=%d", d.Posts, d.Notifications)
	}
}

func TestPIDescriptorSuppress(t *testing.T) {
	var d PIDescriptor
	d.SetSuppress(true)
	if d.Post(0x41) {
		t.Fatal("Post with SN set must not notify")
	}
	if d.Outstanding() {
		t.Fatal("ON must stay clear while suppressed")
	}
	if !d.HasPending() {
		t.Fatal("vector should be pending in PIR")
	}
	d.SetSuppress(false)
	if !d.Post(0x43) {
		t.Fatal("Post after unsuppress should notify")
	}
	var vapic LocalAPIC
	if d.Sync(&vapic) != 2 {
		t.Fatal("both vectors should sync")
	}
}

func TestPISyncCoalesce(t *testing.T) {
	var d PIDescriptor
	var vapic LocalAPIC
	vapic.RequestIRQ(0x41)
	d.Post(0x41)
	if moved := d.Sync(&vapic); moved != 0 {
		t.Fatalf("coalesced sync should move 0 new vectors, got %d", moved)
	}
	if vapic.PendingCount() != 1 {
		t.Fatal("vector must not duplicate")
	}
}

func TestDeliveryModeString(t *testing.T) {
	if Fixed.String() != "fixed" || LowestPriority.String() != "lowest-priority" {
		t.Fatal("mode names wrong")
	}
	if DeliveryMode(9).String() == "" {
		t.Fatal("unknown mode should still format")
	}
}
