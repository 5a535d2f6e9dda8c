package causal

import (
	"testing"

	"es2/internal/sim"
)

// stamp is one expected (stage, host, time) mark.
type stamp struct {
	stage Stage
	host  uint8
	t     sim.Time
}

func checkMarks(t *testing.T, c *Chain, want []stamp) {
	t.Helper()
	if len(c.marks) != len(want) {
		t.Fatalf("chain has %d marks %+v, want %d %+v", len(c.marks), c.marks, len(want), want)
	}
	for i, w := range want {
		if m := c.marks[i]; m.Stage != w.stage || m.Host != w.host || m.T != w.t {
			t.Fatalf("mark %d = %v/h%d@%d, want %v/h%d@%d", i, m.Stage, m.Host, m.T, w.stage, w.host, w.t)
		}
	}
}

func TestChainMark(t *testing.T) {
	cases := []struct {
		name  string
		start sim.Time
		marks []stamp // applied in order
		want  []stamp
	}{
		{"in order", 10,
			[]stamp{{StageGuestTX, 0, 20}, {StageNotifyExit, 0, 35}},
			[]stamp{{StageGuestTX, 0, 20}, {StageNotifyExit, 0, 35}}},
		{"clamps before start", 100,
			[]stamp{{StageWire, 0, 40}},
			[]stamp{{StageWire, 0, 100}}},
		{"clamps before last mark", 0,
			[]stamp{{StageBackendRX, 0, 50}, {StageSignal, 0, 30}},
			[]stamp{{StageBackendRX, 0, 50}, {StageSignal, 0, 50}}},
		{"merges same stage and host", 0,
			[]stamp{{StageRingWait, 0, 10}, {StageGuestRX, 0, 20}, {StageGuestRX, 0, 45}},
			[]stamp{{StageRingWait, 0, 10}, {StageGuestRX, 0, 45}}},
		{"merge keeps the clamp", 0,
			[]stamp{{StageGuestRX, 0, 30}, {StageGuestRX, 0, 10}},
			[]stamp{{StageGuestRX, 0, 30}}},
		{"same stage on another host stays apart", 0,
			[]stamp{{StageBackendTX, 1, 10}, {StageBackendTX, 2, 20}},
			[]stamp{{StageBackendTX, 1, 10}, {StageBackendTX, 2, 20}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := &Chain{start: tc.start}
			for _, m := range tc.marks {
				c.Mark(m.stage, m.host, m.t)
			}
			checkMarks(t, c, tc.want)
			if got := c.LastT(); got != tc.want[len(tc.want)-1].t {
				t.Fatalf("LastT = %d, want %d", got, tc.want[len(tc.want)-1].t)
			}
		})
	}
}

func TestMarkSendAndNotify(t *testing.T) {
	cases := []struct {
		name      string
		fresh     bool // no marks before the doorbell
		exitKicks []bool
		wantSend  Stage
		wantNote  Stage
	}{
		{"client doorbell that exits", true, []bool{true}, StageGuestTX, StageNotifyExit},
		{"client doorbell that polls", true, []bool{false}, StageGuestTX, StageNotifyPoll},
		{"reply doorbell that exits", false, []bool{true}, StageService, StageNotifyExit},
		// A multi-segment reply rings twice before the dequeue: the
		// latest doorbell picks the notify stage.
		{"latest doorbell wins", false, []bool{true, false}, StageService, StageNotifyPoll},
		{"latest doorbell wins, exit", false, []bool{false, true}, StageService, StageNotifyExit},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := &Chain{}
			now := sim.Time(0)
			if !tc.fresh {
				now += 10
				c.Mark(StageGuestRX, 0, now)
			}
			for _, exit := range tc.exitKicks {
				now += 10
				c.MarkSend(0, now, exit)
			}
			c.MarkNotify(0, now+10)
			n := len(c.marks)
			if got := c.marks[n-2].Stage; got != tc.wantSend {
				t.Fatalf("doorbell stage = %v, want %v", got, tc.wantSend)
			}
			if got := c.marks[n-1].Stage; got != tc.wantNote {
				t.Fatalf("dequeue stage = %v, want %v", got, tc.wantNote)
			}
		})
	}
}

func TestCompleteFreezesAndReconciles(t *testing.T) {
	tr := NewTracker(4)
	p := tr.Probe(0)
	c := p.Start(7, 1, 100)
	u := &Unit{Chain: c}
	p.MarkSend(u, 130, true)
	p.MarkNotify(u, 150)
	p.Mark(u, StageBackendTX, 160)
	p.Mark(u, StageWire, 140) // backwards: clamps to 160
	p.Complete(c, StageGuestRX, 400)
	if !c.done {
		t.Fatal("Complete did not freeze the chain")
	}
	n := len(c.marks)
	p.Mark(u, StageBackendRX, 500)
	p.Complete(c, StageGuestRX, 600) // recorded once only
	if len(c.marks) != n || tr.Completed() != 1 {
		t.Fatalf("frozen chain changed: %d marks (want %d), %d completed", len(c.marks), n, tr.Completed())
	}
	r := tr.Report()
	if r.Requests != 1 || r.TotalNs != 300 || r.MaxSumRelErr != 0 {
		t.Fatalf("report = %d requests, %d ns, err %v; want 1, 300, 0", r.Requests, r.TotalNs, r.MaxSumRelErr)
	}
	var sum int64
	for _, s := range r.Stages {
		sum += s.TotalNs
	}
	if sum != 300 {
		t.Fatalf("stage sum %d ns != end-to-end 300 ns: %+v", sum, r.Stages)
	}
	want := map[string]int64{"guest-tx": 30, "notify-exit": 20, "backend-tx": 10, "wire": 0, "guest-rx": 240}
	for _, s := range r.Stages {
		if s.TotalNs != want[s.Stage] {
			t.Errorf("%s = %d ns, want %d", s.Stage, s.TotalNs, want[s.Stage])
		}
	}
}

func TestTrackerResetKeepsInFlightChains(t *testing.T) {
	tr := NewTracker(2)
	p := tr.Probe(0)
	done := p.Start(1, 1, 0)
	p.Complete(done, StageWire, 50)
	inFlight := p.Start(1, 2, 40)
	u := &Unit{Chain: inFlight}
	p.MarkSend(u, 60, false) // warm-up mark

	tr.Reset()
	if tr.Completed() != 0 || tr.TopStage() != "" || len(tr.Report().Exemplars) != 0 {
		t.Fatal("Reset kept warm-up completions")
	}
	p.Complete(inFlight, StageWire, 100)
	r := tr.Report()
	if r.Requests != 1 || r.TotalNs != 60 {
		t.Fatalf("in-flight chain: %d requests, %d ns; want 1, 60 (its warm-up marks count)", r.Requests, r.TotalNs)
	}
	if len(r.Stages) != 2 || r.Stages[0].Stage != "guest-tx" || r.Stages[0].TotalNs != 20 {
		t.Fatalf("stages = %+v, want guest-tx 20 then wire 40", r.Stages)
	}
}

func TestOfferTailOrder(t *testing.T) {
	// Slower first; equal latencies by earlier start, then smaller flow,
	// then smaller seq.
	type req struct {
		flow       int
		seq        int64
		start, e2e sim.Time
	}
	reqs := []req{
		{flow: 2, seq: 1, start: 10, e2e: 50},
		{flow: 1, seq: 1, start: 0, e2e: 90},
		{flow: 3, seq: 1, start: 5, e2e: 50},
		{flow: 1, seq: 9, start: 10, e2e: 50},
		{flow: 1, seq: 3, start: 10, e2e: 50},
		{flow: 4, seq: 1, start: 0, e2e: 10}, // too fast for k=4
	}
	tr := NewTracker(4)
	p := tr.Probe(0)
	for _, r := range reqs {
		c := p.Start(r.flow, r.seq, r.start)
		p.Complete(c, StageWire, r.start+r.e2e)
	}
	want := [][2]int64{{1, 1}, {3, 1}, {1, 3}, {1, 9}}
	ex := tr.Report().Exemplars
	if len(ex) != len(want) {
		t.Fatalf("%d exemplars, want %d", len(ex), len(want))
	}
	for i, w := range want {
		if int64(ex[i].Flow) != w[0] || ex[i].Seq != w[1] {
			t.Fatalf("exemplar %d = flow %d seq %d, want flow %d seq %d", i, ex[i].Flow, ex[i].Seq, w[0], w[1])
		}
	}
}

func TestNilReceivers(t *testing.T) {
	var c *Chain
	c.Mark(StageWire, 0, 1)
	c.MarkSend(0, 1, true)
	c.MarkNotify(0, 1)
	c.AddHop()
	if c.LastT() != 0 {
		t.Fatal("nil chain LastT != 0")
	}

	var p *Probe
	u := &Unit{}
	p.Mark(u, StageWire, 1)
	p.MarkSend(u, 1, true)
	p.MarkNotify(u, 2)
	p.Collect(u, Episode{Valid: true}, 3)
	p.ResetSpectra()
	p.Complete(nil, StageWire, 4)
	if p.Start(1, 1, 0) != nil || p.Spectrum(StageWire) != nil {
		t.Fatal("nil probe returned state")
	}
	if u.open {
		t.Fatal("nil probe opened a span")
	}

	var tr *Tracker
	if tr.Probe(0) != nil || tr.Report() != nil || tr.Completed() != 0 || tr.TopStage() != "" {
		t.Fatal("nil tracker returned state")
	}
	tr.Reset()

	// A live probe tolerates units without chains.
	live := NewProbe(NewTracker(1), 0, true)
	live.MarkSend(u, 10, false)
	live.Collect(u, Episode{Valid: true, Inject: 20, SchedIn: 20, Entry: 25}, 30)
	live.Mark(u, StageGuestRX, 40)
}

func TestNewProbe(t *testing.T) {
	if NewProbe(nil, 3, false) != nil {
		t.Fatal("NewProbe(nil, h, false) should be nil")
	}
	spec := NewProbe(nil, 3, true)
	if spec == nil || spec.Spectrum(StageWire) == nil {
		t.Fatal("a spectra-only probe should keep spectra")
	}
	if spec.Start(1, 1, 0) != nil {
		t.Fatal("a probe without a tracker must not open chains")
	}
	chains := NewTracker(1).Probe(3)
	if chains.Spectrum(StageWire) != nil {
		t.Fatal("a tracker's probe keeps no spectra")
	}
	if chains.Start(1, 1, 0) == nil {
		t.Fatal("a tracker's probe should open chains")
	}
}

// count returns the number of spans observed for s.
func count(p *Probe, s Stage) uint64 { return p.Spectrum(s).Count() }

func TestSpanNeedsOpen(t *testing.T) {
	p := NewProbe(nil, 0, true)
	u := &Unit{}
	// A packet from outside the simulated hosts arrives: the wire span
	// was never opened, so nothing is observed; backend-rx opens.
	p.Mark(u, StageWire, 100)
	if count(p, StageWire) != 0 {
		t.Fatal("wire observed without an open span")
	}
	p.Mark(u, StageBackendRX, 130)
	if h := p.Spectrum(StageBackendRX); h.Count() != 1 || h.Sum() != 30 {
		t.Fatalf("backend-rx = %d spans, %d ns; want 1, 30", h.Count(), h.Sum())
	}
	// A span opened by a simulated host closes into wire on arrival.
	v := &Unit{}
	p.MarkSend(v, 0, true)
	p.MarkNotify(v, 40)
	p.Mark(v, StageBackendTX, 50)
	p.Mark(v, StageWire, 80)
	for _, c := range []struct {
		s    Stage
		n    uint64
		want sim.Time
	}{{StageNotifyExit, 1, 40}, {StageNotifyPoll, 0, 0}, {StageBackendTX, 1, 10}, {StageWire, 1, 30}} {
		if h := p.Spectrum(c.s); h.Count() != c.n || h.Sum() != c.want {
			t.Fatalf("%v = %d spans, %d ns; want %d, %d", c.s, h.Count(), h.Sum(), c.n, c.want)
		}
	}
	// No spectra: spans are never observed.
	chains := NewTracker(1).Probe(0)
	w := &Unit{}
	chains.MarkSend(w, 0, false)
	chains.MarkNotify(w, 10)
	if chains.Spectrum(StageNotifyPoll) != nil {
		t.Fatal("a chain-only probe kept a spectrum")
	}
}

func TestSpanClampsBackwards(t *testing.T) {
	p := NewProbe(nil, 0, true)
	u := &Unit{}
	p.MarkSend(u, 100, false)
	p.MarkNotify(u, 90) // before the doorbell: clamps to a zero span
	p.Mark(u, StageBackendTX, 120)
	if h := p.Spectrum(StageNotifyPoll); h.Count() != 1 || h.Max() != 0 {
		t.Fatalf("notify-poll = %d spans, max %d; want 1, 0", h.Count(), h.Max())
	}
	if h := p.Spectrum(StageBackendTX); h.Sum() != 20 {
		t.Fatalf("backend-tx = %d ns, want 20 (measured from the clamped 100)", h.Sum())
	}
}

func TestCollectEpisodeSplit(t *testing.T) {
	ep := Episode{Inject: 100, SchedIn: 80, Entry: 130, Valid: true}
	posted := ep
	posted.Posted = true
	late := ep
	late.SchedIn = 115 // the target vCPU was off-core at injection
	cases := []struct {
		name    string
		publish sim.Time
		ep      Episode
		want    map[Stage]sim.Time // observed span per stage
	}{
		{"published before injection, emulated", 60, ep, map[Stage]sim.Time{
			StageSignal: 40, StageWakeup: 0, StageIRQEmulated: 30, StageRingWait: 20}},
		{"published at injection, posted", 100, posted, map[Stage]sim.Time{
			StageSignal: 0, StageWakeup: 0, StageIRQPosted: 30, StageRingWait: 20}},
		{"wakeup while off-core", 60, late, map[Stage]sim.Time{
			StageSignal: 40, StageWakeup: 15, StageIRQEmulated: 15, StageRingWait: 20}},
		{"coalesced after injection", 110, ep, map[Stage]sim.Time{StageRingWait: 40}},
		{"no captured episode", 60, Episode{}, map[Stage]sim.Time{StageRingWait: 90}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := NewTracker(1)
			p := NewProbe(tr, 0, true)
			c := p.Start(1, 1, 0)
			u := &Unit{Chain: c}
			p.Mark(u, StageWire, tc.publish-10)
			p.Mark(u, StageBackendRX, tc.publish)
			p.Collect(u, tc.ep, 150)
			p.Complete(c, StageGuestRX, 150)
			for s := StageSignal; s <= StageRingWait; s++ {
				h := p.Spectrum(s)
				want, ok := tc.want[s]
				if !ok {
					if h.Count() != 0 {
						t.Errorf("%v observed %d spans, want none", s, h.Count())
					}
					continue
				}
				if h.Count() != 1 || h.Sum() != want {
					t.Errorf("%v = %d spans, %d ns; want 1, %d", s, h.Count(), h.Sum(), want)
				}
			}
			// The chain takes the same split: its blame rows match the
			// spans stage for stage.
			rows := map[string]int64{}
			for _, row := range tr.Report().Stages {
				rows[row.Stage] = row.TotalNs
			}
			for s := StageSignal; s <= StageRingWait; s++ {
				got, ok := rows[s.String()]
				want, wantOK := tc.want[s]
				if ok != wantOK || got != int64(want) {
					t.Errorf("chain %v = %d ns (row %t), want %d ns (row %t)", s, got, ok, want, wantOK)
				}
			}
		})
	}
}

func TestResetSpectraKeepsOpenSpans(t *testing.T) {
	p := NewProbe(nil, 0, true)
	u := &Unit{}
	p.MarkSend(u, 0, true)
	p.MarkNotify(u, 10)
	p.ResetSpectra()
	for s := Stage(0); s < NumStages; s++ {
		if n := count(p, s); n != 0 {
			t.Fatalf("%v kept %d spans after ResetSpectra", s, n)
		}
	}
	// The span opened before the reset closes into the new window.
	p.Mark(u, StageBackendTX, 35)
	if h := p.Spectrum(StageBackendTX); h.Count() != 1 || h.Sum() != 25 {
		t.Fatalf("backend-tx = %d spans, %d ns; want 1, 25", h.Count(), h.Sum())
	}
}
