package obs

import (
	"testing"
	"time"

	"aegaeon/internal/gpu"
	"aegaeon/internal/sim"
)

func ms(n int) sim.Time { return time.Duration(n) * time.Millisecond }

// spanByName returns the first span with the given name.
func spanByName(t *testing.T, spans []Span, name string) Span {
	t.Helper()
	for _, s := range spans {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("no span %q in %+v", name, spans)
	return Span{}
}

func TestRequestSpanLifecycle(t *testing.T) {
	c := New(Options{})
	c.RequestArrived("r1", "m1", ms(0))
	c.PrefillStart("p0", "r1", ms(10))
	c.PrefillDone("p0", "r1", ms(30))
	c.Token("r1", ms(30))
	c.TurnStart("d0", "m1", ms(50), 2*time.Second, []string{"r1"})
	c.TokenBatch("d0", "m1", ms(60), []string{"r1"})
	c.TokenBatch("d0", "m1", ms(70), []string{"r1"})
	c.TurnEnd("d0", "m1", ms(80))
	c.RequestDone("r1", ms(80))

	rt, ok := c.Request("r1")
	if !ok {
		t.Fatal("timeline missing")
	}
	if !rt.Done || rt.Finished != ms(80) {
		t.Fatalf("done=%v finished=%v", rt.Done, rt.Finished)
	}
	qw := spanByName(t, rt.Spans, "queue-wait")
	if qw.Start != ms(0) || qw.End != ms(10) {
		t.Fatalf("queue-wait = %+v", qw)
	}
	pf := spanByName(t, rt.Spans, "prefill")
	if pf.Start != ms(10) || pf.End != ms(30) {
		t.Fatalf("prefill = %+v", pf)
	}
	dw := spanByName(t, rt.Spans, "decode-wait")
	if dw.Start != ms(30) || dw.End != ms(50) {
		t.Fatalf("decode-wait = %+v", dw)
	}
	dt := spanByName(t, rt.Spans, "decode-turn")
	if dt.Start != ms(50) || dt.End != ms(80) {
		t.Fatalf("decode-turn = %+v", dt)
	}
	if rt.TokensTotal != 3 || len(rt.Tokens) != 3 {
		t.Fatalf("tokens = %d/%d", len(rt.Tokens), rt.TokensTotal)
	}
	// The flat ring saw the matching events (one event model, not two).
	for _, k := range []Kind{KindArrival, KindPrefillStart,
		KindPrefillDone, KindTurnStart, KindTurnEnd,
		KindTokenBatch, KindRequestDone} {
		if c.EventCount(k) == 0 {
			t.Errorf("ring missing kind %v", k)
		}
	}
}

func TestTurnEndReopensDecodeWait(t *testing.T) {
	c := New(Options{})
	c.RequestArrived("r1", "m1", ms(0))
	c.PrefillStart("p0", "r1", ms(0))
	c.PrefillDone("p0", "r1", ms(10))
	c.TurnStart("d0", "m1", ms(20), time.Second, []string{"r1"})
	c.TurnEnd("d0", "m1", ms(40))
	c.TurnStart("d0", "m1", ms(60), time.Second, []string{"r1"})
	c.TurnEnd("d0", "m1", ms(90))
	c.RequestDone("r1", ms(90))

	rt, _ := c.Request("r1")
	var turns int
	var waits []Span
	for _, s := range rt.Spans {
		switch s.Name {
		case "decode-turn":
			turns++
		case "decode-wait":
			waits = append(waits, s)
		}
	}
	// Two real waits between turns plus the zero-length one TurnEnd reopened
	// at the instant RequestDone closed everything.
	if turns != 2 || len(waits) != 3 {
		t.Fatalf("turns=%d waits=%d, want 2/3", turns, len(waits))
	}
	if last := waits[len(waits)-1]; last.Start != last.End {
		t.Fatalf("trailing decode-wait not zero-length: %+v", last)
	}
}

func TestSwitchAttribution(t *testing.T) {
	c := New(Options{})
	c.RequestArrived("r1", "m2", ms(0))
	c.RequestArrived("r2", "m2", ms(0))

	c.BeginSwitch("d0", "m1", "m2", ms(100), true)
	c.SwitchStage("d0", "weight-load", ms(100), ms(400))
	c.SwitchStage("d0", "compact", ms(400), ms(450))
	c.SwitchVictims("d0", []string{"r1", "r2"})
	c.EndSwitch("d0", ms(500))

	sws, total := c.Switches()
	if total != 1 || len(sws) != 1 {
		t.Fatalf("switches = %d/%d", len(sws), total)
	}
	sw := sws[0]
	if sw.From != "m1" || sw.To != "m2" || !sw.ReinitAvoided {
		t.Fatalf("switch = %+v", sw)
	}
	if sw.Stall != 400*time.Millisecond {
		t.Fatalf("stall = %v, want 400ms", sw.Stall)
	}
	if len(sw.Stages) != 2 || sw.Stages[0].Name != "weight-load" {
		t.Fatalf("stages = %+v", sw.Stages)
	}
	if len(sw.Victims) != 2 {
		t.Fatalf("victims = %v", sw.Victims)
	}
	for _, id := range []string{"r1", "r2"} {
		rt, _ := c.Request(id)
		if rt.SwitchStall != 400*time.Millisecond {
			t.Fatalf("%s charged %v, want 400ms", id, rt.SwitchStall)
		}
		ss := spanByName(t, rt.Spans, "switch-stall")
		if ss.Start != ms(100) || ss.End != ms(500) {
			t.Fatalf("switch-stall span = %+v", ss)
		}
	}
}

func TestSwitchStageAfterEndAttachesToLastSwitch(t *testing.T) {
	// §5.3: the exposed KV sync wait surfaces after the switch itself ended;
	// the stage must land on the most recent switch of the instance.
	c := New(Options{})
	c.BeginSwitch("d0", "m1", "m2", ms(0), false)
	c.EndSwitch("d0", ms(100))
	c.SwitchStage("d0", "kv-sync", ms(100), ms(130))

	sws, _ := c.Switches()
	if len(sws) != 1 || len(sws[0].Stages) != 1 || sws[0].Stages[0].Name != "kv-sync" {
		t.Fatalf("post-end stage not attached: %+v", sws)
	}
}

func TestVictimsAfterEndAreIgnored(t *testing.T) {
	c := New(Options{})
	c.RequestArrived("r1", "m2", ms(0))
	c.BeginSwitch("d0", "m1", "m2", ms(0), false)
	c.EndSwitch("d0", ms(100))
	c.SwitchVictims("d0", []string{"r1"})
	sws, _ := c.Switches()
	if len(sws[0].Victims) != 0 {
		t.Fatalf("late victims attached: %v", sws[0].Victims)
	}
	rt, _ := c.Request("r1")
	if rt.SwitchStall != 0 {
		t.Fatalf("late victim charged %v", rt.SwitchStall)
	}
}

func TestSwitchRingWraps(t *testing.T) {
	c := New(Options{MaxSwitches: 4})
	for i := 0; i < 10; i++ {
		c.BeginSwitch("d0", "a", "b", ms(i*10), false)
		c.EndSwitch("d0", ms(i*10+5))
	}
	sws, total := c.Switches()
	if total != 10 || len(sws) != 4 {
		t.Fatalf("switches = %d/%d, want 4/10", len(sws), total)
	}
	for i, sw := range sws {
		if want := ms((6 + i) * 10); sw.Start != want {
			t.Fatalf("switch %d starts %v, want %v (oldest-first order)", i, sw.Start, want)
		}
	}
}

func TestRequestEvictionPrefersCompleted(t *testing.T) {
	c := New(Options{MaxRequests: 3})
	c.RequestArrived("r1", "m", ms(0))
	c.RequestArrived("r2", "m", ms(1))
	c.RequestDone("r2", ms(2))
	c.RequestArrived("r3", "m", ms(3))
	c.RequestArrived("r4", "m", ms(4)) // over cap: evicts r2 (completed)

	if _, ok := c.Request("r2"); ok {
		t.Fatal("completed r2 not evicted")
	}
	for _, id := range []string{"r1", "r3", "r4"} {
		if _, ok := c.Request(id); !ok {
			t.Fatalf("live %s evicted", id)
		}
	}

	// Nothing completed: the oldest goes.
	c.RequestArrived("r5", "m", ms(5))
	if _, ok := c.Request("r1"); ok {
		t.Fatal("oldest r1 not evicted when none completed")
	}
}

func TestDuplicateArrivalKeepsOriginal(t *testing.T) {
	c := New(Options{})
	c.RequestArrived("r1", "m", ms(0))
	c.Token("r1", ms(5))
	c.RequestArrived("r1", "m", ms(100)) // failover re-dispatch
	rt, _ := c.Request("r1")
	if rt.Arrival != ms(0) || rt.TokensTotal != 1 {
		t.Fatalf("re-dispatch clobbered the timeline: %+v", rt)
	}
}

func TestTokenStampsCapped(t *testing.T) {
	c := New(Options{MaxTokensPerRequest: 4})
	c.RequestArrived("r1", "m", ms(0))
	for i := 0; i < 10; i++ {
		c.Token("r1", ms(i))
	}
	rt, _ := c.Request("r1")
	if len(rt.Tokens) != 4 || rt.TokensTotal != 10 {
		t.Fatalf("tokens = %d retained / %d total, want 4/10", len(rt.Tokens), rt.TokensTotal)
	}
}

func TestObserveDeviceRecordsBoundedOps(t *testing.T) {
	se := sim.NewEngine(1)
	d := gpu.NewDevice(se, "gpu0")
	c := New(Options{MaxOpsPerEngine: 4})
	c.ObserveDevice(d)
	s := d.NewStream("s")
	for i := 0; i < 10; i++ {
		s.SubmitOp(gpu.Compute, 10*time.Millisecond, gpu.OpInfo{Tag: "k", Model: "m1"})
	}
	s.SubmitOp(gpu.H2D, 5*time.Millisecond, gpu.OpInfo{Tag: "copy"})
	se.Run()

	var compute, h2d EngineTimeline
	for _, tl := range c.DeviceTimelines() {
		switch tl.Engine {
		case gpu.Compute:
			compute = tl
		case gpu.H2D:
			h2d = tl
		}
	}
	if len(compute.Ops) != 4 || compute.Total != 10 {
		t.Fatalf("compute ring = %d retained / %d total, want 4/10", len(compute.Ops), compute.Total)
	}
	if h2d.Total != 1 {
		t.Fatalf("h2d total = %d", h2d.Total)
	}
	// Retained ops are in emission order and non-overlapping (FIFO engine).
	for i := 1; i < len(compute.Ops); i++ {
		if compute.Ops[i].Start < compute.Ops[i-1].End {
			t.Fatalf("compute ops overlap: %+v then %+v", compute.Ops[i-1], compute.Ops[i])
		}
	}
}

func TestUtilizations(t *testing.T) {
	se := sim.NewEngine(1)
	d := gpu.NewDevice(se, "gpu0")
	c := New(Options{})
	c.ObserveDevice(d)
	s := d.NewStream("s")
	s.SubmitOp(gpu.Compute, 40*time.Millisecond, gpu.OpInfo{Tag: "k"})
	se.Run() // now = 40ms, compute busy the whole time

	utils := c.Utilizations(se.Now(), 80*time.Millisecond)
	if len(utils) != 3 {
		t.Fatalf("engines = %d", len(utils))
	}
	for _, u := range utils {
		if u.Utilization < 0 || u.Utilization > 1 {
			t.Fatalf("%s/%s utilization %v out of [0,1]", u.Device, u.Engine, u.Utilization)
		}
		switch u.Engine {
		case "compute":
			// Window clips to [0, 40ms]; busy all of it.
			if u.Utilization < 0.99 {
				t.Fatalf("compute utilization = %v, want ~1", u.Utilization)
			}
		default:
			if u.Utilization != 0 {
				t.Fatalf("%s utilization = %v, want 0", u.Engine, u.Utilization)
			}
		}
	}
	if c.Utilizations(se.Now(), 0) != nil {
		t.Fatal("zero window should return nil")
	}
}

func TestNilCollectorIsNoopAndAllocationFree(t *testing.T) {
	var c *Collector
	ids := []string{"r1"}
	allocs := testing.AllocsPerRun(100, func() {
		c.RequestArrived("r1", "m", 0)
		c.PrefillStart("p0", "r1", 0)
		c.PrefillDone("p0", "r1", 0)
		c.TurnStart("d0", "m", 0, time.Second, ids)
		c.TokenBatch("d0", "m", 0, ids)
		c.Token("r1", 0)
		c.TurnEnd("d0", "m", 0)
		c.Evicted("d0", "m", 0)
		c.RequestDone("r1", 0)
		c.BeginSwitch("d0", "a", "b", 0, false)
		c.SwitchStage("d0", "weight-load", 0, 0)
		c.SwitchVictims("d0", ids)
		c.EndSwitch("d0", 0)
	})
	if allocs != 0 {
		t.Fatalf("nil collector allocates %v per run", allocs)
	}
	if c.Events() != nil || c.EventsTotal() != 0 || c.Requests(10) != nil || c.DeviceTimelines() != nil {
		t.Fatal("nil collector returned data")
	}
	if _, ok := c.Request("r1"); ok {
		t.Fatal("nil collector found a request")
	}
	if sws, total := c.Switches(); sws != nil || total != 0 {
		t.Fatal("nil collector has switches")
	}
}
