package fleetobs

import (
	"strings"
	"testing"
	"time"

	"aegaeon/internal/gpu"
	"aegaeon/internal/sim"
)

func newLedgerDevice(t *testing.T) (*sim.Engine, *Ledger, *gpu.Device) {
	t.Helper()
	eng := sim.NewEngine(1)
	l := New(eng)
	dev := gpu.NewDevice(eng, "dev0")
	l.ObserveDevice(dev)
	return eng, l, dev
}

func requireConserves(t *testing.T, l *Ledger, now sim.Time) {
	t.Helper()
	if errs := l.CheckConservation(now); len(errs) > 0 {
		t.Fatalf("conservation violated: %v", errs)
	}
}

// The core invariant: ops, host stages, and idle gaps partition wall time
// exactly, and the snapshot's raw busy fields are the device's own counters.
func TestConservationExact(t *testing.T) {
	eng, l, dev := newLedgerDevice(t)
	s := dev.NewStream("s")

	s.SubmitOp(gpu.Compute, 30*time.Millisecond, gpu.OpInfo{Tag: "prefill", Model: "m1"})
	s.SubmitOp(gpu.Compute, 50*time.Millisecond, gpu.OpInfo{Tag: "decode", Model: "m1"})
	eng.At(100*time.Millisecond, func() {
		l.Enter("dev0", Reinit, "m2")
		eng.After(40*time.Millisecond, func() { l.Exit("dev0", Reinit) })
	})
	eng.At(200*time.Millisecond, func() {
		s.SubmitOp(gpu.H2D, 25*time.Millisecond, gpu.OpInfo{Tag: "load m2", Model: "m2"})
	})
	eng.RunUntil(sim.Time(300 * time.Millisecond))

	now := eng.Now()
	requireConserves(t, l, now)

	wantStates := map[State]time.Duration{
		Prefill:    30 * time.Millisecond,
		Decode:     50 * time.Millisecond,
		Reinit:     40 * time.Millisecond,
		WeightLoad: 25 * time.Millisecond,
		Idle:       155 * time.Millisecond,
	}
	for st, want := range wantStates {
		if got := l.StateSeconds("dev0", st, now); got != want.Seconds() {
			t.Errorf("state %s: got %.3fs, want %v", st, got, want)
		}
	}
	ds := l.Snapshot(now).Devices[0]
	if got, want := ds.RawComputeBusyS, dev.BusyTime(gpu.Compute).Seconds(); got != want || want != 0.08 {
		t.Errorf("raw compute busy %vs, device reports %vs, want 0.08s", got, want)
	}
	if got, want := ds.RawH2DBusyS, dev.BusyTime(gpu.H2D).Seconds(); got != want || want != 0.025 {
		t.Errorf("raw h2d busy %vs, device reports %vs, want 0.025s", got, want)
	}
}

// Mid-op conservation: the invariant must hold at an instant when an op and
// a host stage are still open (the open segment is charged, not lost).
func TestConservationMidOp(t *testing.T) {
	eng, l, dev := newLedgerDevice(t)
	s := dev.NewStream("s")
	s.SubmitOp(gpu.Compute, time.Second, gpu.OpInfo{Tag: "decode", Model: "m1"})
	l.Enter("dev0", Fetch, "m2")
	eng.RunUntil(sim.Time(300 * time.Millisecond))
	requireConserves(t, l, eng.Now())
	// Fetch outranks Decode: the whole 300ms must be fetch.
	if got := l.StateSeconds("dev0", Fetch, eng.Now()); got != 0.3 {
		t.Errorf("fetch seconds %v, want 0.3", got)
	}
	if got := l.StateSeconds("dev0", Decode, eng.Now()); got != 0 {
		t.Errorf("decode seconds %v, want 0 (masked by fetch)", got)
	}
	// The raw busy time still sees the running compute op.
	if got := l.Snapshot(eng.Now()).Devices[0].RawComputeBusyS; got != 0.3 {
		t.Errorf("raw compute %vs, want 0.3s", got)
	}
}

// Compute masks DMA: a prefetch hidden under decode is charged to decode
// (hidden, as §5.2 intends); only its exposed tail is weight-load.
func TestPriorityMasking(t *testing.T) {
	eng, l, dev := newLedgerDevice(t)
	comp := dev.NewStream("default")
	pf := dev.NewStream("prefetch")

	comp.SubmitOp(gpu.Compute, 60*time.Millisecond, gpu.OpInfo{Tag: "decode", Model: "m1"})
	pf.SubmitOp(gpu.H2D, 100*time.Millisecond, gpu.OpInfo{Tag: "prefetch m2", Model: "m2"})
	eng.Run()

	now := eng.Now()
	requireConserves(t, l, now)
	if got := l.StateSeconds("dev0", Decode, now); got != 0.06 {
		t.Errorf("decode %vs, want 0.06", got)
	}
	if got := l.StateSeconds("dev0", WeightLoad, now); got != 0.04 {
		t.Errorf("exposed weight-load %vs, want 0.04 (60ms hidden under decode)", got)
	}
}

// After Fault, every subsequent second lands in faulted no matter what else
// the device appears to do, with no double counting.
func TestFaultedTerminal(t *testing.T) {
	eng, l, dev := newLedgerDevice(t)
	s := dev.NewStream("s")
	s.SubmitOp(gpu.Compute, 100*time.Millisecond, gpu.OpInfo{Tag: "decode", Model: "m1"})
	eng.At(40*time.Millisecond, func() { l.Fault("dev0") })
	eng.RunUntil(sim.Time(250 * time.Millisecond))

	now := eng.Now()
	requireConserves(t, l, now)
	if got := l.StateSeconds("dev0", Decode, now); got != 0.04 {
		t.Errorf("decode %vs, want 0.04 (pre-crash only)", got)
	}
	if got := l.StateSeconds("dev0", Faulted, now); got != 0.21 {
		t.Errorf("faulted %vs, want 0.21", got)
	}
	l.Fault("dev0") // idempotent
	requireConserves(t, l, now)
	snap := l.Snapshot(now)
	if !snap.Devices[0].Faulted || snap.Devices[0].Current != "faulted" {
		t.Errorf("snapshot not faulted: %+v", snap.Devices[0])
	}
}

// All exported methods must be no-ops on a nil ledger.
func TestNilLedger(t *testing.T) {
	var l *Ledger
	l.Register("x")
	l.ObserveDevice(nil)
	l.Enter("x", Reinit, "")
	l.Exit("x", Reinit)
	l.Fault("x")
	l.AddTokens("x", "m", 5)
	l.NoteKV("x", 1, 2)
	l.SetRate("x", 3)
	if l.Enabled() {
		t.Error("nil ledger reports enabled")
	}
	if l.Devices() != nil || l.CheckConservation(0) != nil || l.Snapshot(0) != nil {
		t.Error("nil ledger returned non-nil data")
	}
}

func TestSnapshotDerivedMetrics(t *testing.T) {
	eng, l, dev := newLedgerDevice(t)
	dev2 := gpu.NewDevice(eng, "dev1")
	l.ObserveDevice(dev2)
	s := dev.NewStream("s")
	s2 := dev2.NewStream("s")

	s.SubmitOp(gpu.Compute, 100*time.Millisecond, gpu.OpInfo{Tag: "decode", Model: "m1"})
	s2.SubmitOp(gpu.Compute, 300*time.Millisecond, gpu.OpInfo{Tag: "decode", Model: "m2"})
	s2.SubmitOp(gpu.H2D, 100*time.Millisecond, gpu.OpInfo{Tag: "load m2", Model: "m2"})
	eng.RunUntil(sim.Time(time.Second))
	l.AddTokens("dev0", "m1", 50)
	l.AddTokens("dev1", "m2", 300)
	l.NoteKV("dev0", 1<<20, 1<<30)
	l.NoteKV("dev0", 1<<10, 1<<30) // peak must stick at 1MiB
	l.SetRate("dev1", 2.5)

	snap := l.Snapshot(eng.Now())
	if len(snap.ConservationErrors) > 0 {
		t.Fatalf("conservation: %v", snap.ConservationErrors)
	}
	if errs := snap.Validate(); len(errs) > 0 {
		t.Fatalf("validate: %v", errs)
	}
	if snap.Fleet.Devices != 2 || snap.Fleet.GPUSeconds != 2.0 {
		t.Errorf("fleet totals: %+v", snap.Fleet)
	}
	if snap.Devices[0].KVPeakBytes != 1<<20 || snap.Devices[0].KVUsedBytes != 1<<10 {
		t.Errorf("kv watermark: %+v", snap.Devices[0])
	}
	// dev1: cost integrates piecewise — the whole 1s of wall time accrued
	// at the default $1/hr; the $2.5 rate only applies from its edge (the
	// snapshot instant), not retroactively.
	if got, want := snap.Devices[1].CostDollars, 1.0/3600; got != want {
		t.Errorf("dev1 cost %v, want %v", got, want)
	}
	if got := snap.Devices[1].HourlyRate; got != 2.5 {
		t.Errorf("dev1 rate %v, want 2.5", got)
	}
	if len(snap.Models) != 2 {
		t.Fatalf("models: %+v", snap.Models)
	}
	m1, m2 := snap.Models[0], snap.Models[1]
	if m1.Model != "m1" || m2.Model != "m2" {
		t.Fatalf("model order: %+v", snap.Models)
	}
	if m1.TokensPerGPUSecond != 500 { // 50 tokens / 0.1s compute
		t.Errorf("m1 tokens/gpu-s %v, want 500", m1.TokensPerGPUSecond)
	}
	if m2.OccupancyShare != 0.75 { // 300ms of 400ms compute
		t.Errorf("m2 occupancy share %v, want 0.75", m2.OccupancyShare)
	}
	// dev1 switch overhead: 100ms weight-load over 1s wall.
	if got := snap.Devices[1].SwitchRatio; got != 0.1 {
		t.Errorf("dev1 switch ratio %v, want 0.1", got)
	}

	csv := snap.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 4 { // header + 2 devices + fleet
		t.Fatalf("csv lines: %d\n%s", len(lines), csv)
	}
	if !strings.HasPrefix(lines[0], "device,wall_s,idle_s") || !strings.HasPrefix(lines[3], "fleet,") {
		t.Errorf("csv shape:\n%s", csv)
	}
}

// Back-to-back same-state ops coalesce into one heatmap segment.
func TestSegmentCoalescing(t *testing.T) {
	eng, l, dev := newLedgerDevice(t)
	s := dev.NewStream("s")
	for i := 0; i < 5; i++ {
		s.SubmitOp(gpu.Compute, 10*time.Millisecond, gpu.OpInfo{Tag: "decode", Model: "m1"})
	}
	eng.Run()
	snap := l.Snapshot(eng.Now())
	segs := snap.Devices[0].Segments
	if len(segs) != 1 {
		t.Fatalf("segments: %+v", segs)
	}
	if segs[0].State != "decode" || segs[0].StartS != 0 || segs[0].EndS != 0.05 {
		t.Errorf("coalesced segment: %+v", segs[0])
	}
}

// The segment ring stays bounded and keeps the most recent history.
func TestSegmentRingBounded(t *testing.T) {
	eng, l, dev := newLedgerDevice(t)
	s := dev.NewStream("s")
	var submit func(i int)
	submit = func(i int) {
		if i >= 3*maxSegments {
			return
		}
		tag := "decode"
		if i%2 == 0 {
			tag = "prefill"
		}
		s.SubmitOp(gpu.Compute, time.Microsecond, gpu.OpInfo{Tag: tag, Model: "m"}, func() { submit(i + 1) })
	}
	submit(0)
	eng.Run()
	requireConserves(t, l, eng.Now())
	snap := l.Snapshot(eng.Now())
	d := snap.Devices[0]
	if len(d.Segments) > maxSegments+1 {
		t.Errorf("ring unbounded: %d segments", len(d.Segments))
	}
	if d.SegmentsLost == 0 {
		t.Error("expected dropped segments to be counted")
	}
	last := d.Segments[len(d.Segments)-1]
	if last.EndS != d.WallS {
		t.Errorf("most recent history missing: last end %v, wall %v", last.EndS, d.WallS)
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		k    gpu.EngineKind
		tag  string
		want State
	}{
		{gpu.Compute, "prefill", Prefill},
		{gpu.Compute, "decode", Decode},
		{gpu.Compute, "compact m1", Compact},
		{gpu.Compute, "compact residents", Compact},
		{gpu.Compute, "mystery-kernel", Decode},
		{gpu.H2D, "load m1", WeightLoad},
		{gpu.H2D, "prefetch m1", WeightLoad},
		{gpu.H2D, "kv-in r1", KVTransfer},
		{gpu.H2D, "prefix-reuse", KVTransfer},
		{gpu.D2H, "kv-out r1", KVTransfer},
	}
	for _, c := range cases {
		if got := Classify(c.k, gpu.OpInfo{Tag: c.tag}); got != c.want {
			t.Errorf("Classify(%v, %q) = %v, want %v", c.k, c.tag, got, c.want)
		}
	}
}

// Mid-run rate changes must integrate cost piecewise at the change edges:
// one hour at $1 then one hour at $5 is $6, not $10 (the latest rate applied
// retroactively — the bug this test pins down).
func TestSetRatePiecewiseCost(t *testing.T) {
	eng := sim.NewEngine(1)
	l := New(eng)
	l.Register("dev0")

	eng.At(time.Hour, func() { l.SetRate("dev0", 5) })
	eng.At(2*time.Hour, func() {}) // run the clock out to t=2h
	eng.Run()

	snap := l.Snapshot(eng.Now())
	if len(snap.Devices) != 1 {
		t.Fatalf("%d devices", len(snap.Devices))
	}
	d := snap.Devices[0]
	// Hour 1 at DefaultHourlyRate ($1) + hour 2 at $5.
	want := 1.0*DefaultHourlyRate + 1.0*5
	if diff := d.CostDollars - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("cost = $%.6f, want $%.6f (retroactive rate?)", d.CostDollars, want)
	}
	if d.HourlyRate != 5 {
		t.Fatalf("hourly rate = %g, want 5", d.HourlyRate)
	}
	if snap.Fleet.CostDollars != d.CostDollars {
		t.Fatalf("fleet cost %g != device cost %g", snap.Fleet.CostDollars, d.CostDollars)
	}
}

// Several edges, including repeated rates and a same-instant double set.
func TestSetRateManyEdges(t *testing.T) {
	eng := sim.NewEngine(1)
	l := New(eng)
	l.Register("dev0")

	eng.At(30*time.Minute, func() { l.SetRate("dev0", 2) })
	eng.At(45*time.Minute, func() {
		l.SetRate("dev0", 8)
		l.SetRate("dev0", 4) // immediately corrected: zero-width segment at 8
	})
	eng.At(60*time.Minute, func() {})
	eng.Run()

	// 30m at $1 + 15m at $2 + 15m at $4 = 0.5 + 0.5 + 1.0.
	want := 2.0
	got := l.Snapshot(eng.Now()).Devices[0].CostDollars
	if diff := got - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("cost = $%.6f, want $%.6f", got, want)
	}
}
