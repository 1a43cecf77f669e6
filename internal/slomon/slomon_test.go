package slomon

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"aegaeon/internal/slo"
	"aegaeon/internal/workload"
)

func TestNilMonitorIsSafe(t *testing.T) {
	var m *Monitor
	m.ObserveToken(TokenObs{Model: "m0"})
	m.ObserveDropped("m0", "r1", "g0", 0, time.Second, 2*time.Second)
	m.Advance(time.Second)
	if m.Snapshot(time.Second) != nil {
		t.Fatal("nil monitor snapshot != nil")
	}
	if m.FleetAlert() != AlertOK {
		t.Fatal("nil monitor alert != ok")
	}
}

func TestMonitorCountsAndCauseSum(t *testing.T) {
	m := New(Config{Objective: 0.99})
	// 3 met, 2 missed (source nil -> unknown cause), 1 dropped.
	for i := 0; i < 3; i++ {
		at := time.Duration(i+1) * time.Second
		m.ObserveToken(TokenObs{Model: "m0", Request: "r1", Index: i,
			Deadline: at + time.Second, At: at, Prev: at - time.Second})
	}
	for i := 0; i < 2; i++ {
		at := time.Duration(i+4) * time.Second
		m.ObserveToken(TokenObs{Model: "m0", Request: "r1", Index: i + 3,
			Deadline: at - time.Second, At: at, Prev: at - time.Second})
	}
	m.ObserveDropped("m0", "r2", "g0", 0, 5*time.Second, 6*time.Second)

	snap := m.Snapshot(6 * time.Second)
	if snap.Fleet.TokensMet != 3 || snap.Fleet.TokensMissed != 3 {
		t.Fatalf("fleet = %d met / %d missed, want 3/3", snap.Fleet.TokensMet, snap.Fleet.TokensMissed)
	}
	if n := snap.Fleet.Causes["unknown"]; n != 3 {
		t.Fatalf("unknown causes = %d, want 3 (nil source)", n)
	}
	if err := Validate(snap); err != nil {
		t.Fatal(err)
	}
	// Model scope mirrors the fleet for a single-model stream.
	if len(snap.Models) != 1 || snap.Models[0].Model != "m0" {
		t.Fatalf("models = %+v", snap.Models)
	}
	if snap.Models[0].TokensMissed != 3 {
		t.Fatalf("model missed = %d, want 3", snap.Models[0].TokensMissed)
	}
}

func TestMonitorTTFTAndTBTSketches(t *testing.T) {
	m := New(Config{})
	// Token 0 at 2s after a 0s arrival: TTFT sample of 2s.
	m.ObserveToken(TokenObs{Model: "m0", Request: "r1", Index: 0,
		Arrival: 0, Deadline: 10 * time.Second, At: 2 * time.Second})
	// Token 1 100ms later: TBT sample of 100ms.
	m.ObserveToken(TokenObs{Model: "m0", Request: "r1", Index: 1,
		Arrival: 0, Deadline: 10 * time.Second, At: 2100 * time.Millisecond, Prev: 2 * time.Second})
	snap := m.Snapshot(3 * time.Second)
	if snap.Fleet.TTFT.Count != 1 || snap.Fleet.TTFT.P50S < 1.9 || snap.Fleet.TTFT.P50S > 2.1 {
		t.Fatalf("TTFT stats = %+v, want one ~2s sample", snap.Fleet.TTFT)
	}
	if snap.Fleet.TBT.Count != 1 || snap.Fleet.TBT.P50S < 0.09 || snap.Fleet.TBT.P50S > 0.11 {
		t.Fatalf("TBT stats = %+v, want one ~100ms sample", snap.Fleet.TBT)
	}
}

func TestAttachCumulativeFromLedger(t *testing.T) {
	// The cumulative blocks are views of the ledger, attached as they are:
	// the fleet block from the fleet view, each model block from its model's
	// view, and no block for a scope the ledger never judged.
	m := New(Config{})
	for _, model := range []string{"m0", "m1"} {
		m.ObserveToken(TokenObs{Model: model, Request: "r", Deadline: time.Second, At: time.Second})
	}
	var l slo.Ledger
	s := slo.Default()
	l.Observe("m0", workload.PriorityNormal, s, 0, []time.Duration{time.Second, 1100 * time.Millisecond}, 0)
	l.Observe("m0", workload.PriorityNormal, s, 0, []time.Duration{20 * time.Second}, 2) // TTFT miss, died
	snap := m.Snapshot(30 * time.Second)
	snap.AttachCumulative(l.Fleet(), l.Model)
	cum := snap.Fleet.Cumulative
	if cum == nil {
		t.Fatal("no fleet cumulative block")
	}
	met, missed := l.Fleet().Tokens()
	if cum.Requests != 2 || cum.TokensMet != met || cum.TokensMissed != missed ||
		cum.Attainment != l.Fleet().Attainment() || cum.RequestAttainment != 0.5 ||
		cum.TTFTAttainment != 0.5 {
		t.Fatalf("fleet block %+v does not match the ledger (%d/%d)", *cum, met, missed)
	}
	if snap.Models[0].Cumulative == nil || *snap.Models[0].Cumulative != *cum {
		t.Fatalf("m0 block %+v, want the fleet's %+v", snap.Models[0].Cumulative, *cum)
	}
	if snap.Models[1].Cumulative != nil {
		t.Fatalf("m1 was never judged but has block %+v", *snap.Models[1].Cumulative)
	}
	if err := Validate(snap); err != nil {
		t.Fatal(err)
	}
	var nilSnap *Snapshot
	nilSnap.AttachCumulative(l.Fleet(), l.Model) // must not panic
}

func TestDroppedFutureDeadlineBucketsAtJudgement(t *testing.T) {
	// A failed request's future tokens are judged lost *now*; their misses
	// must land in the current bucket, not a future one the window will
	// never reach consistently.
	m := New(Config{Bucket: time.Second, FastWindow: 5 * time.Second})
	m.ObserveDropped("m0", "r1", "", 0, 100*time.Second, 3*time.Second)
	snap := m.Snapshot(3 * time.Second)
	var fast WindowStats
	for _, w := range snap.Fleet.Windowed {
		if w.Window == "fast" {
			fast = w
		}
	}
	if fast.Missed != 1 {
		t.Fatalf("fast window missed = %d, want the future-deadline drop counted now", fast.Missed)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	m := New(Config{})
	m.ObserveToken(TokenObs{Model: "m0", Request: "r1", Index: 0,
		Deadline: time.Second, At: 2 * time.Second})
	snap := m.Snapshot(2 * time.Second)
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if err := Validate(&back); err != nil {
		t.Fatalf("round-tripped snapshot invalid: %v", err)
	}
	if back.Fleet.TokensMissed != 1 {
		t.Fatalf("round trip lost counts: %+v", back.Fleet)
	}
}

func TestValidateRejectsBrokenSnapshots(t *testing.T) {
	good := func() *Snapshot {
		m := New(Config{})
		m.ObserveToken(TokenObs{Model: "m0", Request: "r1",
			Deadline: time.Second, At: 2 * time.Second})
		return m.Snapshot(2 * time.Second)
	}
	cases := []struct {
		name  string
		mutil func(*Snapshot)
	}{
		{"wrong version", func(s *Snapshot) { s.SchemaVersion = 99 }},
		{"bad objective", func(s *Snapshot) { s.Objective = 1.5 }},
		{"missing window", func(s *Snapshot) { s.Windows = s.Windows[:2] }},
		{"bad alert state", func(s *Snapshot) { s.Fleet.Alert.State = "panic" }},
		{"cause sum mismatch", func(s *Snapshot) { s.Fleet.Causes["unknown"] = 42 }},
		{"unknown cause", func(s *Snapshot) {
			delete(s.Fleet.Causes, "unknown")
			s.Fleet.Causes["gremlins"] = 1
		}},
		{"unnamed model scope", func(s *Snapshot) {
			s.Models = append(s.Models, ScopeSnapshot{})
		}},
		{"inconsistent attainment", func(s *Snapshot) { s.Fleet.Windowed[0].Attainment = 0.123 }},
		{"inconsistent cumulative attainment", func(s *Snapshot) {
			s.Fleet.Cumulative = &CumulativeStats{Requests: 1, TokensMet: 1, TokensMissed: 1, Attainment: 0.9}
		}},
		{"cumulative request attainment out of range", func(s *Snapshot) {
			s.Fleet.Cumulative = &CumulativeStats{Requests: 1, TokensMet: 1, Attainment: 1, RequestAttainment: 1.5}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := good()
			tc.mutil(s)
			if err := Validate(s); err == nil {
				t.Fatal("validation passed on a broken snapshot")
			}
		})
	}
	if err := Validate(nil); err == nil {
		t.Fatal("nil snapshot validated")
	}
}

// TestConcurrentObserveAndSnapshot hammers window rotation against snapshot
// reads; run with -race. Counts must balance exactly at the end.
func TestConcurrentObserveAndSnapshot(t *testing.T) {
	m := New(Config{Bucket: time.Millisecond, FastWindow: 10 * time.Millisecond,
		MidWindow: 50 * time.Millisecond, SlowWindow: 100 * time.Millisecond})
	const writers = 4
	const perWriter = 2000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			model := fmt.Sprintf("m%d", w%2)
			for i := 0; i < perWriter; i++ {
				at := time.Duration(i) * 100 * time.Microsecond
				dl := at + time.Millisecond
				if i%10 == 0 {
					dl = at - time.Millisecond
				}
				m.ObserveToken(TokenObs{Model: model, Request: "r", Index: i,
					Deadline: dl, At: at, Prev: at - time.Microsecond})
			}
		}(w)
	}
	var rg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := m.Snapshot(time.Second)
				if err := Validate(snap); err != nil {
					t.Error(err)
					return
				}
				m.Advance(time.Second)
			}
		}()
	}
	wg.Wait()
	close(stop)
	rg.Wait()
	snap := m.Snapshot(time.Second)
	total := snap.Fleet.TokensMet + snap.Fleet.TokensMissed
	if total != writers*perWriter {
		t.Fatalf("total tokens = %d, want %d", total, writers*perWriter)
	}
	if snap.Fleet.TokensMissed != writers*perWriter/10 {
		t.Fatalf("missed = %d, want %d", snap.Fleet.TokensMissed, writers*perWriter/10)
	}
	if err := Validate(snap); err != nil {
		t.Fatal(err)
	}
}

func TestConfigDefaultsAndMonotoneWindows(t *testing.T) {
	m := New(Config{})
	cfg := m.Config()
	if cfg.Objective != 0.99 || cfg.Bucket != time.Second ||
		cfg.FastWindow != time.Minute || cfg.MidWindow != 5*time.Minute ||
		cfg.SlowWindow != 30*time.Minute || cfg.PageBurn != 14.4 || cfg.WarnBurn != 3 {
		t.Fatalf("defaults = %+v", cfg)
	}
	// Windows are forced monotone: slow >= mid >= fast.
	c2 := New(Config{FastWindow: 10 * time.Minute, MidWindow: time.Minute, SlowWindow: time.Second}).Config()
	if c2.MidWindow < c2.FastWindow || c2.SlowWindow < c2.MidWindow {
		t.Fatalf("windows not monotone: %v/%v/%v", c2.FastWindow, c2.MidWindow, c2.SlowWindow)
	}
}
