package slo

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"aegaeon/internal/workload"
)

func TestLedgerKeysModels(t *testing.T) {
	var l Ledger
	s := Default()
	l.Observe("a", workload.PriorityNormal, s, 0, []time.Duration{time.Second}, 0)
	l.Observe("a", workload.PriorityNormal, s, 0, []time.Duration{20 * time.Second}, 0) // miss
	l.Observe("b", workload.PriorityHigh, s, 0, []time.Duration{time.Second}, 0)
	l.Observe("c", workload.PriorityLow, s, 0, nil, 1)

	if att := l.Model("a").Attainment(); att != 0.5 {
		t.Fatalf("model a attainment = %v, want 0.5", att)
	}
	if att := l.Model("b").Attainment(); att != 1 {
		t.Fatalf("model b attainment = %v, want 1", att)
	}
	if reqs := l.Model("c").Requests(); reqs != 1 {
		t.Fatalf("model c requests = %d, want 1", reqs)
	}
	if l.Model("d") != nil {
		t.Fatal("unjudged model has a view")
	}
	if met, missed := l.Fleet().Tokens(); met != 2 || missed != 2 || l.Fleet().Requests() != 4 {
		t.Fatalf("fleet = %d met / %d missed over %d requests, want 2/2 over 4",
			met, missed, l.Fleet().Requests())
	}
	for _, c := range []struct {
		p           workload.Priority
		met, missed uint64
	}{{workload.PriorityHigh, 1, 0}, {workload.PriorityNormal, 1, 1}, {workload.PriorityLow, 0, 1}} {
		if met, missed := l.Tier(c.p); met != c.met || missed != c.missed {
			t.Fatalf("tier %v = %d/%d, want %d/%d", c.p, met, missed, c.met, c.missed)
		}
	}
}

func TestLedgerModelsSorted(t *testing.T) {
	var l Ledger
	for _, m := range []string{"z", "a", "m"} {
		l.Observe(m, workload.PriorityNormal, Default(), 0, nil, 1)
	}
	if got := l.Models(); len(got) != 3 || got[0] != "a" || got[1] != "m" || got[2] != "z" {
		t.Fatalf("Models() = %v, want sorted [a m z]", got)
	}
}

func TestLedgerZeroValueUsable(t *testing.T) {
	var l Ledger
	if l.Fleet().Attainment() != 1 || len(l.Models()) != 0 {
		t.Fatal("empty ledger is not vacuously perfect and empty")
	}
	l.Observe("m", workload.PriorityNormal, Default(), 0, nil, 1)
	if l.Model("m").Requests() != 1 {
		t.Fatal("zero-value Ledger lost an observation")
	}
}

func TestLedgerDroppedTokensFailTheRequest(t *testing.T) {
	// Two on-time tokens, then the request died owing three: five tokens
	// judged, three missed, one request that did not meet every deadline.
	var l Ledger
	l.Observe("m", workload.PriorityNormal, Default(), 0,
		[]time.Duration{time.Second, 1100 * time.Millisecond}, 3)
	f := l.Fleet()
	if met, missed := f.Tokens(); met != 2 || missed != 3 {
		t.Fatalf("tokens = %d/%d, want 2/3", met, missed)
	}
	if f.Requests() != 1 || f.RequestAttainment() != 0 {
		t.Fatalf("requests = %d, request attainment %v; want 1, 0", f.Requests(), f.RequestAttainment())
	}
	if f.TTFTAttainment() != 1 {
		t.Fatalf("TTFT attainment = %v, want 1", f.TTFTAttainment())
	}
}

// TestLedgerConcurrent hammers per-model observation against enumeration;
// run with -race. The per-model totals must balance exactly.
func TestLedgerConcurrent(t *testing.T) {
	var l Ledger
	s := Default()
	const writers = 8
	const perWriter = 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			model := fmt.Sprintf("m%d", w%4)
			for i := 0; i < perWriter; i++ {
				l.Observe(model, workload.Priority(w%workload.NumPriorities), s, 0, []time.Duration{time.Second}, 0)
				_ = l.Model(model).Attainment()
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			for _, m := range l.Models() {
				_ = l.Model(m).Requests()
			}
			_, _ = l.Tier(workload.PriorityHigh)
		}
	}()
	wg.Wait()
	<-done
	var total uint64
	for _, m := range l.Models() {
		total += l.Model(m).Requests()
	}
	if total != writers*perWriter || l.Fleet().Requests() != total {
		t.Fatalf("model requests sum to %d, fleet %d, want %d", total, l.Fleet().Requests(), writers*perWriter)
	}
}

func TestTrackerMerge(t *testing.T) {
	s := Default()
	var a, b, ref Tracker
	a.ObserveRequest(s, 0, []time.Duration{time.Second, 20 * time.Second})
	ref.ObserveRequest(s, 0, []time.Duration{time.Second, 20 * time.Second})
	b.ObserveRequest(s, 0, []time.Duration{3 * time.Second})
	ref.ObserveRequest(s, 0, []time.Duration{3 * time.Second})
	b.ObserveDropped()
	ref.ObserveDropped()
	var m Tracker
	m.Merge(&a)
	m.Merge(&b)
	gm, gx := m.Tokens()
	rm, rx := ref.Tokens()
	if gm != rm || gx != rx || m.Requests() != ref.Requests() ||
		m.RequestAttainment() != ref.RequestAttainment() || m.MeanTTFT() != ref.MeanTTFT() ||
		m.TTFTQuantile(0.99) != ref.TTFTQuantile(0.99) {
		t.Fatalf("merged tracker differs from one fed every observation")
	}
}

// TestTrackerConcurrent verifies the Tracker itself under concurrent
// observation and reads (the live gateway reads attainment while the
// simulation goroutine observes).
func TestTrackerConcurrent(t *testing.T) {
	tr := NewTracker()
	s := Default()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				tr.ObserveRequest(s, 0, []time.Duration{time.Duration(i) * time.Millisecond})
				_ = tr.Attainment()
				_ = tr.TTFTQuantile(0.99)
				_ = tr.MeanTTFT()
			}
		}()
	}
	wg.Wait()
	if tr.Requests() != 4000 {
		t.Fatalf("requests = %d, want 4000", tr.Requests())
	}
}

// TestTrackerTTFTQuantileBounded checks that the reservoir-backed quantile
// stays sane far past the retention cap.
func TestTrackerTTFTQuantileBounded(t *testing.T) {
	tr := NewTracker()
	s := Default()
	// 3x the reservoir cap, all TTFTs exactly 1s: any reservoir subsample
	// still yields exactly 1s at every quantile.
	for i := 0; i < 3*maxTTFTSamples; i++ {
		tr.ObserveRequest(s, 0, []time.Duration{time.Second})
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := tr.TTFTQuantile(q); got != time.Second {
			t.Fatalf("TTFTQuantile(%v) = %v, want 1s", q, got)
		}
	}
}
