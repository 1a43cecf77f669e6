package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRingNilCollectorIsNoop(t *testing.T) {
	var c *Collector
	c.Fault("d0", "crash", "", 0)
	c.Retry("d0", "fetch", 0)
	if c.EventsTotal() != 0 || c.EventCount(KindFailure) != 0 || c.Events() != nil {
		t.Fatal("nil collector recorded an event")
	}
	if c.EventSummary() != "trace: disabled" {
		t.Fatalf("nil summary = %q", c.EventSummary())
	}
}

func TestRingEviction(t *testing.T) {
	c := New(Options{RingCapacity: 4})
	for i := 0; i < 10; i++ {
		c.emit(Event{At: time.Duration(i) * time.Second, Kind: KindTokenBatch})
	}
	evs := c.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d, want 4", len(evs))
	}
	// Oldest retained is event 6 (0-indexed), newest is 9, in order.
	for i, e := range evs {
		if want := time.Duration(6+i) * time.Second; e.At != want {
			t.Fatalf("event %d at %v, want %v", i, e.At, want)
		}
	}
	if c.EventsTotal() != 10 || c.EventCount(KindTokenBatch) != 10 {
		t.Fatalf("counters = %d/%d", c.EventsTotal(), c.EventCount(KindTokenBatch))
	}
}

func TestRingCapacityDefault(t *testing.T) {
	if c := New(Options{}); cap(c.ring.buf) != 16384 {
		t.Fatalf("default ring capacity = %d, want 16384", cap(c.ring.buf))
	}
}

func TestRingEventStringAndSummary(t *testing.T) {
	c := New(Options{})
	c.TurnStart("decode0", "Qwen-7B", 1500*time.Millisecond, 2*time.Second, []string{"a", "b", "c"})
	evs := c.Events()
	if len(evs) != 1 {
		t.Fatalf("retained %d events, want 1", len(evs))
	}
	out := evs[0].String()
	for _, want := range []string{"1.500000s", "turn-start", "decode0", "Qwen-7B", "(3 reqs, quota 2.00s)"} {
		if !strings.Contains(out, want) {
			t.Errorf("event string missing %q: %s", want, out)
		}
	}
	if got := c.EventSummary(); got != "trace: 1 events total, turn-start=1" {
		t.Errorf("summary = %q", got)
	}
}

func TestKindStrings(t *testing.T) {
	if KindArrival.String() != "arrival" || KindFailure.String() != "failure" {
		t.Fatal("kind names wrong")
	}
	if !strings.HasPrefix(Kind(200).String(), "kind(") {
		t.Fatal("unknown kind rendering")
	}
	if int(numKinds) != len(kindNames) {
		t.Fatalf("%d kinds, %d names", numKinds, len(kindNames))
	}
}

// TestRingConcurrentEmitAndSnapshot drives writers (the simulation
// goroutine) and readers (debug handlers) at the same time; run under -race
// it proves the ring shares the collector's locking, and afterwards the
// wraparound invariants and per-kind counters must be exact.
func TestRingConcurrentEmitAndSnapshot(t *testing.T) {
	const (
		capacity   = 64
		writers    = 4
		perWriter  = 500
		readRounds = 200
	)
	c := New(Options{RingCapacity: capacity})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				k := Kind(i % int(numKinds))
				c.emit(Event{At: time.Duration(i), Kind: k, Instance: "d0"})
				if i%50 == 0 {
					c.RequestArrived("r", "m", time.Duration(i)) // a timeline write under the same lock
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < readRounds; i++ {
			evs := c.Events()
			if len(evs) > capacity {
				t.Errorf("snapshot holds %d events, cap %d", len(evs), capacity)
				return
			}
			_ = c.EventsTotal()
			_ = c.EventCount(KindArrival)
			_ = c.EventSummary()
		}
	}()
	wg.Wait()

	arrivals := uint64(writers * ((perWriter + 49) / 50))
	if got := c.EventsTotal(); got != writers*perWriter+arrivals {
		t.Fatalf("total = %d, want %d", got, writers*perWriter+arrivals)
	}
	if evs := c.Events(); len(evs) != capacity {
		t.Fatalf("retained %d, want full ring of %d", len(evs), capacity)
	}
	var sum uint64
	for k := Kind(0); k < numKinds; k++ {
		sum += c.EventCount(k)
	}
	if sum != c.EventsTotal() {
		t.Fatalf("per-kind counters sum to %d, total %d", sum, c.EventsTotal())
	}
	// Each writer emits perWriter/numKinds (rounded up) events of each kind.
	want := uint64(writers)*uint64((perWriter+int(numKinds)-1)/int(numKinds)) + arrivals
	if got := c.EventCount(KindArrival); got != want {
		t.Fatalf("KindArrival count = %d, want %d", got, want)
	}
}
