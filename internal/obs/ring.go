package obs

import (
	"fmt"
	"strings"
	"time"
)

// Kind classifies a flat ring event.
type Kind uint8

// Event kinds emitted by the serving stack.
const (
	KindArrival Kind = iota
	KindPrefillEnqueue
	KindPrefillStart
	KindPrefillDone
	KindDecodeEnqueue
	KindTurnStart
	KindTurnEnd
	KindSwitchStart
	KindSwitchDone
	KindSwapOut
	KindSwapIn
	KindTokenBatch
	KindRequestDone
	KindEvict
	KindFailure
	KindRecovery
	KindRetry
	KindPrefix
	numKinds
)

var kindNames = [...]string{
	"arrival", "prefill-enqueue", "prefill-start", "prefill-done",
	"decode-enqueue", "turn-start", "turn-end", "switch-start",
	"switch-done", "swap-out", "swap-in", "token-batch", "request-done",
	"evict", "failure", "recovery", "retry", "prefix",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one flat ring record: a scheduler or fault event with its
// virtual timestamp.
type Event struct {
	At       time.Duration // virtual time
	Kind     Kind
	Instance string // instance name ("" for system-level events)
	Subject  string // request id or model name
	Detail   string // free-form; keep short
}

func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%12.6fs %-16s", e.At.Seconds(), e.Kind)
	if e.Instance != "" {
		fmt.Fprintf(&b, " %-10s", e.Instance)
	}
	if e.Subject != "" {
		fmt.Fprintf(&b, " %s", e.Subject)
	}
	if e.Detail != "" {
		fmt.Fprintf(&b, " (%s)", e.Detail)
	}
	return b.String()
}

// eventRing is the collector's bounded flat event store, guarded by the
// collector's mutex: it retains the most recent cap(buf) events and counts
// every event ever emitted, per kind.
type eventRing struct {
	buf    []Event
	next   int
	total  uint64
	counts [numKinds]uint64
}

func (r *eventRing) push(e Event) {
	r.total++
	if int(e.Kind) < len(r.counts) {
		r.counts[e.Kind]++
	}
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
		return
	}
	r.buf[r.next] = e
	r.next = (r.next + 1) % cap(r.buf)
}

// emit records a flat event. Nil-safe.
func (c *Collector) emit(e Event) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ring.push(e)
}

// Events returns the retained flat events in emission order (nil on a nil
// collector).
func (c *Collector) Events() []Event {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	r := &c.ring
	out := make([]Event, 0, len(r.buf))
	if len(r.buf) < cap(r.buf) {
		return append(out, r.buf...)
	}
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// EventsTotal returns the number of flat events ever emitted, including
// those the ring has since overwritten.
func (c *Collector) EventsTotal() uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ring.total
}

// EventCount returns how many flat events of kind k were emitted.
func (c *Collector) EventCount(k Kind) uint64 {
	if c == nil || int(k) >= int(numKinds) {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ring.counts[k]
}

// EventSummary renders the per-kind event counters.
func (c *Collector) EventSummary() string {
	if c == nil {
		return "trace: disabled"
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "trace: %d events total", c.ring.total)
	for k := Kind(0); k < numKinds; k++ {
		if c.ring.counts[k] > 0 {
			fmt.Fprintf(&b, ", %s=%d", k, c.ring.counts[k])
		}
	}
	return b.String()
}
