// Package obs is the observability layer of the serving stack: span-based
// request timelines threaded from the gateway through admission, the
// prefill/decode schedulers, and the simulated GPU substrate; per-device
// engine op timelines; and a switch-cost attributor that decomposes every
// preemptive auto-scaling switch into its §5 stages and charges the exposed
// stall to the victim requests.
//
// The Collector is the single sink. It is nil-safe everywhere — a nil
// *Collector records nothing and allocates nothing, so the serving hot paths
// pay one pointer comparison when observability is off. Flat events live in
// the collector's own bounded ring, under the same lock as the timelines
// (one event model, not two): every collector method that corresponds to a
// scheduler event also records the matching Event there.
//
// Everything the collector retains is bounded: the flat event ring, request
// timelines, per-engine op rings, switch records, and per-request token
// stamps all have caps, so a long-running gateway's memory stays flat.
package obs

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"aegaeon/internal/gpu"
	"aegaeon/internal/sim"
)

// Span is one closed interval of a request's lifecycle. Detail optionally
// refines the span (a switch-stall span carries the dominant switch stage,
// so SLO miss attribution can tell a reinit stall from a weight-load stall).
type Span struct {
	Name   string   `json:"name"`
	Detail string   `json:"detail,omitempty"`
	Start  sim.Time `json:"start_ns"`
	End    sim.Time `json:"end_ns"`
}

// RequestTimeline is the span tree of one request: arrival, queue-wait,
// prefill, decode-wait, per-turn decode spans, and switch-stall charges, plus
// (capped) per-token completion stamps.
type RequestTimeline struct {
	ID      string   `json:"id"`
	Model   string   `json:"model"`
	Arrival sim.Time `json:"arrival_ns"`
	Spans   []Span   `json:"spans"`
	// Tokens holds the first MaxTokensPerRequest token completion times;
	// TokensTotal counts all of them.
	Tokens      []sim.Time    `json:"tokens_ns"`
	TokensTotal int           `json:"tokens_total"`
	SwitchStall time.Duration `json:"switch_stall_ns"`
	Done        bool          `json:"done"`
	Finished    sim.Time      `json:"finished_ns"`

	// open spans by name; nil once closed. Not exported.
	open map[string]sim.Time
}

// SwitchStage is one stage of a model switch (§5): reinit (or gc-pause),
// weight fetch/load, on-device compaction, activation, or exposed KV sync.
type SwitchStage struct {
	Name  string   `json:"name"`
	Start sim.Time `json:"start_ns"`
	End   sim.Time `json:"end_ns"`
}

// SwitchRecord decomposes one preemptive auto-scaling switch: which instance
// switched from which model to which, when, through which stages, and which
// victim requests were stalled by it.
type SwitchRecord struct {
	Instance      string        `json:"instance"`
	From          string        `json:"from"`
	To            string        `json:"to"`
	Start         sim.Time      `json:"start_ns"`
	End           sim.Time      `json:"end_ns"`
	ReinitAvoided bool          `json:"reinit_avoided"`
	Stages        []SwitchStage `json:"stages"`
	Victims       []string      `json:"victims"`
	// DominantStage names the longest stage, settled at EndSwitch — the
	// attribution label for stalls this switch exposed.
	DominantStage string `json:"dominant_stage,omitempty"`
	// Stall is End-Start: the exposed scale-up latency charged to each
	// victim request's timeline.
	Stall time.Duration `json:"stall_ns"`
	done  bool
}

// deviceTimeline holds one bounded op ring per hardware engine of a device.
type deviceTimeline struct {
	name    string
	engines [3]opRing
}

type opRing struct {
	buf   []gpu.OpRecord
	next  int
	total uint64
}

func (r *opRing) push(rec gpu.OpRecord, capacity int) {
	if len(r.buf) < capacity {
		r.buf = append(r.buf, rec)
	} else {
		r.buf[r.next] = rec
		r.next = (r.next + 1) % capacity
	}
	r.total++
}

// ordered returns the retained records in emission order.
func (r *opRing) ordered() []gpu.OpRecord {
	out := make([]gpu.OpRecord, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// Options bounds the collector's retention.
type Options struct {
	// RingCapacity bounds the flat event ring (default 16384).
	RingCapacity int
	// MaxRequests bounds retained request timelines (default 2048). When
	// full, the oldest completed timeline is evicted (oldest overall if none
	// completed).
	MaxRequests int
	// MaxOpsPerEngine bounds each device engine's op ring (default 8192).
	MaxOpsPerEngine int
	// MaxTokensPerRequest bounds per-request token stamps (default 256).
	MaxTokensPerRequest int
	// MaxSwitches bounds retained switch records (default 2048).
	MaxSwitches int
}

func (o *Options) defaults() {
	if o.RingCapacity <= 0 {
		o.RingCapacity = 16384
	}
	if o.MaxRequests <= 0 {
		o.MaxRequests = 2048
	}
	if o.MaxOpsPerEngine <= 0 {
		o.MaxOpsPerEngine = 8192
	}
	if o.MaxTokensPerRequest <= 0 {
		o.MaxTokensPerRequest = 256
	}
	if o.MaxSwitches <= 0 {
		o.MaxSwitches = 2048
	}
}

// Collector receives observability signals from every layer. All methods are
// safe on a nil receiver (no-ops) and safe for concurrent use: the
// simulation goroutine writes while debug handlers snapshot.
type Collector struct {
	opts Options

	mu       sync.Mutex
	ring     eventRing
	reqs     map[string]*RequestTimeline
	reqOrder []string // admission order, for eviction
	devs     map[string]*deviceTimeline
	devOrder []string
	switches []*SwitchRecord
	swNext   int
	swTotal  uint64
	open     map[string]*SwitchRecord // instance -> in-flight switch
	turnSet  map[string][]string      // instance -> request ids of current turn
}

// New builds a collector.
func New(opts Options) *Collector {
	opts.defaults()
	return &Collector{
		opts:    opts,
		ring:    eventRing{buf: make([]Event, 0, opts.RingCapacity)},
		reqs:    map[string]*RequestTimeline{},
		devs:    map[string]*deviceTimeline{},
		open:    map[string]*SwitchRecord{},
		turnSet: map[string][]string{},
	}
}

// ObserveDevice registers the collector as d's op observer and creates its
// timeline. Nil-safe (leaves the device unobserved).
func (c *Collector) ObserveDevice(d *gpu.Device) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if _, ok := c.devs[d.Name]; !ok {
		c.devs[d.Name] = &deviceTimeline{name: d.Name}
		c.devOrder = append(c.devOrder, d.Name)
	}
	c.mu.Unlock()
	d.Observe(c.recordOp)
}

func (c *Collector) recordOp(d *gpu.Device, rec gpu.OpRecord) {
	c.mu.Lock()
	defer c.mu.Unlock()
	dt := c.devs[d.Name]
	if dt == nil {
		return
	}
	if int(rec.Engine) < len(dt.engines) {
		dt.engines[rec.Engine].push(rec, c.opts.MaxOpsPerEngine)
	}
}

// timeline returns (creating if asked) the request's timeline. Caller holds
// c.mu.
func (c *Collector) timeline(id string) *RequestTimeline {
	return c.reqs[id]
}

func (c *Collector) evictLocked() {
	for len(c.reqOrder) > c.opts.MaxRequests {
		victim := -1
		for i, id := range c.reqOrder {
			if t := c.reqs[id]; t == nil || t.Done {
				victim = i
				break
			}
		}
		if victim < 0 {
			victim = 0 // nothing completed: evict the oldest outright
		}
		delete(c.reqs, c.reqOrder[victim])
		c.reqOrder = append(c.reqOrder[:victim], c.reqOrder[victim+1:]...)
	}
}

// RequestArrived opens a request timeline and its queue-wait span.
func (c *Collector) RequestArrived(id, model string, at sim.Time) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ring.push(Event{At: at, Kind: KindArrival, Subject: id, Detail: model})
	if _, ok := c.reqs[id]; ok {
		return // re-dispatch after failover: keep the original timeline
	}
	c.reqs[id] = &RequestTimeline{
		ID: id, Model: model, Arrival: at,
		open: map[string]sim.Time{"queue-wait": at},
	}
	c.reqOrder = append(c.reqOrder, id)
	c.evictLocked()
}

// openSpan opens a named span on the request (caller holds c.mu).
func (t *RequestTimeline) openSpan(name string, at sim.Time) {
	if t.open == nil {
		t.open = map[string]sim.Time{}
	}
	if _, ok := t.open[name]; !ok {
		t.open[name] = at
	}
}

// closeSpan closes a named span if open (caller holds c.mu).
func (t *RequestTimeline) closeSpan(name string, at sim.Time) {
	start, ok := t.open[name]
	if !ok {
		return
	}
	delete(t.open, name)
	t.Spans = append(t.Spans, Span{Name: name, Start: start, End: at})
}

// PrefillStart closes the queue-wait span and opens the prefill span.
func (c *Collector) PrefillStart(instance, id string, at sim.Time) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ring.push(Event{At: at, Kind: KindPrefillStart, Instance: instance, Subject: id})
	if t := c.timeline(id); t != nil {
		t.closeSpan("queue-wait", at)
		t.openSpan("prefill", at)
	}
}

// RequestSpan appends an already-closed span to a request's timeline — used
// for intervals whose endpoints are only known in retrospect, like the
// prefix-cache reuse copy ("prefix-reuse") or the recompute charge of a cold
// conversation ("prefix-recompute"). The span lands in the same timeline the
// miss attributor joins against, so new causes need no new plumbing.
func (c *Collector) RequestSpan(instance, id, name, detail string, start, end sim.Time) {
	if c == nil {
		return
	}
	ev := Event{At: end, Kind: KindPrefix, Instance: instance, Subject: id, Detail: name + " " + detail}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ring.push(ev)
	if t := c.timeline(id); t != nil {
		t.Spans = append(t.Spans, Span{Name: name, Detail: detail, Start: start, End: end})
	}
}

// PrefillDone closes the prefill span and opens the decode-wait span.
func (c *Collector) PrefillDone(instance, id string, at sim.Time) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ring.push(Event{At: at, Kind: KindPrefillDone, Instance: instance, Subject: id})
	if t := c.timeline(id); t != nil {
		t.closeSpan("prefill", at)
		t.openSpan("decode-wait", at)
	}
}

// TurnStart records a decode turn: the batch's requests close their
// decode-wait spans and open per-turn decode spans.
func (c *Collector) TurnStart(instance, model string, at sim.Time, quota time.Duration, reqIDs []string) {
	if c == nil {
		return
	}
	ev := Event{At: at, Kind: KindTurnStart, Instance: instance, Subject: model,
		Detail: fmt.Sprintf("%d reqs, quota %.2fs", len(reqIDs), quota.Seconds())}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ring.push(ev)
	c.turnSet[instance] = append(c.turnSet[instance][:0], reqIDs...)
	for _, id := range reqIDs {
		if t := c.timeline(id); t != nil {
			t.closeSpan("decode-wait", at)
			t.openSpan("decode-turn", at)
		}
	}
}

// TurnEnd closes the per-turn decode spans of the turn opened by the last
// TurnStart on the instance and reopens decode-wait for unfinished requests.
func (c *Collector) TurnEnd(instance, model string, at sim.Time) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ring.push(Event{At: at, Kind: KindTurnEnd, Instance: instance, Subject: model})
	for _, id := range c.turnSet[instance] {
		if t := c.timeline(id); t != nil {
			t.closeSpan("decode-turn", at)
			if !t.Done {
				t.openSpan("decode-wait", at)
			}
		}
	}
	c.turnSet[instance] = c.turnSet[instance][:0]
}

// TokenBatch records one decode step producing a token for each request.
func (c *Collector) TokenBatch(instance, model string, at sim.Time, reqIDs []string) {
	if c == nil {
		return
	}
	ev := Event{At: at, Kind: KindTokenBatch, Instance: instance, Subject: model,
		Detail: fmt.Sprintf("%d tokens", len(reqIDs))}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ring.push(ev)
	for _, id := range reqIDs {
		c.tokenLocked(id, at)
	}
}

// Token records a single token completion (prefill's first token).
func (c *Collector) Token(id string, at sim.Time) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tokenLocked(id, at)
}

func (c *Collector) tokenLocked(id string, at sim.Time) {
	t := c.timeline(id)
	if t == nil {
		return
	}
	if len(t.Tokens) < c.opts.MaxTokensPerRequest {
		t.Tokens = append(t.Tokens, at)
	}
	t.TokensTotal++
}

// Evicted records a KV eviction of a victim batch (lazy eviction).
func (c *Collector) Evicted(instance, model string, at sim.Time) {
	c.emit(Event{At: at, Kind: KindEvict, Instance: instance, Subject: model})
}

// RequestDone closes every open span and marks the timeline finished.
func (c *Collector) RequestDone(id string, at sim.Time) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ring.push(Event{At: at, Kind: KindRequestDone, Subject: id})
	t := c.timeline(id)
	if t == nil {
		return
	}
	for name := range t.open {
		t.closeSpan(name, at)
	}
	t.Done = true
	t.Finished = at
}

// Fault records an injected or detected failure (instance crash, transfer
// error window, fetch failure, store partition) in the flat event ring.
func (c *Collector) Fault(instance, kind, detail string, at sim.Time) {
	c.emit(Event{At: at, Kind: KindFailure, Instance: instance, Subject: kind, Detail: detail})
}

// Recovery records a completed recovery action (failover, orphan
// re-dispatch, breaker close) in the flat event ring.
func (c *Collector) Recovery(instance, detail string, at sim.Time) {
	c.emit(Event{At: at, Kind: KindRecovery, Instance: instance, Detail: detail})
}

// Retry records one backoff retry (fetch, transfer, or metastore op).
func (c *Collector) Retry(instance, what string, at sim.Time) {
	c.emit(Event{At: at, Kind: KindRetry, Instance: instance, Subject: what})
}

// BeginSwitch opens a switch record for the instance. The engine calls it
// synchronously at the top of SwitchTo; stages and victims attach while the
// switch is in flight.
func (c *Collector) BeginSwitch(instance, from, to string, at sim.Time, reinitAvoided bool) {
	if c == nil {
		return
	}
	ev := Event{At: at, Kind: KindSwitchStart, Instance: instance, Subject: to, Detail: "from " + from}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ring.push(ev)
	rec := &SwitchRecord{Instance: instance, From: from, To: to, Start: at, ReinitAvoided: reinitAvoided}
	c.open[instance] = rec
	if len(c.switches) < c.opts.MaxSwitches {
		c.switches = append(c.switches, rec)
	} else {
		c.switches[c.swNext] = rec
		c.swNext = (c.swNext + 1) % c.opts.MaxSwitches
	}
	c.swTotal++
}

// SwitchStage attaches a completed stage to the instance's in-flight (or
// most recent) switch.
func (c *Collector) SwitchStage(instance, stage string, start, end sim.Time) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	rec := c.open[instance]
	if rec == nil {
		rec = c.lastSwitchLocked(instance)
	}
	if rec != nil {
		rec.Stages = append(rec.Stages, SwitchStage{Name: stage, Start: start, End: end})
	}
}

// SwitchVictims attaches the stalled requests to the instance's in-flight
// switch. Attaching after the switch ended is a no-op: the stall was already
// settled.
func (c *Collector) SwitchVictims(instance string, reqIDs []string) {
	if c == nil || len(reqIDs) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	rec := c.open[instance]
	if rec == nil || rec.done {
		return
	}
	rec.Victims = append(rec.Victims, reqIDs...)
}

// EndSwitch closes the instance's in-flight switch, settles its stall, and
// charges it to every victim's timeline as a switch-stall span.
func (c *Collector) EndSwitch(instance string, at sim.Time) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ring.push(Event{At: at, Kind: KindSwitchDone, Instance: instance})
	rec := c.open[instance]
	if rec == nil {
		return
	}
	delete(c.open, instance)
	rec.End = at
	rec.Stall = at - rec.Start
	rec.done = true
	rec.DominantStage = dominantStage(rec.Stages)
	for _, id := range rec.Victims {
		if t := c.timeline(id); t != nil {
			t.SwitchStall += rec.Stall
			t.Spans = append(t.Spans, Span{Name: "switch-stall", Detail: rec.DominantStage, Start: rec.Start, End: at})
		}
	}
}

// dominantStage returns the name of the longest stage ("" with no stages).
func dominantStage(stages []SwitchStage) string {
	var name string
	var best time.Duration = -1
	for _, st := range stages {
		if d := st.End - st.Start; d > best {
			best, name = d, st.Name
		}
	}
	return name
}

// lastSwitchLocked returns the most recent switch record of the instance.
func (c *Collector) lastSwitchLocked(instance string) *SwitchRecord {
	for i := 0; i < len(c.switches); i++ {
		idx := (c.swNext - 1 - i + len(c.switches)) % len(c.switches)
		if c.switches[idx] != nil && c.switches[idx].Instance == instance {
			return c.switches[idx]
		}
	}
	return nil
}

// ---- snapshots (debug endpoints, Perfetto export) ----

// Request returns a copy of one request's timeline.
func (c *Collector) Request(id string) (RequestTimeline, bool) {
	if c == nil {
		return RequestTimeline{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.timeline(id)
	if t == nil {
		return RequestTimeline{}, false
	}
	return t.snapshotLocked(), true
}

func (t *RequestTimeline) snapshotLocked() RequestTimeline {
	out := *t
	out.open = nil
	out.Spans = append([]Span(nil), t.Spans...)
	out.Tokens = append([]sim.Time(nil), t.Tokens...)
	// Include still-open spans as zero-End markers so a live request's
	// current phase is visible.
	for name, start := range t.open {
		out.Spans = append(out.Spans, Span{Name: name + " (open)", Start: start, End: start})
	}
	sort.Slice(out.Spans, func(i, j int) bool { return out.Spans[i].Start < out.Spans[j].Start })
	return out
}

// VisitSpans calls visit for every span of the request overlapping
// [from, to], including still-open spans (treated as extending to `to`).
// It returns false when the request has no retained timeline. The callback
// runs under the collector's lock and must not call back into it.
func (c *Collector) VisitSpans(id string, from, to sim.Time, visit func(name, detail string, start, end sim.Time)) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.timeline(id)
	if t == nil {
		return false
	}
	for _, sp := range t.Spans {
		if sp.End > from && sp.Start < to {
			visit(sp.Name, sp.Detail, sp.Start, sp.End)
		}
	}
	for name, start := range t.open {
		if start < to {
			visit(name, "", start, to)
		}
	}
	return true
}

// Requests returns copies of the most recent n request timelines (all when
// n <= 0), newest last.
func (c *Collector) Requests(n int) []RequestTimeline {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	ids := c.reqOrder
	if n > 0 && len(ids) > n {
		ids = ids[len(ids)-n:]
	}
	out := make([]RequestTimeline, 0, len(ids))
	for _, id := range ids {
		if t := c.timeline(id); t != nil {
			out = append(out, t.snapshotLocked())
		}
	}
	return out
}

// Switches returns copies of the retained switch records, oldest first, and
// the total number ever recorded.
func (c *Collector) Switches() ([]SwitchRecord, uint64) {
	if c == nil {
		return nil, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]SwitchRecord, 0, len(c.switches))
	for i := 0; i < len(c.switches); i++ {
		idx := (c.swNext + i) % len(c.switches)
		if c.switches[idx] != nil {
			r := *c.switches[idx]
			r.Stages = append([]SwitchStage(nil), c.switches[idx].Stages...)
			r.Victims = append([]string(nil), c.switches[idx].Victims...)
			out = append(out, r)
		}
	}
	return out, c.swTotal
}

// EngineTimeline is one engine's retained op intervals on one device.
type EngineTimeline struct {
	Device string
	Engine gpu.EngineKind
	Ops    []gpu.OpRecord
	Total  uint64
}

// DeviceTimelines returns every device engine's retained ops in emission
// order, devices in registration order.
func (c *Collector) DeviceTimelines() []EngineTimeline {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []EngineTimeline
	for _, name := range c.devOrder {
		dt := c.devs[name]
		for k := range dt.engines {
			out = append(out, EngineTimeline{
				Device: name,
				Engine: gpu.EngineKind(k),
				Ops:    dt.engines[k].ordered(),
				Total:  dt.engines[k].total,
			})
		}
	}
	return out
}

// GPUUtilization is one device engine's recent busy fraction, computed from
// the retained op ring over [now-window, now].
type GPUUtilization struct {
	Device      string  `json:"device"`
	Engine      string  `json:"engine"`
	Utilization float64 `json:"utilization"`
	Ops         uint64  `json:"ops_total"`
}

// Utilizations computes per-device-engine busy fractions over the trailing
// window ending at now. Ops that fell off the ring undercount long windows;
// callers should keep window within the ring's reach.
func (c *Collector) Utilizations(now sim.Time, window time.Duration) []GPUUtilization {
	if c == nil || window <= 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	lo := now - window
	if lo < 0 {
		lo = 0
	}
	span := now - lo
	var out []GPUUtilization
	for _, name := range c.devOrder {
		dt := c.devs[name]
		for k := range dt.engines {
			var busy time.Duration
			for _, op := range dt.engines[k].buf {
				s, e := op.Start, op.End
				if e <= lo || s >= now {
					continue
				}
				if s < lo {
					s = lo
				}
				if e > now {
					e = now
				}
				busy += e - s
			}
			u := 0.0
			if span > 0 {
				u = float64(busy) / float64(span)
				if u > 1 {
					u = 1
				}
			}
			out = append(out, GPUUtilization{
				Device:      name,
				Engine:      gpu.EngineKind(k).String(),
				Utilization: u,
				Ops:         dt.engines[k].total,
			})
		}
	}
	return out
}
