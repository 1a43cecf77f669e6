// Package fleetobs is the supply-side counterpart to package obs: where obs
// makes every millisecond of a *request* accountable, fleetobs makes every
// *GPU-second* accountable. A Ledger classifies each device's simulated time
// into an exhaustive, mutually exclusive state set — idle, prefill, decode,
// the §5 switch stages (reinit, gc-pause, fetch, activate, compact),
// weight-load DMA, KV/PCIe transfer, faulted — and integrates each state
// into GPU-second counters under a hard conservation invariant: per device,
// the state integrals sum *exactly* (integer nanoseconds, no epsilon) to
// wall-clock time since registration. The same "causes sum exactly"
// discipline slomon applies to missed tokens, applied to supply.
//
// Mechanically the ledger is claim-based: engine occupancy edges (via
// gpu.Device.ObserveBusy), host-side switch stages (via Enter/Exit from the
// engine), and crashes (via Fault) each open and close claims on a state;
// at any instant the device is charged to its highest-priority active claim
//
//	faulted > reinit/gc-pause/fetch/activate > prefill/decode/compact
//	        > weight-load > kv-transfer > idle
//
// so overlapping activity (a prefetch DMA hidden under decode compute) is
// charged once, to the state that masks it. A weight-load second in the
// ledger is therefore an *exposed* weight-load second — directly comparable
// to the exposed switch cost of results/figure_8_10.csv.
//
// Besides the exclusive partition, snapshots report each engine's raw busy
// time, read from the registered device's own counters
// (gpu.Device.BusyTime). Those counters advance on the simulation
// goroutine, so snapshots and conservation checks run there too.
//
// All Ledger methods are nil-receiver safe: a nil ledger is the zero-cost
// off path, the same seam contract as *obs.Collector.
package fleetobs

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"aegaeon/internal/gpu"
	"aegaeon/internal/sim"
)

// SchemaVersion identifies the snapshot JSON schema for downstream
// validators and dashboards.
const SchemaVersion = 1

// State is one bucket of the exhaustive per-device time partition.
type State int

const (
	// Idle: no engine busy, no switch stage, not faulted.
	Idle State = iota
	// Prefill: compute engine running a prefill kernel.
	Prefill
	// Decode: compute engine running a decode step.
	Decode
	// Compact: compute engine compacting weights (§5.2 on-device copy).
	Compact
	// WeightLoad: H2D DMA streaming model weights (load or prefetch).
	WeightLoad
	// KVTransfer: PCIe DMA moving KV cache (swap-in/out, prefix reuse).
	KVTransfer
	// Reinit: host-side engine (re)initialization (Fig. 7 stage pipeline).
	Reinit
	// GCPause: tensor-library garbage collection on scale-down.
	GCPause
	// Fetch: pulling weights from the tier below the host model cache.
	Fetch
	// Activate: rebinding execution context to a resident model (colocate).
	Activate
	// Faulted: the instance crashed; all further time is charged here.
	Faulted

	numStates
)

func (s State) String() string {
	switch s {
	case Idle:
		return "idle"
	case Prefill:
		return "prefill"
	case Decode:
		return "decode"
	case Compact:
		return "compact"
	case WeightLoad:
		return "weight-load"
	case KVTransfer:
		return "kv-transfer"
	case Reinit:
		return "reinit"
	case GCPause:
		return "gc-pause"
	case Fetch:
		return "fetch"
	case Activate:
		return "activate"
	case Faulted:
		return "faulted"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// States lists every state in display order (idle first, faulted last).
func States() []State {
	out := make([]State, 0, numStates)
	for s := State(0); s < numStates; s++ {
		out = append(out, s)
	}
	return out
}

// precedence orders states for claim masking, highest priority first. Idle
// is implicit: it is the charge when no claim is active.
var precedence = [...]State{
	Faulted, Reinit, GCPause, Fetch, Activate,
	Prefill, Decode, Compact, WeightLoad, KVTransfer,
}

// isSwitch reports whether the state is §5 switch overhead: the exposed
// scale-up cost the ledger's switch-overhead ratio measures.
func isSwitch(s State) bool {
	switch s {
	case Reinit, GCPause, Fetch, Activate, Compact, WeightLoad:
		return true
	}
	return false
}

// isCompute reports whether the state occupies the SM array serving a model
// (the denominator of per-model tokens per GPU-second).
func isCompute(s State) bool { return s == Prefill || s == Decode || s == Compact }

// Classify maps one engine operation to its ledger state by engine kind and
// tag. Unrecognized compute kernels count as decode (the dominant compute
// state); unrecognized DMA counts as KV transfer (the generic PCIe use).
func Classify(k gpu.EngineKind, info gpu.OpInfo) State {
	switch k {
	case gpu.Compute:
		switch {
		case strings.HasPrefix(info.Tag, "prefill"):
			return Prefill
		case strings.HasPrefix(info.Tag, "compact"):
			return Compact
		default:
			return Decode
		}
	default: // H2D, D2H
		switch {
		case strings.HasPrefix(info.Tag, "load "), strings.HasPrefix(info.Tag, "prefetch "):
			return WeightLoad
		default:
			return KVTransfer
		}
	}
}

// DefaultHourlyRate is the per-device cost rate ($/GPU-hour) until SetRate
// overrides it: 1.0, so the cost integral equals GPU-hours out of the box
// and spot-price traces (ROADMAP item 2) only have to call SetRate.
const DefaultHourlyRate = 1.0

// maxSegments bounds the per-device segment ring kept for the heatmap; when
// full, the oldest half is dropped (and counted) so recent history survives.
const maxSegments = 2048

// Segment is one closed interval of a device's exclusive state timeline.
// Adjacent segments with the same state and model are coalesced.
type Segment struct {
	State State
	Model string
	Start sim.Time
	End   sim.Time
}

// devLedger is the per-device accounting state.
type devLedger struct {
	name  string
	birth sim.Time

	claims     [numStates]int
	claimModel [numStates]string
	cur        State
	curModel   string
	curSince   sim.Time
	integral   [numStates]time.Duration
	modelBusy  map[string]time.Duration // compute seconds per model

	// dev is the device whose occupancy the ledger captures (nil for
	// devices registered by name only); its busy counters are the raw
	// per-engine busy times.
	dev *gpu.Device

	segs     []Segment
	segsLost uint64

	tokens map[string]uint64 // goodput tokens emitted, per model

	kvUsed, kvPeak, kvCap int64

	faulted bool

	// Piecewise cost integration: costAccum holds the dollars accrued at
	// past rates, rateSince is when the current rate took effect. SetRate
	// closes the open segment at the change edge, so mid-run spot-price
	// changes are never retroactive.
	rate      float64 // $/GPU-hour
	rateSince sim.Time
	costAccum float64
}

// costAt is the piecewise cost integral at instant now: dollars accrued
// across every closed rate segment plus the open one.
func (d *devLedger) costAt(now sim.Time) float64 {
	return d.costAccum + (now-d.rateSince).Hours()*d.rate
}

// Ledger is the fleet-wide time-weighted state ledger. Construct with New,
// register devices as they are built, feed it edges; nil is a valid no-op
// receiver throughout.
type Ledger struct {
	mu      sync.Mutex
	eng     *sim.Engine
	devices map[string]*devLedger
	order   []string
}

// New builds a ledger over the simulation clock.
func New(eng *sim.Engine) *Ledger {
	return &Ledger{eng: eng, devices: map[string]*devLedger{}}
}

// Enabled reports whether the ledger is live (non-nil).
func (l *Ledger) Enabled() bool { return l != nil }

func (l *Ledger) register(name string) *devLedger {
	d, ok := l.devices[name]
	if !ok {
		d = &devLedger{
			name:      name,
			birth:     l.eng.Now(),
			curSince:  l.eng.Now(),
			modelBusy: map[string]time.Duration{},
			tokens:    map[string]uint64{},
			rate:      DefaultHourlyRate,
			rateSince: l.eng.Now(),
		}
		l.devices[name] = d
		l.order = append(l.order, name)
	}
	return d
}

// Register adds a device by name without attaching occupancy capture (used
// by tests and by layers that only report host-side states for it).
func (l *Ledger) Register(name string) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.register(name)
}

// ObserveDevice registers the device in the ledger and attaches occupancy
// capture to it via gpu.Device.ObserveBusy (a separate slot from the trace
// collector's Observe, so both coexist).
func (l *Ledger) ObserveDevice(dev *gpu.Device) {
	if l == nil || dev == nil {
		return
	}
	l.mu.Lock()
	l.register(dev.Name).dev = dev
	l.mu.Unlock()
	dev.ObserveBusy(func(d *gpu.Device, k gpu.EngineKind, info gpu.OpInfo, busy bool) {
		l.noteOp(d.Name, k, info, busy)
	})
}

// close charges [curSince, now) to the current state and rolls the segment
// ring forward; curSince advances to now.
func (d *devLedger) close(now sim.Time) {
	if dt := now - d.curSince; dt > 0 {
		d.integral[d.cur] += dt
		if d.curModel != "" && isCompute(d.cur) {
			d.modelBusy[d.curModel] += dt
		}
		d.pushSeg(Segment{State: d.cur, Model: d.curModel, Start: d.curSince, End: now})
	}
	d.curSince = now
}

func (d *devLedger) pushSeg(s Segment) {
	if n := len(d.segs); n > 0 {
		last := &d.segs[n-1]
		if last.End == s.Start && last.State == s.State && last.Model == s.Model {
			last.End = s.End
			return
		}
	}
	if len(d.segs) >= maxSegments {
		keep := maxSegments / 2
		d.segsLost += uint64(len(d.segs) - keep)
		d.segs = append(d.segs[:0:0], d.segs[len(d.segs)-keep:]...)
	}
	d.segs = append(d.segs, s)
}

// retop recomputes the masking winner after a claim edge, closing the open
// segment at the transition instant. Conservation is by construction: every
// nanosecond between edges lands in exactly one integral.
func (d *devLedger) retop(now sim.Time) {
	top, model := Idle, ""
	for _, s := range precedence {
		if d.claims[s] > 0 {
			top, model = s, d.claimModel[s]
			break
		}
	}
	if top == d.cur && model == d.curModel {
		return
	}
	d.close(now)
	d.cur, d.curModel = top, model
}

// noteOp handles one engine occupancy edge.
func (l *Ledger) noteOp(device string, k gpu.EngineKind, info gpu.OpInfo, busy bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	d := l.devices[device]
	if d == nil {
		return
	}
	now := l.eng.Now()
	s := Classify(k, info)
	if busy {
		d.claims[s]++
		if info.Model != "" {
			d.claimModel[s] = info.Model
		}
	} else {
		d.claims[s]--
		if d.claims[s] < 0 {
			panic(fmt.Sprintf("fleetobs: negative claim count for %s/%s", device, s))
		}
		if d.claims[s] == 0 {
			d.claimModel[s] = ""
		}
	}
	d.retop(now)
}

// Enter opens a host-side claim on state s for the device (switch stages the
// engine runs off-device: reinit, gc-pause, fetch, activate). model may be
// empty. Every Enter must be paired with an Exit.
func (l *Ledger) Enter(device string, s State, model string) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	d := l.devices[device]
	if d == nil {
		return
	}
	d.claims[s]++
	if model != "" {
		d.claimModel[s] = model
	}
	d.retop(l.eng.Now())
}

// Exit closes a host-side claim opened by Enter.
func (l *Ledger) Exit(device string, s State) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	d := l.devices[device]
	if d == nil {
		return
	}
	d.claims[s]--
	if d.claims[s] < 0 {
		panic(fmt.Sprintf("fleetobs: negative claim count for %s/%s", device, s))
	}
	if d.claims[s] == 0 {
		d.claimModel[s] = ""
	}
	d.retop(l.eng.Now())
}

// Fault marks the device as crashed: from this instant on, all of its time
// is charged to the faulted state (the highest-priority claim; crashed
// instances never revive — recovery re-homes their work on survivors).
// Idempotent.
func (l *Ledger) Fault(device string) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	d := l.devices[device]
	if d == nil || d.faulted {
		return
	}
	d.faulted = true
	d.claims[Faulted]++
	d.retop(l.eng.Now())
}

// AddTokens credits n goodput tokens produced on the device for the model.
func (l *Ledger) AddTokens(device, model string, n int) {
	if l == nil || n <= 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	d := l.devices[device]
	if d == nil {
		return
	}
	d.tokens[model] += uint64(n)
}

// NoteKV records the device's GPU KV pool usage sample; the peak is the
// pool-memory watermark surfaced in snapshots and metrics.
func (l *Ledger) NoteKV(device string, usedBytes, capacityBytes int64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	d := l.devices[device]
	if d == nil {
		return
	}
	d.kvUsed, d.kvCap = usedBytes, capacityBytes
	if usedBytes > d.kvPeak {
		d.kvPeak = usedBytes
	}
}

// SetRate sets the device's cost rate in $/GPU-hour (spot pricing hook;
// DefaultHourlyRate until called). Cost integrates piecewise: time before
// this edge stays charged at the old rate, only time after accrues at the
// new one.
func (l *Ledger) SetRate(device string, dollarsPerHour float64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	d := l.devices[device]
	if d == nil {
		return
	}
	now := l.eng.Now()
	d.costAccum += (now - d.rateSince).Hours() * d.rate
	d.rateSince = now
	d.rate = dollarsPerHour
}

// Devices returns the registered device names in registration order.
func (l *Ledger) Devices() []string {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.order...)
}

// wall and partition of one device at instant now, including the open
// segment. Callers hold l.mu.
func (d *devLedger) partition(now sim.Time) (wall time.Duration, states [numStates]time.Duration) {
	states = d.integral
	states[d.cur] += now - d.curSince
	wall = now - d.birth
	return
}

// rawBusy is one engine's busy time as the device itself counts it (zero
// for devices registered by name only).
func (d *devLedger) rawBusy(k gpu.EngineKind) time.Duration {
	if d.dev == nil {
		return 0
	}
	return d.dev.BusyTime(k)
}

// CheckConservation verifies the hard invariant at instant now: for every
// device, the state integrals (plus the open segment) sum exactly to wall
// time since registration, and no device's raw busy time exceeds wall time.
// The raw busy times are read at the simulation clock, so call it on the
// simulation goroutine with now equal to that clock. Returns one message per
// violation; nil means the ledger conserves.
func (l *Ledger) CheckConservation(now sim.Time) []string {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var errs []string
	for _, name := range l.order {
		d := l.devices[name]
		wall, states := d.partition(now)
		var sum time.Duration
		for s := State(0); s < numStates; s++ {
			if states[s] < 0 {
				errs = append(errs, fmt.Sprintf("%s: negative %s integral %v", name, s, states[s]))
			}
			sum += states[s]
		}
		if sum != wall {
			errs = append(errs, fmt.Sprintf("%s: state integrals sum to %v, wall time is %v (off by %v)",
				name, sum, wall, sum-wall))
		}
		for k := gpu.Compute; k <= gpu.D2H; k++ {
			if rb := d.rawBusy(k); rb < 0 || rb > wall {
				errs = append(errs, fmt.Sprintf("%s: raw busy[%s] %v outside [0, %v]",
					name, k, rb, wall))
			}
		}
		if d.faulted && d.cur != Faulted {
			errs = append(errs, fmt.Sprintf("%s: faulted device currently charged to %s", name, d.cur))
		}
	}
	return errs
}

// StateSeconds returns the device's accumulated seconds in state s at
// instant now (including the open segment). Zero for unknown devices.
func (l *Ledger) StateSeconds(device string, s State, now sim.Time) float64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	d := l.devices[device]
	if d == nil {
		return 0
	}
	_, states := d.partition(now)
	return states[s].Seconds()
}
