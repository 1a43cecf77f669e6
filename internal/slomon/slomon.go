// Package slomon is the live SLO monitoring subsystem: per-model and
// fleet-wide sliding-window token attainment over the driver's virtual
// clock, SRE-style error-budget burn-rate alerting across fast/mid/slow
// windows, and root-cause attribution of every missed-deadline token by
// joining it against the obs span and switch-stage data.
//
// The Monitor is fed token-by-token from the serving path (core's token
// stamp sites) and holds only windowed state. Cumulative attainment lives in
// core's slo.Ledger, the one account of request fates; a snapshot's
// cumulative blocks are attached from it (Snapshot.AttachCumulative). All
// methods are nil-safe: a nil *Monitor records nothing, keeping the default
// serving path free of monitoring overhead.
package slomon

import (
	"sync"
	"time"

	"aegaeon/internal/obs"
	"aegaeon/internal/sim"
)

// Config parameterizes the monitor. Zero values take the defaults noted.
type Config struct {
	// Objective is the attainment target the error budget is measured
	// against (default 0.99: up to 1% of tokens may miss their deadlines).
	Objective float64

	// Bucket is the sliding-window bucket width (default 1s).
	Bucket time.Duration

	// FastWindow/MidWindow/SlowWindow are the burn-rate windows
	// (defaults 1m / 5m / 30m). SlowWindow bounds ring retention.
	FastWindow time.Duration
	MidWindow  time.Duration
	SlowWindow time.Duration

	// PageBurn and WarnBurn are the burn-rate alert thresholds
	// (defaults 14.4 and 3, the SRE workbook's 2%-of-budget-per-hour and
	// 10%-per-day pages for a 30-day budget).
	PageBurn float64
	WarnBurn float64

	// Hysteresis scales the thresholds for holding an active alert
	// (default 0.8: a page persists until burn < 0.8 x PageBurn).
	Hysteresis float64

	// QuantileSamples bounds each TTFT/TBT reservoir epoch (default 2048).
	QuantileSamples int

	// Source is the obs collector joined against for miss attribution.
	// Nil disables attribution (misses classify as unknown).
	Source *obs.Collector

	// FaultActive reports whether an injected fault window covering the
	// model or instance is active — checked before the span join, since a
	// fault explains the miss regardless of which span absorbed the time.
	FaultActive func(model, instance string) bool
}

func (c *Config) applyDefaults() {
	if c.Objective <= 0 || c.Objective >= 1 {
		c.Objective = 0.99
	}
	if c.Bucket <= 0 {
		c.Bucket = time.Second
	}
	if c.FastWindow <= 0 {
		c.FastWindow = time.Minute
	}
	if c.MidWindow <= 0 {
		c.MidWindow = 5 * time.Minute
	}
	if c.SlowWindow <= 0 {
		c.SlowWindow = 30 * time.Minute
	}
	if c.MidWindow < c.FastWindow {
		c.MidWindow = c.FastWindow
	}
	if c.SlowWindow < c.MidWindow {
		c.SlowWindow = c.MidWindow
	}
	if c.PageBurn <= 0 {
		c.PageBurn = 14.4
	}
	if c.WarnBurn <= 0 {
		c.WarnBurn = 3
	}
	if c.Hysteresis <= 0 || c.Hysteresis > 1 {
		c.Hysteresis = 0.8
	}
	if c.QuantileSamples <= 0 {
		c.QuantileSamples = 2048
	}
}

// TokenObs is one produced token, judged against its deadline.
type TokenObs struct {
	Model    string
	Request  string
	Instance string
	Index    int      // 0-based token index within the request
	Arrival  sim.Time // request arrival
	Deadline sim.Time // arrival + TTFT + Index*TBT
	At       sim.Time // generation time
	Prev     sim.Time // previous token's generation time (0 when Index == 0)
}

// scope is the windowed state of one aggregation level (fleet or model).
type scope struct {
	ring   *windowRing
	ttft   *epochSketch
	tbt    *epochSketch
	causes [numCauses]uint64
	alert  alertMachine
	met    uint64 // stream totals, never evicted
	missed uint64
}

func newScope(cfg Config) *scope {
	return &scope{
		ring: newWindowRing(cfg.Bucket, cfg.SlowWindow),
		ttft: newEpochSketch(cfg.MidWindow, cfg.QuantileSamples),
		tbt:  newEpochSketch(cfg.MidWindow, cfg.QuantileSamples),
	}
}

// Monitor maintains live SLO state. Safe for concurrent use; the zero
// value is not usable — call New.
type Monitor struct {
	cfg Config

	mu     sync.Mutex
	fleet  *scope
	models map[string]*scope
	now    sim.Time // latest time observed or advanced to
}

// New builds a monitor. Config zero values take defaults.
func New(cfg Config) *Monitor {
	cfg.applyDefaults()
	return &Monitor{
		cfg:    cfg,
		fleet:  newScope(cfg),
		models: map[string]*scope{},
	}
}

// Config returns the effective (defaulted) configuration.
func (m *Monitor) Config() Config {
	if m == nil {
		return Config{}
	}
	return m.cfg
}

func (m *Monitor) scopeLocked(model string) *scope {
	s, ok := m.models[model]
	if !ok {
		s = newScope(m.cfg)
		m.models[model] = s
	}
	return s
}

// ObserveToken records one produced token. Nil-safe.
func (m *Monitor) ObserveToken(o TokenObs) {
	if m == nil {
		return
	}
	met := o.At <= o.Deadline
	var cause Cause
	if !met {
		cause = classify(m.cfg.Source, m.cfg.FaultActive,
			o.Model, o.Request, o.Instance, o.Arrival, o.Deadline, o.At)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	ms := m.scopeLocked(o.Model)
	for _, s := range [2]*scope{m.fleet, ms} {
		s.ring.observe(o.At, met)
		if met {
			s.met++
		} else {
			s.missed++
			s.causes[cause]++
		}
		if o.Index == 0 {
			s.ttft.add(o.At, o.At-o.Arrival)
		} else if o.Prev > 0 && o.At >= o.Prev {
			s.tbt.add(o.At, o.At-o.Prev)
		}
	}
	m.advanceLocked(o.At)
}

// ObserveDropped records one token that will never be generated (failed or
// starved request). The miss lands in the bucket of its deadline when that
// has already passed, else in the bucket of the judgement time — a dead
// request's future tokens are known lost now, but a miss cannot be filed
// into a future bucket. Attribution joins the overrun interval (or, for
// future deadlines, the request's lifetime so far). Nil-safe.
func (m *Monitor) ObserveDropped(model, request, instance string, arrival, deadline, judged sim.Time) {
	if m == nil {
		return
	}
	cause := classify(m.cfg.Source, m.cfg.FaultActive,
		model, request, instance, arrival, deadline, judged)
	bucketAt := deadline
	if judged < bucketAt {
		bucketAt = judged
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	ms := m.scopeLocked(model)
	for _, s := range [2]*scope{m.fleet, ms} {
		s.ring.observe(bucketAt, false)
		s.missed++
		s.causes[cause]++
	}
	m.advanceLocked(judged)
}

// Advance moves the monitor's clock forward (rotating window buckets and
// re-evaluating alert states) without recording any token. Call it
// periodically on idle systems so alerts decay as windows drain. Nil-safe.
func (m *Monitor) Advance(now sim.Time) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.advanceLocked(now)
}

// advanceLocked rotates every ring to now and steps the alert machines
// whenever the clock crossed into a new bucket.
func (m *Monitor) advanceLocked(now sim.Time) {
	if now < m.now {
		return
	}
	prevBucket := int64(m.now / m.cfg.Bucket)
	m.now = now
	rotated := m.fleet.ring.head < 0 || int64(now/m.cfg.Bucket) > prevBucket
	m.fleet.ring.advance(now)
	for _, s := range m.models {
		s.ring.advance(now)
	}
	if rotated {
		m.stepAlertsLocked(now)
	}
}

func (m *Monitor) stepAlertsLocked(now sim.Time) {
	step := func(s *scope) {
		fm, fx := s.ring.sums(m.cfg.FastWindow)
		mm, mx := s.ring.sums(m.cfg.MidWindow)
		sm, sx := s.ring.sums(m.cfg.SlowWindow)
		s.alert.step(now,
			burnRate(fm, fx, m.cfg.Objective),
			burnRate(mm, mx, m.cfg.Objective),
			burnRate(sm, sx, m.cfg.Objective),
			m.cfg)
	}
	step(m.fleet)
	for _, s := range m.models {
		step(s)
	}
}

// FleetAlert returns the fleet alert state (AlertOK on a nil monitor).
func (m *Monitor) FleetAlert() AlertState {
	if m == nil {
		return AlertOK
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.fleet.alert.state
}

// FleetBurnRates returns the fleet burn rates over the fast, mid, and slow
// windows as of the last bucket rotation. Zero on a nil monitor. Overload
// control feeds these into the brownout controller alongside FleetAlert.
func (m *Monitor) FleetBurnRates() (fast, mid, slow float64) {
	if m == nil {
		return 0, 0, 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	fm, fx := m.fleet.ring.sums(m.cfg.FastWindow)
	mm, mx := m.fleet.ring.sums(m.cfg.MidWindow)
	sm, sx := m.fleet.ring.sums(m.cfg.SlowWindow)
	return burnRate(fm, fx, m.cfg.Objective),
		burnRate(mm, mx, m.cfg.Objective),
		burnRate(sm, sx, m.cfg.Objective)
}
