// Package cluster implements the proxy layer of Fig. 5: a load-balancing
// front end that dispatches multi-model requests to Aegaeon deployments
// (one per parallelism configuration, as in the §7.5 production setup) and
// synchronizes request metadata through the shared metadata store.
package cluster

import (
	"fmt"
	"strings"
	"time"

	"aegaeon/internal/core"
	"aegaeon/internal/decision"
	"aegaeon/internal/engine"
	"aegaeon/internal/fault"
	"aegaeon/internal/fleetobs"
	"aegaeon/internal/latency"
	"aegaeon/internal/market"
	"aegaeon/internal/metastore"
	"aegaeon/internal/model"
	"aegaeon/internal/obs"
	"aegaeon/internal/overload"
	"aegaeon/internal/prefixcache"
	"aegaeon/internal/sim"
	"aegaeon/internal/slo"
	"aegaeon/internal/slomon"
	"aegaeon/internal/workload"
)

// DeploymentConfig describes one Aegaeon deployment inside the cluster.
type DeploymentConfig struct {
	Name       string
	TP         int
	NumPrefill int
	NumDecode  int
	Models     []*model.Model
}

// Deployment is a running Aegaeon system plus its routing table entry.
type Deployment struct {
	Name   string
	TP     int
	System *core.System
	models map[string]bool
}

// GPUs returns the GPU count the deployment occupies.
func (d *Deployment) GPUs(cfg DeploymentConfig) int {
	return (cfg.NumPrefill + cfg.NumDecode) * cfg.TP
}

// Config parameterizes the whole cluster.
type Config struct {
	Prof        *latency.Profile
	SLO         slo.SLO
	Deployments []DeploymentConfig
	StoreRTT    time.Duration // metadata store round trip (default 1ms)

	// Obs, when non-nil, collects span timelines, device op timelines, and
	// switch-cost attribution across every deployment.
	Obs *obs.Collector

	// SLOMon, when non-nil, receives every deployment's token deadline
	// judgements for live sliding-window attainment and burn-rate alerting.
	SLOMon *slomon.Monitor

	// Faults, when non-nil, threads fault-injection state into every
	// deployment and enables the proxy's retry/recovery accounting. Nil
	// keeps the cluster byte-identical to a fault-free build.
	Faults *fault.Faults

	// Overload, when non-nil, is the shared brownout controller threaded
	// into every deployment's scheduler: one fleet-wide degradation level
	// drives priority shedding, decode shrinking, cold-model freezing, and
	// the doomed-request reaper. Share the same controller with the
	// gateway's OverloadOptions so edge admission and core scheduling agree
	// on the level. Nil keeps scheduling byte-identical to a build without
	// overload control.
	Overload *overload.Controller

	// Fleet, when non-nil, is the shared fleet utilization ledger: every
	// deployment registers its devices with it so GPU-second accounting,
	// goodput attribution, and the /debug/fleet surfaces span the whole
	// cluster. Share the same ledger with the gateway's Options so scrapes
	// read the one source of truth. Nil keeps serving free of accounting
	// overhead.
	Fleet *fleetobs.Ledger

	// Market, when non-nil, is the shared spot-market model threaded into
	// every deployment: device classes cycle across the pool in build order,
	// spot price traces feed the shared fleet ledger, and reclaim/throttle
	// faults become deliverable through the cluster's fault surface. Like
	// Fleet, the market keys devices by instance name, so it assumes the
	// gateway's single-deployment layout (or per-deployment markets). Nil
	// keeps every deployment market-free and byte-identical.
	Market *market.Market

	// Decisions, when non-nil, is the shared decision-provenance journal
	// threaded into every deployment: admission, shedding, routing, switch,
	// eviction, and evacuation choices all record their evidence there. Nil
	// keeps every policy hot path allocation-free.
	Decisions *decision.Journal

	// Prefix, when non-nil, enables the global prefix cache in every
	// deployment (each deployment gets its own cache over its own CPU KV
	// pool; models are disjoint across deployments, so nothing is lost by
	// not sharing). Nil keeps serving byte-identical to a cache-free build.
	Prefix *prefixcache.Config

	// LeaseTTL is how long an instance's health lease stays valid without
	// renewal (default 3s); instances renew every LeaseTTL/2. HealthPoll is
	// the proxy's monitor interval (default 1s). Both only matter once
	// StartHealth is called.
	LeaseTTL   time.Duration
	HealthPoll time.Duration

	// StoreReplicas promotes the metadata store to an N-replica quorum store
	// (ms0..msN-1): lease-based leadership, majority-acknowledged writes,
	// and survival of any minority of replica crashes or partitions. 0 or 1
	// keeps the classic single-replica store. The quorum protocol runs
	// heartbeat and election timers on the sim clock, so callers MUST pair it
	// with the StartHealth/StopHealth lifecycle (StopHealth stops the
	// store's timers too) or sim.Engine.Run will never drain.
	StoreReplicas int
	// StoreSeed seeds the quorum store's election jitter (default 1).
	StoreSeed int64
	// StoreHistory records every store client op so chaos harnesses can run
	// the control-plane linearizability audit. Replicated store only; leave
	// off in long-lived servers (the history grows without bound).
	StoreHistory bool
}

// Cluster is the proxy plus its deployments.
type Cluster struct {
	eng   *sim.Engine
	cfg   Config
	store metastore.API
	rep   *metastore.Replicated // non-nil iff StoreReplicas > 1
	deps  []*Deployment
	route map[string]*Deployment // model name -> deployment

	// routeMirror is the proxy's watch-maintained copy of the store's
	// route/ table: it must converge to Routes() by drain time no matter
	// what partitions interleaved with the writes (the watch-replay
	// ordering invariant chaos audits).
	routeMirror map[string]string

	healthOn   bool
	healthStop bool
	failovers  int
}

// New builds the cluster and its deployments.
func New(se *sim.Engine, cfg Config) (*Cluster, error) {
	if len(cfg.Deployments) == 0 {
		return nil, fmt.Errorf("cluster: no deployments configured")
	}
	rtt := cfg.StoreRTT
	if rtt == 0 {
		rtt = time.Millisecond
	}
	c := &Cluster{
		eng:         se,
		cfg:         cfg,
		route:       map[string]*Deployment{},
		routeMirror: map[string]string{},
	}
	if cfg.StoreReplicas > 1 {
		c.rep = metastore.NewReplicated(se, metastore.RepConfig{
			Replicas:      cfg.StoreReplicas,
			RTT:           rtt,
			Seed:          cfg.StoreSeed,
			RecordHistory: cfg.StoreHistory,
		})
		c.store = c.rep
	} else {
		c.store = metastore.New(se, rtt)
	}
	c.store.Watch("route/", func(k, v string) {
		name := strings.TrimPrefix(k, "route/")
		if v == "" {
			delete(c.routeMirror, name)
		} else {
			c.routeMirror[name] = v
		}
	})
	for _, dc := range cfg.Deployments {
		sys := core.NewSystem(se, core.Config{
			Prof:       cfg.Prof,
			TP:         dc.TP,
			Opts:       engine.AllOptimizations(),
			NumPrefill: dc.NumPrefill,
			NumDecode:  dc.NumDecode,
			Models:     dc.Models,
			SLO:        cfg.SLO,
			Obs:        cfg.Obs,
			SLOMon:     cfg.SLOMon,
			Fleet:      cfg.Fleet,
			Faults:     cfg.Faults,
			Overload:   cfg.Overload,
			Prefix:     cfg.Prefix,
			Market:     cfg.Market,
			Decisions:  cfg.Decisions,
		})
		dep := &Deployment{Name: dc.Name, TP: dc.TP, System: sys, models: map[string]bool{}}
		for _, m := range dc.Models {
			if prev, dup := c.route[m.Name]; dup {
				return nil, fmt.Errorf("cluster: model %q in deployments %q and %q",
					m.Name, prev.Name, dc.Name)
			}
			dep.models[m.Name] = true
			c.route[m.Name] = dep
			c.putRoute(m.Name, dc.Name, 0)
		}
		c.deps = append(c.deps, dep)
	}
	return c, nil
}

// putRoute writes one routing-table entry, retrying with a fixed backoff
// until acknowledged. On the quorum store the first leader election may not
// have finished when New runs, so a bounded retry loop (rather than the
// single store's fire-and-forget Set) is what guarantees the table lands.
func (c *Cluster) putRoute(model, dep string, attempt int) {
	c.store.SetE("route/"+model, dep, func(err error) {
		if err == nil || attempt >= 20 || c.healthStop {
			return
		}
		c.eng.After(500*time.Millisecond, func() { c.putRoute(model, dep, attempt+1) })
	})
}

// Store exposes the metadata store.
func (c *Cluster) Store() metastore.API { return c.store }

// Replicated exposes the quorum store (nil when StoreReplicas <= 1).
func (c *Cluster) Replicated() *metastore.Replicated { return c.rep }

// RouteMirror returns the proxy's watch-maintained routing-table copy.
func (c *Cluster) RouteMirror() map[string]string {
	out := make(map[string]string, len(c.routeMirror))
	for k, v := range c.routeMirror {
		out[k] = v
	}
	return out
}

// StoreView snapshots the control plane for /debug/metastore. Must run on
// the simulation goroutine.
func (c *Cluster) StoreView() metastore.ControlView {
	if c.rep != nil {
		return c.rep.View()
	}
	g, s, d := c.store.Ops()
	return metastore.ControlView{
		SchemaVersion: 1,
		Mode:          "single",
		Gets:          g,
		Sets:          s,
		Deletes:       d,
		FailedOps:     c.store.FailedOps(),
		Watches:       c.store.Watches(),
		Available:     c.store.Available(),
	}
}

// FaultStats snapshots the shared fault counters (zero value when the
// cluster was built without fault state).
func (c *Cluster) FaultStats() fault.Stats { return c.cfg.Faults.Snapshot() }

// Faults exposes the shared fault-injection state (nil when not configured).
func (c *Cluster) Faults() *fault.Faults { return c.cfg.Faults }

// Deployments returns the running deployments.
func (c *Cluster) Deployments() []*Deployment { return c.deps }

// Submit routes the trace through the proxy: each request's assignment is
// recorded in the metadata store (status sync, Fig. 5 ①②⑥) and forwarded
// to the owning deployment.
func (c *Cluster) Submit(trace []workload.Request) error {
	perDep := map[*Deployment][]workload.Request{}
	for _, r := range trace {
		dep, ok := c.route[r.Model]
		if !ok {
			return fmt.Errorf("cluster: no deployment serves model %q", r.Model)
		}
		perDep[dep] = append(perDep[dep], r)
		r, dep := r, dep
		c.eng.At(r.Arrival, func() {
			c.store.Set("req/"+r.ID, dep.Name)
		})
	}
	for dep, reqs := range perDep {
		if err := dep.System.Submit(reqs); err != nil {
			return err
		}
	}
	return nil
}

// SubmitLive routes one live request through the proxy at the current
// virtual time: the assignment is recorded in the metadata store (and
// cleared on completion, mirroring Fig. 5's status sync) and the request is
// forwarded to the owning deployment. Must run on the simulation goroutine.
func (c *Cluster) SubmitLive(wr workload.Request, onToken func(i int, at sim.Time), onDone func(*core.Request)) (*core.Request, error) {
	dep, ok := c.route[wr.Model]
	if !ok {
		return nil, fmt.Errorf("cluster: no deployment serves model %q", wr.Model)
	}
	c.store.Set("req/"+wr.ID, dep.Name)
	return dep.System.SubmitLive(wr, onToken, func(r *core.Request) {
		c.store.Delete("req/" + wr.ID)
		if onDone != nil {
			onDone(r)
		}
	})
}

// Abort cancels a live request whose client has disconnected: the owning
// deployment releases its KV and queue slots and its metadata entry is
// cleared (Abort does not fire OnDone, so the SubmitLive wrapper's cleanup
// never runs). Must run on the simulation goroutine.
func (c *Cluster) Abort(r *core.Request) {
	if r == nil {
		return
	}
	dep, ok := c.route[r.Model.Name]
	if !ok {
		return
	}
	dep.System.Abort(r)
	c.store.Delete("req/" + r.ID)
}

// Monitor exposes the live SLO monitor (nil when monitoring is off).
func (c *Cluster) Monitor() *slomon.Monitor { return c.cfg.SLOMon }

// Fleet exposes the fleet utilization ledger (nil when accounting is off).
func (c *Cluster) Fleet() *fleetobs.Ledger { return c.cfg.Fleet }

// Market exposes the shared spot-market model (nil when not configured).
func (c *Cluster) Market() *market.Market { return c.cfg.Market }

// Decisions exposes the shared decision journal (nil when provenance is off).
func (c *Cluster) Decisions() *decision.Journal { return c.cfg.Decisions }

// Routes returns the model -> deployment routing table (copy).
func (c *Cluster) Routes() map[string]string {
	out := make(map[string]string, len(c.route))
	for m, d := range c.route {
		out[m] = d.Name
	}
	return out
}

// Switches sums preemptive auto-scaling switch counts across all instances
// of all deployments.
func (c *Cluster) Switches() uint64 {
	var n uint64
	for _, d := range c.deps {
		for _, e := range d.System.Engines() {
			n += e.Stats().Switches
		}
	}
	return n
}

// VirtualNow returns the simulation clock. Must run on the simulation
// goroutine.
func (c *Cluster) VirtualNow() time.Duration { return c.eng.Now() }

// GPUInfo describes one instance's device for the debug endpoints.
type GPUInfo struct {
	Deployment string `json:"deployment"`
	Instance   string `json:"instance"`
	Model      string `json:"model"` // currently resident model ("" if none)
	Switches   uint64 `json:"switches_total"`
}

// GPUInfos lists every instance's device with its current occupant model.
// Must run on the simulation goroutine.
func (c *Cluster) GPUInfos() []GPUInfo {
	var out []GPUInfo
	for _, d := range c.deps {
		for _, e := range d.System.Engines() {
			info := GPUInfo{Deployment: d.Name, Instance: e.Name, Switches: e.Stats().Switches}
			if m := e.Current(); m != nil {
				info.Model = m.Name
			}
			out = append(out, info)
		}
	}
	return out
}

// LiveInFlight sums live-submitted, not-yet-finished requests.
func (c *Cluster) LiveInFlight() int {
	n := 0
	for _, d := range c.deps {
		n += d.System.LiveInFlight()
	}
	return n
}

// Finalize finalizes all deployments at end.
func (c *Cluster) Finalize(end sim.Time) {
	for _, d := range c.deps {
		d.System.Finalize(end)
	}
}

// Attainment returns the request-weighted token attainment across
// deployments.
func (c *Cluster) Attainment() float64 {
	var met, missed float64
	for _, d := range c.deps {
		m, x := d.System.Ledger().Fleet().Tokens()
		met += float64(m)
		missed += float64(x)
	}
	if met+missed == 0 {
		return 1
	}
	return met / (met + missed)
}

// AttachCumulative fills snap's cumulative blocks from the deployments' SLO
// ledgers. Models are disjoint across deployments, so each model block is
// the owning deployment's view; the fleet block merges every deployment's.
func (c *Cluster) AttachCumulative(snap *slomon.Snapshot) {
	fleet := c.deps[0].System.Ledger().Fleet()
	if len(c.deps) > 1 {
		fleet = &slo.Tracker{}
		for _, d := range c.deps {
			fleet.Merge(d.System.Ledger().Fleet())
		}
	}
	snap.AttachCumulative(fleet, func(model string) *slo.Tracker {
		if d := c.route[model]; d != nil {
			return d.System.Ledger().Model(model)
		}
		return nil
	})
}

// Completed sums completions.
func (c *Cluster) Completed() int {
	n := 0
	for _, d := range c.deps {
		n += d.System.Completed()
	}
	return n
}

// Overload exposes the shared brownout controller (nil when overload
// control is not configured).
func (c *Cluster) Overload() *overload.Controller { return c.cfg.Overload }

// PrefixCaches returns each deployment's prefix cache keyed by deployment
// name (empty map when the prefix cache is disabled).
func (c *Cluster) PrefixCaches() map[string]*prefixcache.Cache {
	out := map[string]*prefixcache.Cache{}
	for _, d := range c.deps {
		if pc := d.System.PrefixCache(); pc != nil {
			out[d.Name] = pc
		}
	}
	return out
}

// AttainmentByPriority returns token attainment per service tier, merged
// across deployments. Tiers that judged no tokens report 1 (vacuous
// attainment, matching Attainment's empty-fleet convention).
func (c *Cluster) AttainmentByPriority() map[string]float64 {
	out := make(map[string]float64, workload.NumPriorities)
	for p := workload.Priority(0); p < workload.NumPriorities; p++ {
		var met, missed float64
		for _, d := range c.deps {
			m, x := d.System.Ledger().Tier(p)
			met += float64(m)
			missed += float64(x)
		}
		att := 1.0
		if met+missed > 0 {
			att = met / (met + missed)
		}
		out[p.String()] = att
	}
	return out
}

// OverloadSheds merges per-reason overload shed counts across deployments.
func (c *Cluster) OverloadSheds() map[string]int {
	out := map[string]int{}
	for _, d := range c.deps {
		for reason, n := range d.System.OverloadSheds() {
			out[reason] += n
		}
	}
	return out
}
