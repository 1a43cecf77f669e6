package core

import (
	"fmt"
	"time"

	"aegaeon/internal/decision"
	"aegaeon/internal/engine"
	"aegaeon/internal/fault"
	"aegaeon/internal/fleetobs"
	"aegaeon/internal/kvcache"
	"aegaeon/internal/latency"
	"aegaeon/internal/market"
	"aegaeon/internal/memory"
	"aegaeon/internal/metrics"
	"aegaeon/internal/model"
	"aegaeon/internal/obs"
	"aegaeon/internal/overload"
	"aegaeon/internal/prefixcache"
	"aegaeon/internal/sim"
	"aegaeon/internal/slo"
	"aegaeon/internal/slomon"
	"aegaeon/internal/workload"
)

// Config parameterizes a full Aegaeon serving system.
type Config struct {
	Prof *latency.Profile
	TP   int
	Opts engine.Options

	NumPrefill int
	NumDecode  int

	Models []*model.Model // the market; host cache is pre-warmed with them
	SLO    slo.SLO
	// ModelSLOs optionally overrides the SLO per model name (an extension
	// beyond the paper, which gives all requests to one model identical
	// SLOs and all models the same targets in evaluation).
	ModelSLOs map[string]slo.SLO

	// Scheduler constants (§4.2, §4.3).
	MaxGroupSize int           // MAX_GPSIZE, default 8
	QMax         time.Duration // QMAX, default 4s

	// Memory geometry. Zero values are auto-derived from the profile and
	// model set.
	WeightsRegionBytes int64
	KVRegionBytes      int64
	KVSlabBytes        int64
	BlockTokens        int
	HostDRAMBytes      int64

	// KVHeadroom is the fraction of the GPU KV region the batch-size
	// derivation may plan to fill (default 0.9).
	KVHeadroom float64

	// NodeGPUs is the number of GPUs per physical node (default 8, §7.1);
	// host-memory capacity scales with the node count the pool spans.
	NodeGPUs int

	// Obs, when non-nil, is the observability collector receiving request
	// span timelines, device op timelines, switch-cost attribution, and the
	// flat ring of scheduler events (arrivals, switches, turns, completions,
	// failures). Nil leaves observability off with zero overhead.
	Obs *obs.Collector

	// SLOMon, when non-nil, receives every token's deadline judgement as it
	// is produced, powering live sliding-window attainment, burn-rate alerts,
	// and miss attribution.
	// Nil keeps the token hot path free of monitoring overhead.
	SLOMon *slomon.Monitor

	// FixedQuota disables the Eq. 2 quota formula and gives every decoding
	// batch a flat QMax turn — the ablation for §4.3's weighted scheme.
	FixedQuota bool

	// Faults is the shared fault-injection state, threaded into every
	// engine's fetch and KV-transfer paths. Nil (the default) keeps the
	// system byte-identical to a fault-free build.
	Faults *fault.Faults

	// Overload, when non-nil, enables overload control: the brownout
	// controller is stepped from the live monitor's burn-rate state at every
	// admission, requests are shed by tier and by first-token feasibility,
	// degraded prefill scheduling orders groups by (priority, slack), and a
	// reaper aborts doomed requests mid-queue. Nil (the default) leaves
	// scheduling byte-identical to the uncontrolled system.
	Overload *overload.Controller

	// Fleet, when non-nil, is the fleet utilization ledger: every device's
	// GPU-seconds are partitioned into exclusive states (idle, prefill,
	// decode, switch stages, DMA, faulted) with goodput token attribution
	// per model and KV pool watermarks. Nil (the default) keeps the serving
	// path free of accounting overhead.
	Fleet *fleetobs.Ledger

	// Prefix, when non-nil, enables the global prefix cache (PR 6): prefill
	// consults it to skip recomputing cached prompt prefixes, computed
	// prefixes are inserted for later turns, and — when Prefix.Routing is
	// set — dispatch steers a conversation's next turn toward the instance
	// holding its prefix. Nil leaves the serving path byte-identical to a
	// cache-free build.
	Prefix *prefixcache.Config

	// Decisions, when non-nil, is the decision-provenance journal: every
	// policy site (admission gates, the brownout ladder, shedding, routing
	// and placement scoring, switches, KV/prefix eviction, spot evacuation)
	// records its candidate set, score terms, and chosen outcome there. Nil
	// (the default) keeps every policy hot path free of journaling — call
	// sites nil-check before building record slices, so the off path is
	// allocation-free.
	Decisions *decision.Journal

	// Market, when non-nil, is the spot-market model: heterogeneous device
	// classes (each instance registers for a class whose profile sizes its
	// compute, interconnect, and VRAM regions), spot price traces, preemption
	// notices with KV evacuation ahead of the revocation deadline, and
	// risk-adjusted placement. Nil keeps the pool homogeneous and the serving
	// path byte-identical to a market-free build.
	Market *market.Market

	DaemonPoll time.Duration
}

func (c *Config) applyDefaults() {
	if c.TP < 1 {
		c.TP = 1
	}
	if c.MaxGroupSize <= 0 {
		c.MaxGroupSize = 8
	}
	if c.QMax <= 0 {
		c.QMax = 4 * time.Second
	}
	if c.BlockTokens <= 0 {
		c.BlockTokens = 16
	}
	if c.KVSlabBytes <= 0 {
		c.KVSlabBytes = 64 << 20
	}
	if c.KVHeadroom <= 0 || c.KVHeadroom > 1 {
		c.KVHeadroom = 0.9
	}
	if c.HostDRAMBytes <= 0 {
		c.HostDRAMBytes = 2 << 40 // §7.1: 2 TB per node
	}
	if c.NodeGPUs <= 0 {
		c.NodeGPUs = 8 // §7.1: eight GPUs per node
	}
	if c.WeightsRegionBytes == 0 || c.KVRegionBytes == 0 {
		w, _, prefetch := c.regionsFor(c.Prof)
		c.Opts.Prefetch = prefetch
		if c.WeightsRegionBytes == 0 {
			c.WeightsRegionBytes = w
		}
		if c.KVRegionBytes == 0 {
			usable := int64(float64(c.Prof.VRAMBytes) * 0.9)
			c.KVRegionBytes = usable - c.WeightsRegionBytes
			if c.KVRegionBytes < c.KVSlabBytes {
				panic(fmt.Sprintf("core: no VRAM left for KV cache (weights %d, usable %d)",
					c.WeightsRegionBytes, usable))
			}
		}
	}
}

// regionsFor derives the VRAM split applyDefaults gives a homogeneous pool,
// for one device profile: the weights region, the KV region, and whether
// prefetching a second model fits. Factored out so heterogeneous market
// classes can size each instance for its own VRAM capacity.
func (c *Config) regionsFor(prof *latency.Profile) (weights, kv int64, prefetch bool) {
	usable := int64(float64(prof.VRAMBytes) * 0.9) // §5.2: ~10% left to the tensor library
	var maxShard int64
	for _, m := range c.Models {
		if s := m.ShardWeightBytes(c.TP); s > maxShard {
			maxShard = s
		}
	}
	weights = maxShard + maxShard/16 // headroom for alignment
	if c.Opts.Colocate {
		// Colocation sizes the weights region for about three resident
		// models — enough to amortize switches between the hot set
		// without starving the KV cache (more residents would trade KV
		// capacity for little extra switch savings; see the §8
		// ablation).
		w := 3*maxShard + maxShard/8
		if max := usable - usable*15/100; w > max {
			w = max
		}
		if w < weights {
			w = weights // at least one model must fit
		}
		weights = w
		kv = usable - weights
		if kv < c.KVSlabBytes {
			panic(fmt.Sprintf("core: no VRAM left for KV cache under colocation (weights %d, usable %d)",
				weights, usable))
		}
		return weights, kv, c.Opts.Prefetch
	}
	// Prefetch needs room for a second resident model, but never at the
	// cost of starving the KV cache: require at least max(4 GiB, 8% of
	// usable VRAM) left for KV afterwards (§7.4 disables prefetching on
	// A10s for the same reason).
	minKV := int64(float64(usable) * 0.08)
	if minKV < 4<<30 {
		minKV = 4 << 30
	}
	if c.Opts.Prefetch && usable-(2*weights+weights/8) >= minKV {
		weights = 2*weights + weights/8 // room for a prefetched second model
		prefetch = true
	}
	kv = usable - weights
	if kv < c.KVSlabBytes {
		panic(fmt.Sprintf("core: no VRAM left for KV cache (weights %d, usable %d)",
			weights, usable))
	}
	return weights, kv, prefetch
}

// System is one Aegaeon deployment: a pool of prefill and decoding
// instances sharing a host model cache and unified CPU KV cache.
type System struct {
	eng *sim.Engine
	cfg Config

	modelCache *memory.ModelCache
	cpuKV      *kvcache.Cache
	prefix     *prefixcache.Cache // nil when the prefix cache is off
	models     map[string]*model.Model

	prefills []*prefillInstance
	decodes  []*decodeInstance

	// ledger is the one cumulative account of request fates, written only
	// by judge. Its per-tier view lets overload reports show that shedding
	// protected high-tier attainment instead of laundering misses.
	ledger slo.Ledger
	// shedReasons counts overload sheds by typed reason.
	shedReasons map[string]int
	reaperArmed bool
	mon         *slomon.Monitor
	fleet       *fleetobs.Ledger
	obs         *obs.Collector
	dec         *decision.Journal
	breakdown   *metrics.Breakdown
	requests    []*Request
	completed   int
	failed      int
	aborted     int
	liveOpen    int // live-submitted requests not yet finished

	// orphans stashes the in-flight requests of crashed instances, keyed by
	// engine name, until RecoverOrphansOf re-dispatches them.
	orphans map[string][]*Request

	// evacuating tracks, per noticed instance, the requests whose KV offload
	// to the host tier is still in flight; they re-home when the transfer
	// lands or fall through to the crash path at the revocation deadline.
	evacuating map[string]map[*Request]bool

	// Per-request decode waiting is derived at finish time.
	kvSyncPerReq metrics.CDF // Fig. 15 right
}

// NewSystem builds a system on the simulation engine.
func NewSystem(se *sim.Engine, cfg Config) *System {
	cfg.applyDefaults()
	if cfg.NumPrefill < 1 || cfg.NumDecode < 1 {
		panic("core: need at least one prefill and one decode instance")
	}
	// The pool spans ceil(totalGPUs / NodeGPUs) physical nodes; the model
	// cache and unified CPU KV cache aggregate their DRAM (Fig. 5 shows one
	// per node; we model the union, with KV transfers treated as intra-node).
	totalGPUs := (cfg.NumPrefill + cfg.NumDecode) * cfg.TP
	nodes := (totalGPUs + cfg.NodeGPUs - 1) / cfg.NodeGPUs
	if nodes < 1 {
		nodes = 1
	}
	dram := cfg.HostDRAMBytes * int64(nodes)
	s := &System{
		eng:        se,
		cfg:        cfg,
		modelCache: memory.NewModelCache(int64(float64(dram) * 0.6)),
		cpuKV: kvcache.NewCache("cpu-kv", int64(float64(dram)*0.3),
			cfg.KVSlabBytes, cfg.BlockTokens),
		models:      map[string]*model.Model{},
		orphans:     map[string][]*Request{},
		evacuating:  map[string]map[*Request]bool{},
		shedReasons: map[string]int{},
		mon:         cfg.SLOMon,
		fleet:       cfg.Fleet,
		obs:         cfg.Obs,
		dec:         cfg.Decisions,
		breakdown:   &metrics.Breakdown{},
	}
	for _, m := range cfg.Models {
		s.models[m.Name] = m
		// Pre-warm the host model cache (best effort; misses fall back to
		// the remote registry path).
		_ = s.modelCache.Insert(m.Name, m.WeightBytes())
	}
	mkEngine := func(name string) *engine.Engine {
		prof, opts := cfg.Prof, cfg.Opts
		weights, kvRegion := cfg.WeightsRegionBytes, cfg.KVRegionBytes
		if cls := cfg.Market.Register(name); cls != nil && cls.Prof != nil && cls.Prof.Name != prof.Name {
			// Heterogeneous pool: the instance runs its market class's
			// hardware, with a VRAM split derived for that class's capacity
			// (a 24 GB consumer card gets a smaller KV region and loses
			// prefetch headroom, mirroring §7.4's A10 treatment).
			prof = cls.Prof
			var pf bool
			weights, kvRegion, pf = cfg.regionsFor(prof)
			opts.Prefetch = opts.Prefetch && pf
		}
		return engine.New(se, name, engine.Config{
			Prof:               prof,
			TP:                 cfg.TP,
			Opts:               opts,
			WeightsRegionBytes: weights,
			KVRegionBytes:      kvRegion,
			KVSlabBytes:        cfg.KVSlabBytes,
			BlockTokens:        cfg.BlockTokens,
			ModelCache:         s.modelCache,
			CPUKV:              s.cpuKV,
			DaemonPoll:         cfg.DaemonPoll,
			Obs:                cfg.Obs,
			Fleet:              cfg.Fleet,
			Faults:             cfg.Faults,
		})
	}
	if cfg.Prefix != nil {
		// The prefix cache's host tier allocates from the same shared CPU KV
		// pool sequence swap-outs use; its budget keeps the two from starving
		// each other. The system's decision journal (when on) observes its
		// eviction victim choices, stamped with virtual time.
		pfxCfg := *cfg.Prefix
		if s.dec != nil {
			pfxCfg.Journal = s.dec
			pfxCfg.Clock = s.eng.Now
		}
		s.prefix = prefixcache.New(pfxCfg, s.cpuKV)
	}
	for i := 0; i < cfg.NumPrefill; i++ {
		e := mkEngine(fmt.Sprintf("prefill%d", i))
		e.WarmBoot() // instances are long-running; experiments start warm
		s.prefills = append(s.prefills, newPrefillInstance(s, e))
		if s.prefix != nil {
			// Only prefill instances hold device copies: that is where prompt
			// KV is produced and reused. Decode instances receive KV through
			// the existing swap-in path.
			s.prefix.AttachDevice(e.Name, e.KV().GPUCache)
		}
	}
	for i := 0; i < cfg.NumDecode; i++ {
		e := mkEngine(fmt.Sprintf("decode%d", i))
		e.WarmBoot()
		s.decodes = append(s.decodes, newDecodeInstance(s, e))
	}
	return s
}

// Submit schedules the trace's arrivals into the simulation. Must be called
// before running the simulation.
func (s *System) Submit(trace []workload.Request) error {
	for _, wr := range trace {
		m, ok := s.models[wr.Model]
		if !ok {
			return fmt.Errorf("core: request %s targets unknown model %q", wr.ID, wr.Model)
		}
		wr := wr
		r := newRequest(wr, m)
		r.Deadline = s.sloFor(wr.Model).Deadline(wr.Arrival, 0)
		s.requests = append(s.requests, r)
		s.eng.At(wr.Arrival, func() {
			if s.admitOverload(r) {
				s.dispatchPrefill(r)
			}
		})
	}
	return nil
}

// SubmitLive admits one request at the current virtual time and dispatches
// it immediately — the live-serving entry point used by the gateway. It
// must be called on the simulation goroutine (via the sim.Driver injection
// API); the hooks fire there too, as tokens are produced. Unlike Submit,
// live requests are not retained for batch Finalize reporting: their SLO
// fate is judged into the SLO ledger when they end, so a long-running
// gateway does not accumulate per-request state.
func (s *System) SubmitLive(wr workload.Request, onToken func(i int, at sim.Time), onDone func(*Request)) (*Request, error) {
	m, ok := s.models[wr.Model]
	if !ok {
		return nil, fmt.Errorf("core: request %s targets unknown model %q", wr.ID, wr.Model)
	}
	if wr.InputTokens < 1 || wr.OutputTokens < 1 {
		return nil, fmt.Errorf("core: request %s has non-positive token counts", wr.ID)
	}
	wr.Arrival = s.eng.Now()
	r := newRequest(wr, m)
	r.Deadline = s.sloFor(wr.Model).Deadline(wr.Arrival, 0)
	r.live = true
	r.OnToken = onToken
	r.OnDone = onDone
	s.liveOpen++
	if s.admitOverload(r) {
		s.dispatchPrefill(r)
	}
	return r, nil
}

// LiveInFlight returns the number of live-submitted requests not yet
// finished.
func (s *System) LiveInFlight() int { return s.liveOpen }

// dispatchPrefill implements Algorithm 1's arrival event: join an existing
// same-model group anywhere in the pool if one has room; otherwise open a
// new group on the least-loaded prefill instance. With cache-aware routing
// enabled, placement instead minimizes load minus the expected prefix-reuse
// benefit on each instance — affinity is a bounded credit against queue
// depth, never an override of it (or of admission control, which already ran).
func (s *System) dispatchPrefill(r *Request) {
	if r.terminal() {
		return
	}
	s.obs.RequestArrived(r.ID, r.Model.Name, s.eng.Now())
	if s.prefix != nil && s.prefix.Routing() && len(r.Segments) > 0 {
		if best := s.routePrefix(r); best != nil {
			if !best.tryJoinGroup(r) {
				best.newGroup(r)
			}
			return
		}
		// Fall through: every instance is dead or market-excluded; the
		// generic path below waives exclusions before failing the request.
	}
	for _, p := range s.prefills {
		if !p.dead && s.marketAllows(p.eng.Name) && p.tryJoinGroup(r) {
			if j := s.dec; j != nil {
				j.Record(decision.Record{At: s.eng.Now(), Kind: decision.KindPrefillRouting,
					Request: r.ID, Model: r.Model.Name, Instance: p.eng.Name,
					Outcome: p.eng.Name, Reason: "joined open group"})
			}
			return
		}
	}
	best := s.bestPrefill(r)
	if best == nil {
		s.failRequest(r, "no surviving prefill capacity")
		return
	}
	best.newGroup(r)
}

// bestPrefill returns the surviving prefill instance with the lowest
// market-adjusted load score. When every survivor is market-excluded (under
// a reclaim notice, disqualified, or VRAM-starved) the exclusions are waived:
// serving on a risky device beats failing the request.
func (s *System) bestPrefill(r *Request) *prefillInstance {
	journal := s.dec != nil
	var cands []decision.Candidate
	bestIdx := -1
	pick := func(waive bool) *prefillInstance {
		if journal {
			cands = cands[:0]
			bestIdx = -1
		}
		var best *prefillInstance
		var bestScore time.Duration
		for _, p := range s.prefills {
			if p.dead {
				continue
			}
			s.noteHeadroom(p.eng)
			sw := p.eng.CostFor(r.Model).Switch()
			pen, ok := s.marketPenalty(p.eng.Name, sw)
			if !ok && !waive {
				if journal {
					cands = append(cands, decision.Candidate{Name: p.eng.Name, Excluded: true})
				}
				continue
			}
			capab := s.marketCapability(p.eng.Name)
			score := time.Duration(float64(p.load())/capab) + pen
			if journal {
				cands = append(cands, decision.Candidate{
					Name: p.eng.Name, Score: float64(score),
					Terms: []decision.Term{
						decision.NsTerm("load", p.load()),
						{Name: "capability", Value: capab},
						decision.NsTerm("market_penalty", pen),
						decision.NsTerm("switch_cost", sw),
					},
				})
			}
			if best == nil || score < bestScore {
				best, bestScore = p, score
				if journal {
					bestIdx = len(cands) - 1
				}
			}
		}
		return best
	}
	best := pick(false)
	waived := false
	if best == nil {
		best = pick(true)
		waived = true
	}
	if journal {
		rec := decision.Record{At: s.eng.Now(), Kind: decision.KindPrefillRouting,
			Request: r.ID, Model: r.Model.Name, Outcome: "none",
			Candidates: append([]decision.Candidate(nil), cands...)}
		if best != nil {
			rec.Outcome = best.eng.Name
			rec.Instance = best.eng.Name
			if bestIdx >= 0 {
				rec.Candidates[bestIdx].Chosen = true
			}
		}
		if waived {
			rec.Reason = "market exclusions waived"
		}
		s.dec.Record(rec)
	}
	return best
}

// marketCapability is the capability divisor aware placement normalizes load
// scores by: a queue on a device with 0.13 of the pool's best compute counts
// ~8x its length, so weak consumer cards stop looking empty just because
// their (slow) queues are short. 1 for homogeneous pools, dead devices, and
// spot-naive mode — the naive baseline stays capability-blind by design.
func (s *System) marketCapability(name string) float64 {
	if !s.cfg.Market.Enabled() || !s.cfg.Market.Aware() {
		return 1
	}
	if c := s.cfg.Market.CapabilityScore(name); c > 0 {
		return c
	}
	return 1
}

// marketPenalty converts the market's placement risk for an instance into
// load-score units (one penalty point ≈ one second of queued work);
// ok=false means aware placement excludes the device. A nil market yields
// (0, true), keeping dispatch byte-identical to the market-free build.
func (s *System) marketPenalty(name string, switchCost time.Duration) (time.Duration, bool) {
	pen, ok := s.cfg.Market.PlacementPenalty(name, switchCost)
	return time.Duration(pen * float64(time.Second)), ok
}

// marketAllows reports whether aware placement may target the instance (the
// fast-path join check; exclusions are waived only through best* fallbacks).
func (s *System) marketAllows(name string) bool {
	_, ok := s.cfg.Market.PlacementPenalty(name, 0)
	return ok
}

// noteHeadroom refreshes the market's VRAM-headroom view of an instance from
// its GPU KV pool occupancy, feeding the capability-scoring disqualification.
func (s *System) noteHeadroom(e *engine.Engine) {
	if !s.cfg.Market.Enabled() {
		return
	}
	pool := e.KV().GPUCache.Pool()
	if c := pool.Capacity(); c > 0 {
		s.cfg.Market.NoteHeadroom(e.Name, 1-float64(pool.UsedBytes())/float64(c))
	}
}

// routePrefix scores every live prefill instance as (queue load − expected
// prefix benefit) and returns the minimum; nil when no instance survives.
// The benefit is the prefill compute the instance's cached prefix would
// avoid, minus the tier-dependent copy cost of materializing it — so a long
// hit on a deeply queued instance loses to a miss on an idle one exactly
// when recomputing is faster than waiting, which keeps cache affinity
// subordinate to the PR 5 overload machinery.
func (s *System) routePrefix(r *Request) *prefillInstance {
	var best *prefillInstance
	var bestScore time.Duration
	journal := s.dec != nil
	var cands []decision.Candidate
	bestIdx := -1
	shape := r.Model.ShardKVShape(s.cfg.TP)
	full := 0
	for _, p := range s.prefills {
		if p.dead {
			continue
		}
		s.noteHeadroom(p.eng)
		pen, ok := s.marketPenalty(p.eng.Name, p.eng.CostFor(r.Model).Switch())
		if !ok {
			if journal {
				cands = append(cands, decision.Candidate{Name: p.eng.Name, Excluded: true})
			}
			continue // under notice / disqualified; bestPrefill may waive later
		}
		score := p.load() + pen
		matched, onDevice := s.prefix.MatchTokensOn(p.eng.Name, r.Model.Name, r.Segments, r.InputTokens)
		var saved, copyCost, credit time.Duration
		if matched > 0 {
			if full == 0 {
				full = r.InputTokens + r.Generated()
			}
			saved = p.eng.PrefillEstimate(r.Model, full) - p.eng.PrefillEstimate(r.Model, full-matched)
			hostBytes := shape.BytesPerToken() * int64(matched-onDevice)
			devBytes := shape.BytesPerToken() * int64(onDevice)
			copyCost = p.eng.CostFor(r.Model).Prof.PCIeCopy(hostBytes) + p.eng.CostFor(r.Model).OnDeviceCopy(devBytes)
			if benefit := saved - copyCost; benefit > 0 {
				credit = benefit
				score -= benefit
			}
		}
		if journal {
			cands = append(cands, decision.Candidate{
				Name: p.eng.Name, Score: float64(score),
				Terms: []decision.Term{
					decision.NsTerm("load", p.load()),
					decision.NsTerm("market_penalty", pen),
					{Name: "matched_tokens", Value: float64(matched)},
					{Name: "on_device_tokens", Value: float64(onDevice)},
					decision.NsTerm("prefill_saved", saved),
					decision.NsTerm("copy_cost", copyCost),
					decision.NsTerm("prefix_credit", credit),
				},
			})
		}
		if best == nil || score < bestScore {
			best, bestScore = p, score
			if journal {
				bestIdx = len(cands) - 1
			}
		}
	}
	if journal {
		rec := decision.Record{At: s.eng.Now(), Kind: decision.KindPrefillRouting,
			Request: r.ID, Model: r.Model.Name, Outcome: "none", Reason: "cache-aware",
			Candidates: cands}
		if best != nil {
			rec.Outcome = best.eng.Name
			rec.Instance = best.eng.Name
			if bestIdx >= 0 {
				rec.Candidates[bestIdx].Chosen = true
			}
		}
		s.dec.Record(rec)
	}
	return best
}

// releasePrefix unpins the request's prefix-cache hit, if any. Safe on every
// terminal and retry path; the Hit itself is idempotent.
func (s *System) releasePrefix(r *Request) {
	if r.prefixHit != nil {
		r.prefixHit.Release(s.eng.Now())
		r.prefixHit = nil
	}
}

// PrefixCache exposes the global prefix cache (nil when disabled).
func (s *System) PrefixCache() *prefixcache.Cache { return s.prefix }

// dispatchDecode routes a freshly prefilled request to a decoding instance:
// prefer an instance already holding an open batch of the same model with
// KV room, else the least-loaded instance by work-list size (Algorithm 2
// line 2).
func (s *System) dispatchDecode(r *Request) {
	if r.terminal() {
		return
	}
	for _, d := range s.decodes {
		if !d.dead && s.marketAllows(d.eng.Name) && d.hasRoomInModelBatch(r) {
			if j := s.dec; j != nil {
				j.Record(decision.Record{At: s.eng.Now(), Kind: decision.KindDecodePlacement,
					Request: r.ID, Model: r.Model.Name, Instance: d.eng.Name,
					Outcome: d.eng.Name, Reason: "joined open batch"})
			}
			d.enqueue(r)
			return
		}
	}
	best := s.bestDecode(r)
	if best == nil {
		s.failRequest(r, "no surviving decode capacity")
		return
	}
	best.enqueue(r)
}

// bestDecode mirrors bestPrefill for the decoding pool: lowest work-list
// load plus the market's risk penalty, waiving exclusions only when every
// survivor is excluded.
func (s *System) bestDecode(r *Request) *decodeInstance {
	journal := s.dec != nil
	var cands []decision.Candidate
	bestIdx := -1
	pick := func(waive bool) *decodeInstance {
		if journal {
			cands = cands[:0]
			bestIdx = -1
		}
		var best *decodeInstance
		var bestScore float64
		for _, d := range s.decodes {
			if d.dead {
				continue
			}
			s.noteHeadroom(d.eng)
			sw := d.eng.EffectiveSwitchCost(r.Model)
			pen, ok := s.cfg.Market.PlacementPenalty(d.eng.Name, sw)
			if !ok && !waive {
				if journal {
					cands = append(cands, decision.Candidate{Name: d.eng.Name, Excluded: true})
				}
				continue
			}
			capab := s.marketCapability(d.eng.Name)
			score := float64(d.load())/capab + pen
			if journal {
				cands = append(cands, decision.Candidate{
					Name: d.eng.Name, Score: score,
					Terms: []decision.Term{
						{Name: "load", Value: float64(d.load())},
						{Name: "capability", Value: capab},
						{Name: "market_penalty", Value: pen},
						decision.NsTerm("switch_cost", sw),
					},
				})
			}
			if best == nil || score < bestScore {
				best, bestScore = d, score
				if journal {
					bestIdx = len(cands) - 1
				}
			}
		}
		return best
	}
	best := pick(false)
	waived := false
	if best == nil {
		best = pick(true)
		waived = true
	}
	if journal {
		rec := decision.Record{At: s.eng.Now(), Kind: decision.KindDecodePlacement,
			Request: r.ID, Model: r.Model.Name, Outcome: "none",
			Candidates: append([]decision.Candidate(nil), cands...)}
		if best != nil {
			rec.Outcome = best.eng.Name
			rec.Instance = best.eng.Name
			if bestIdx >= 0 {
				rec.Candidates[bestIdx].Chosen = true
			}
		}
		if waived {
			rec.Reason = "market exclusions waived"
		}
		s.dec.Record(rec)
	}
	return best
}

// sloFor returns the SLO governing requests to the named model.
func (s *System) sloFor(modelName string) slo.SLO {
	if v, ok := s.cfg.ModelSLOs[modelName]; ok {
		return v
	}
	return s.cfg.SLO
}

// noteToken feeds the token the instance just produced for r into the live
// SLO monitor, judged against its deadline. prevLen is len(r.TokenTimes)
// before the recordToken call: recordToken no-ops on terminal requests, so
// an unchanged length means no token was actually emitted.
func (s *System) noteToken(instance string, r *Request, prevLen int, at sim.Time) {
	if len(r.TokenTimes) == prevLen {
		return
	}
	// Goodput attribution: the token was produced on this device for this
	// model, regardless of whether the live monitor is on.
	s.fleet.AddTokens(instance, r.Model.Name, 1)
	if s.mon == nil {
		return
	}
	i := len(r.TokenTimes) - 1
	rslo := s.sloFor(r.Model.Name)
	var prev sim.Time
	if i > 0 {
		prev = r.TokenTimes[i-1]
	}
	s.mon.ObserveToken(slomon.TokenObs{
		Model:    r.Model.Name,
		Request:  r.ID,
		Instance: instance,
		Index:    i,
		Arrival:  r.Arrival,
		Deadline: rslo.Deadline(r.Arrival, i),
		At:       at,
		Prev:     prev,
	})
}

// noteDroppedTokens feeds the monitor's windows r's never-generated tokens.
// With all set (the failRequest path) every unproduced token counts: a dead
// request's remaining tokens can no longer meet any deadline. Otherwise (the
// Finalize path) only tokens whose deadline has passed by judged count.
func (s *System) noteDroppedTokens(r *Request, judged sim.Time, all bool) {
	if s.mon == nil {
		return
	}
	rslo := s.sloFor(r.Model.Name)
	for i := r.Generated(); i < r.OutputTokens; i++ {
		dl := rslo.Deadline(r.Arrival, i)
		if !all && dl > judged {
			break // deadlines are monotone in i
		}
		s.mon.ObserveDropped(r.Model.Name, r.ID, "", r.Arrival, dl, judged)
	}
}

// judge folds r's fate into the SLO ledger: every generated token against
// its deadline, plus dropped never-generated tokens as misses. Each request
// is judged exactly once — live requests when they end, batch requests at
// Finalize.
func (s *System) judge(r *Request, dropped int) {
	s.ledger.Observe(r.Model.Name, r.Priority, s.sloFor(r.Model.Name), r.Arrival, r.TokenTimes, dropped)
}

// finishRequest records completion.
func (s *System) finishRequest(r *Request) {
	if r.terminal() {
		return // already failed or aborted; completion raced a terminal path
	}
	s.releasePrefix(r) // safety net; the prefill path normally released it
	s.obs.RequestDone(r.ID, s.eng.Now())
	r.Done = true
	r.finished = s.eng.Now()
	s.completed++
	if j := s.dec; j != nil {
		j.Record(decision.Record{At: s.eng.Now(), Kind: decision.KindTerminal,
			Request: r.ID, Model: r.Model.Name, Outcome: decision.OutcomeDone})
	}
	if r.live {
		s.liveOpen--
		s.judge(r, 0)
	}
	if r.OnDone != nil {
		r.OnDone(r)
	}
}

// failRequest cleanly rejects a request the system can no longer serve
// (typically: every instance of a partition has crashed). The request is
// terminal; its KV is released; live submitters are notified through OnDone
// with Failed set, and their SLO observation records every unproduced token
// as a miss — graceful degradation must not launder violations.
func (s *System) failRequest(r *Request, reason string) {
	if r.terminal() {
		return
	}
	s.releasePrefix(r)
	s.freeSeq(r)
	r.Failed = true
	r.FailReason = reason
	r.finished = s.eng.Now()
	s.failed++
	if j := s.dec; j != nil {
		j.Record(decision.Record{At: s.eng.Now(), Kind: decision.KindTerminal,
			Request: r.ID, Model: r.Model.Name, Outcome: decision.OutcomeFailed, Reason: reason})
	}
	s.cfg.Faults.CountRejected()
	s.obs.Fault("", "rejected", r.ID+": "+reason, s.eng.Now())
	if r.live {
		s.liveOpen--
		s.judge(r, r.RemainingTokens())
	}
	// A failed request's misses reach the monitor's windows when they
	// happen, batch requests included: the brownout controller reads burn
	// rates mid-run, and deferring the burst to the end of the run would
	// hide the very overload it is supposed to react to. Batch requests are
	// still judged into the ledger at Finalize.
	s.noteDroppedTokens(r, s.eng.Now(), true)
	if r.OnDone != nil {
		r.OnDone(r)
	}
}

// Abort cancels a request whose client has gone away (gateway disconnect).
// It is removed from every queue, its KV is released, and no further tokens
// are emitted — compute steps already in flight complete against the
// simulated hardware but their token for this request is discarded. OnDone
// is not fired: the caller initiated the abort and the client is gone.
func (s *System) Abort(r *Request) {
	if r == nil || r.terminal() {
		return
	}
	r.aborted = true
	r.finished = s.eng.Now()
	s.aborted++
	if j := s.dec; j != nil {
		j.Record(decision.Record{At: s.eng.Now(), Kind: decision.KindTerminal,
			Request: r.ID, Model: r.Model.Name, Outcome: decision.OutcomeAborted,
			Reason: "client disconnect"})
	}
	s.removeFromQueues(r)
	s.releasePrefix(r)
	s.freeSeq(r)
	if r.live {
		s.liveOpen--
		// Tokens delivered before the disconnect still count toward SLO
		// attainment; the tail the client walked away from does not.
		s.judge(r, 0)
	}
}

// removeFromQueues eagerly deletes r from prefill group queues and decode
// pending lists / batches. Lazy terminal checks at the dispatch and step
// paths catch anything in flight that this sweep cannot reach.
func (s *System) removeFromQueues(r *Request) {
	for _, p := range s.prefills {
		for _, g := range p.queue {
			for i, x := range g.reqs {
				if x == r {
					g.reqs = append(g.reqs[:i], g.reqs[i+1:]...)
					break
				}
			}
		}
	}
	for _, d := range s.decodes {
		for i, x := range d.pending {
			if x == r {
				d.pending = append(d.pending[:i], d.pending[i+1:]...)
				break
			}
		}
		for _, b := range d.workList {
			for i, x := range b.reqs {
				if x == r {
					b.reqs = append(b.reqs[:i], b.reqs[i+1:]...)
					break
				}
			}
		}
		if b := d.current; b != nil {
			for i, x := range b.reqs {
				if x == r {
					b.reqs = append(b.reqs[:i], b.reqs[i+1:]...)
					break
				}
			}
		}
	}
}

// Completed returns the number of fully served requests.
func (s *System) Completed() int { return s.completed }

// FailedRequests returns the number of cleanly rejected requests.
func (s *System) FailedRequests() int { return s.failed }

// AbortedRequests returns the number of client-cancelled requests.
func (s *System) AbortedRequests() int { return s.aborted }

// Faults exposes the system's fault-injection state (nil when not faulted).
func (s *System) Faults() *fault.Faults { return s.cfg.Faults }

// Requests returns all submitted requests (live view).
func (s *System) Requests() []*Request { return s.requests }

// Finalize computes SLO attainment and the latency breakdown after the
// simulation has run. endTime bounds the judgement of never-generated
// tokens: a token whose deadline passed before endTime without being
// generated counts as missed, so overload cannot launder violations.
func (s *System) Finalize(endTime sim.Time) {
	for _, r := range s.requests {
		dropped := 0
		if !r.Done {
			rslo := s.sloFor(r.Model.Name)
			for i := len(r.TokenTimes); i < r.OutputTokens && rslo.Deadline(r.Arrival, i) <= endTime; i++ {
				dropped++ // deadlines are monotone in i
			}
			if !r.Failed { // failRequest already fed the monitor
				s.noteDroppedTokens(r, endTime, false)
			}
		}
		s.judge(r, dropped)
		// Breakdown (Fig. 14).
		if len(r.TokenTimes) == 0 {
			s.breakdown.Add(metrics.PrefillWaiting, endTime-r.Arrival)
			continue
		}
		s.breakdown.Add(metrics.PrefillWaiting, r.prefillStart-r.Arrival)
		s.breakdown.Add(metrics.PrefillExecution, r.prefillEnd-r.prefillStart)
		end := r.finished
		if !r.Done {
			end = endTime
		}
		var dataWait time.Duration
		if r.Seq != nil {
			dataWait = r.Seq.TransferWait()
		}
		decodeSpan := end - r.prefillEnd
		wait := decodeSpan - r.decodeExec - dataWait
		if wait < 0 {
			wait = 0
		}
		s.breakdown.Add(metrics.DecodingWaiting, wait)
		s.breakdown.Add(metrics.DecodingExecution, r.decodeExec)
		s.breakdown.Add(metrics.DataOverhead, dataWait)
		s.kvSyncPerReq.AddDuration(dataWait)
	}
	var ctrl time.Duration
	for _, p := range s.prefills {
		ctrl += p.eng.KV().Stats().ControlTime
	}
	for _, d := range s.decodes {
		ctrl += d.eng.KV().Stats().ControlTime
	}
	s.breakdown.Add(metrics.ControlOverhead, ctrl)
}

// Attainment returns the token-level SLO attainment (call Finalize first).
func (s *System) Attainment() float64 { return s.ledger.Fleet().Attainment() }

// Ledger exposes the SLO ledger: every judged request fate, with fleet,
// per-model and per-tier views (batch requests are judged by Finalize).
func (s *System) Ledger() *slo.Ledger { return &s.ledger }

// OverloadSheds returns overload shed counts by typed reason (a copy).
func (s *System) OverloadSheds() map[string]int {
	out := make(map[string]int, len(s.shedReasons))
	for k, v := range s.shedReasons {
		out[k] = v
	}
	return out
}

// Overload exposes the brownout controller (nil when overload control is
// off).
func (s *System) Overload() *overload.Controller { return s.cfg.Overload }

// Monitor exposes the live SLO monitor (nil when monitoring is off).
func (s *System) Monitor() *slomon.Monitor { return s.mon }

// Fleet exposes the fleet utilization ledger (nil when accounting is off).
func (s *System) Fleet() *fleetobs.Ledger { return s.fleet }

// Market exposes the spot-market model (nil when the market is off).
func (s *System) Market() *market.Market { return s.cfg.Market }

// Decisions exposes the decision-provenance journal (nil when off).
func (s *System) Decisions() *decision.Journal { return s.dec }

// Breakdown exposes the latency breakdown (call Finalize first).
func (s *System) Breakdown() *metrics.Breakdown { return s.breakdown }

// KVSyncCDF returns per-request KV synchronization overhead samples
// (Fig. 15 right; call Finalize first).
func (s *System) KVSyncCDF() *metrics.CDF { return &s.kvSyncPerReq }

// SwitchLatencyCDF merges the exposed auto-scaling latency samples of all
// instances (Fig. 15 left).
func (s *System) SwitchLatencyCDF() *metrics.CDF {
	var all metrics.CDF
	for _, p := range s.prefills {
		st := p.eng.Stats()
		for _, pt := range st.SwitchLatency.Points(st.SwitchLatency.N()) {
			all.Add(pt[0])
		}
	}
	for _, d := range s.decodes {
		st := d.eng.Stats()
		for _, pt := range st.SwitchLatency.Points(st.SwitchLatency.N()) {
			all.Add(pt[0])
		}
	}
	return &all
}

// Engines returns all instance engines (prefill then decode), for
// utilization accounting.
func (s *System) Engines() []*engine.Engine {
	var out []*engine.Engine
	for _, p := range s.prefills {
		out = append(out, p.eng)
	}
	for _, d := range s.decodes {
		out = append(out, d.eng)
	}
	return out
}

// Collector returns the observability collector (nil when disabled).
func (s *System) Collector() *obs.Collector { return s.obs }

// CPUKVStats returns the unified CPU KV cache fragmentation stats (Fig. 16).
func (s *System) CPUKVStats() []memory.ClassStats { return s.cpuKV.Pool().Stats() }
