package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"aegaeon"
	"aegaeon/internal/core"
	"aegaeon/internal/decision"
	"aegaeon/internal/engine"
	"aegaeon/internal/fleetobs"
	"aegaeon/internal/gpu"
	"aegaeon/internal/model"
	"aegaeon/internal/obs"
	"aegaeon/internal/sim"
	"aegaeon/internal/slomon"
)

// recorded is one request as the workload's own run served it: the inputs
// each layer replay drives that layer's public functions with.
type recorded struct {
	id, model     string
	arrival       sim.Time
	input, output int
	times         []sim.Time // token completion times (virtual)
}

// recordedFrom records the requests of a batch run.
func recordedFrom(reqs []*core.Request) []recorded {
	out := make([]recorded, len(reqs))
	for i, q := range reqs {
		out[i] = recorded{id: q.ID, model: q.Model.Name, arrival: q.Arrival, input: q.InputTokens,
			output: q.OutputTokens, times: q.TokenTimes}
	}
	return out
}

// observers says which optional layers a workload runs with.
type observers struct {
	slo, tracing, fleet bool
}

// layerEnv is everything the replays need besides the recorded requests.
type layerEnv struct {
	cfg     aegaeon.Config    // a plain system of the workload's shape
	on      observers         // layers the workload exercises
	journal *decision.Journal // the run's journal (nil when off)
	rec     *recorder
}

// Replay sizes: enough calls that each replay lasts tens of milliseconds.
const (
	maxReplayTokens   = 300_000
	maxReplaySteps    = 50_000
	maxReplayRequests = 2_000
)

// replayLayers runs every per-layer replay and sets its metrics. Layers the
// workload does not exercise report 0.
func replayLayers(r *report, in []recorded, env layerEnv) (calls layerCosts, err error) {
	span := func(name string) func() { _, end := env.rec.begin("replay:" + name); return end }

	end := span("sim")
	fire, fireAllocs := replaySim(in)
	end()
	r.set("sim.fire_ns", "ns", fire)
	r.set("sim.allocs_per_fire", "count", fireAllocs)

	end = span("gpu")
	g := replayGPU(in)
	end()
	r.set("gpu.op_submit_ns", "ns", g.plainNs)
	r.set("gpu.allocs_per_op", "count", g.allocs)
	calls.obsOpNs, calls.fleetEdgeNs = g.obsNs, g.fleetNs
	r.set("obs.op_ns", "ns", pick(env.on.tracing || env.on.slo, g.obsNs))
	r.set("fleetobs.edge_ns", "ns", pick(env.on.fleet, g.fleetNs))

	end = span("engine+kvcache")
	err = replayEngine(r, in, env.cfg)
	end()
	if err != nil {
		return calls, err
	}

	tokens := tokenOrder(in)
	obsNs := 0.0
	var col *obs.Collector
	if env.on.tracing || env.on.slo {
		end = span("obs")
		obsNs, col = replayObs(in, tokens)
		end()
	}
	r.set("obs.token_ns", "ns", obsNs)
	calls.obsTokenNs = obsNs

	sloNs, sloAllocs := 0.0, 0.0
	if env.on.slo {
		end = span("slomon")
		sloNs, sloAllocs = replaySLO(in, tokens, col)
		end()
	}
	r.set("slomon.observe_token_ns", "ns", sloNs)
	r.set("slomon.allocs_per_token", "count", sloAllocs)
	calls.sloTokenNs = sloNs

	fleetTok := 0.0
	if env.on.fleet {
		end = span("fleetobs")
		fleetTok = replayFleetTokens(in, tokens)
		end()
	}
	r.set("fleetobs.token_ns", "ns", fleetTok)
	calls.fleetTokenNs = fleetTok

	decNs := 0.0
	if env.journal != nil {
		end = span("decision")
		decNs = replayDecisions(env.journal)
		end()
	}
	r.set("decision.record_ns", "ns", decNs)
	calls.decisionNs = decNs
	return calls, nil
}

// layerCosts are per-call costs of the optional layers, for the account of
// where an observed run's extra wall time goes.
type layerCosts struct {
	sloTokenNs, obsTokenNs, obsOpNs, fleetEdgeNs, fleetTokenNs, decisionNs float64
}

func pick(on bool, v float64) float64 {
	if on {
		return v
	}
	return 0
}

// timed runs fn after a collection and returns its wall time and heap
// allocation count.
func timed(fn func()) (time.Duration, uint64) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return d, m1.Mallocs - m0.Mallocs
}

// medianOf runs measure n times and returns the median of each result.
func medianOf(n int, measure func() (float64, float64)) (float64, float64) {
	a, b := make([]float64, n), make([]float64, n)
	for i := range a {
		a[i], b[i] = measure()
	}
	return median(a), median(b)
}

// replaySim schedules one no-op event at every recorded token time and runs
// the event loop: nanoseconds and allocations per scheduled-and-fired event.
func replaySim(in []recorded) (float64, float64) {
	var times []sim.Time
	for _, q := range in {
		for _, t := range q.times {
			if len(times) < maxReplayTokens {
				times = append(times, t)
			}
		}
	}
	noop := func() {}
	return medianOf(3, func() (float64, float64) {
		eng := sim.NewEngine(1)
		d, allocs := timed(func() {
			for _, t := range times {
				eng.At(t, noop)
			}
			eng.Run()
		})
		return ns(d, len(times)), ratio(float64(allocs), float64(len(times)))
	})
}

// gpuCosts are the decode-turn chain's costs per engine operation, plain and
// with each observer attached to the device.
type gpuCosts struct {
	plainNs, allocs, obsNs, fleetNs float64
}

// replayGPU drives a chain shaped like one decode turn per recorded token
// gap: the step kernel on the compute stream, a Record, a KV stream that
// waits on it and copies, and a completion callback that starts the next
// turn. Each variant runs five times, interleaved; medians are reported.
// Observer costs are the difference to the plain chain.
func replayGPU(in []recorded) gpuCosts {
	var durs []time.Duration
	for _, q := range in {
		for i := 1; i < len(q.times) && len(durs) < maxReplaySteps; i++ {
			durs = append(durs, q.times[i]-q.times[i-1])
		}
	}
	run := func(attach func(*sim.Engine, *gpu.Device)) (time.Duration, uint64) {
		eng := sim.NewEngine(1)
		dev := gpu.NewDevice(eng, "replay0")
		attach(eng, dev)
		compute, kv := dev.NewStream("default"), dev.NewStream("kv")
		info := gpu.OpInfo{Tag: "decode", Model: "replay"}
		i := 0
		var turn func()
		turn = func() {
			if i == len(durs) {
				return
			}
			d := durs[i]
			i++
			compute.SubmitOp(gpu.Compute, d, info)
			kv.WaitEvent(compute.Record())
			kv.SubmitOp(gpu.D2H, d/8, gpu.OpInfo{Tag: "kv-sync", Model: "replay"})
			kv.Record().OnComplete(turn)
		}
		return timed(func() {
			turn()
			eng.Run()
		})
	}
	ops := 2 * len(durs)
	var plain, col, led, allocs []float64
	for k := 0; k < 5; k++ {
		d, a := run(func(*sim.Engine, *gpu.Device) {})
		plain, allocs = append(plain, ns(d, ops)), append(allocs, ratio(float64(a), float64(ops)))
		d, _ = run(func(_ *sim.Engine, dev *gpu.Device) { obs.New(obs.Options{}).ObserveDevice(dev) })
		col = append(col, ns(d, ops))
		d, _ = run(func(eng *sim.Engine, dev *gpu.Device) { fleetobs.New(eng).ObserveDevice(dev) })
		led = append(led, ns(d, ops))
	}
	p := median(plain)
	return gpuCosts{plainNs: p, allocs: median(allocs),
		obsNs: max(median(col)-p, 0), fleetNs: max(median(led)-p, 0) / 2}
}

// replayEngine drives a decode engine of a fresh system: one DecodeStep per
// recorded token (context = prompt + tokens so far), one PrefillFor per
// request, then the KV-cache manager's append, swap-out/swap-in cycle and
// free per request, and slab alloc/free of each request's blocks.
func replayEngine(r *report, in []recorded, cfg aegaeon.Config) error {
	sys, err := aegaeon.New(cfg)
	if err != nil {
		return err
	}
	models := map[string]*model.Model{}
	for _, m := range sys.Models() {
		models[m.Name] = m
	}
	engines := coreOf(sys).Engines()
	e := engines[len(engines)-1]
	m := models[in[0].model]
	if m == nil {
		return fmt.Errorf("replay: unknown model %q", in[0].model)
	}
	e.SwitchTo(m, func() {})
	e.Sim().Run()
	if e.Current() != m {
		return fmt.Errorf("replay: engine %s did not load %s", e.Name, m.Name)
	}

	var ctx []int64
	for _, q := range in {
		for i := 1; i < q.output && len(ctx) < maxReplaySteps; i++ {
			ctx = append(ctx, int64(q.input+i))
		}
	}
	step, stepAllocs := medianOf(3, func() (float64, float64) {
		i := 0
		var next func()
		next = func() {
			if i < len(ctx) {
				i++
				e.DecodeStep(ctx[i-1], next)
			}
		}
		d, a := timed(func() { next(); e.Sim().Run() })
		return ns(d, len(ctx)), ratio(float64(a), float64(len(ctx)))
	})
	r.set("engine.decode_step_ns", "ns", step)
	r.set("engine.decode_step_allocs", "count", stepAllocs)

	reqs := in[:min(len(in), maxReplayRequests)]
	prefill, _ := medianOf(3, func() (float64, float64) {
		i := 0
		var next func()
		next = func() {
			if i < len(reqs) {
				i++
				e.PrefillFor(reqs[i-1].id, reqs[i-1].input, next)
			}
		}
		d, _ := timed(func() { next(); e.Sim().Run() })
		return ns(d, len(reqs)), 0
	})
	r.set("engine.prefill_ns", "ns", prefill)
	return replayKV(r, e, m.ShardKVShape(max(cfg.TP, 1)), reqs)
}

// replayKV drives the engine's KV-cache manager and its GPU slab pool.
func replayKV(r *report, e *engine.Engine, shape model.KVShape, reqs []recorded) error {
	mgr := e.KV()
	var appendWall, swapWall time.Duration
	appends, cycles := 0, 0
	var failure error
	_, allocs := timed(func() {
		for _, q := range reqs {
			seq, err := mgr.NewSequence(q.id, shape, q.input)
			if err != nil {
				failure = fmt.Errorf("replay: new sequence: %w", err)
				return
			}
			t0 := time.Now()
			for i := 1; i < q.output; i++ {
				if err := mgr.AppendTokens(seq, 1); err != nil {
					failure = fmt.Errorf("replay: append: %w", err)
					return
				}
			}
			appendWall += time.Since(t0)
			appends += q.output - 1
			t0 = time.Now()
			if _, err := mgr.SwapOut(seq); err != nil {
				failure = fmt.Errorf("replay: swap-out: %w", err)
				return
			}
			e.Sim().Run()
			if _, err := mgr.SwapIn(seq); err != nil {
				failure = fmt.Errorf("replay: swap-in: %w", err)
				return
			}
			e.Sim().Run()
			swapWall += time.Since(t0)
			cycles++
			if err := mgr.Free(seq); err != nil {
				failure = fmt.Errorf("replay: free: %w", err)
				return
			}
			e.Sim().Run()
		}
	})
	if failure != nil {
		return failure
	}
	r.set("kvcache.append_ns", "ns", ns(appendWall, appends))
	r.set("kvcache.swap_cycle_ns", "ns", ns(swapWall, cycles))
	r.set("kvcache.allocs_per_op", "count", ratio(float64(allocs), float64(appends+2*cycles)))

	cache := mgr.GPUCache
	label, err := cache.RegisterShape(shape)
	if err != nil {
		return fmt.Errorf("replay: register shape: %w", err)
	}
	pool := cache.Pool()
	pairs := 0
	d, _ := timed(func() {
		for _, q := range reqs {
			n := cache.BlocksFor(q.input + q.output)
			for i := 0; i < n; i++ {
				b, err := pool.Alloc(label)
				if err != nil {
					failure = fmt.Errorf("replay: slab alloc: %w", err)
					return
				}
				if err := pool.Free(b); err != nil {
					failure = fmt.Errorf("replay: slab free: %w", err)
					return
				}
				pairs++
			}
		}
	})
	r.set("memory.slab_alloc_free_ns", "ns", ns(d, pairs))
	return failure
}

// prefixReplay is the prefix cache's cost over one replayed trace.
type prefixReplay struct {
	acquire, release  time.Duration
	lookups, releases int
}

// replayPrefix drives a fresh system's global prefix cache with a trace's
// prompts in arrival order: Acquire on the instance the request was
// prefilled on in the workload's run, Insert of the computed prompt, then
// Release of the hit.
func replayPrefix(trace []aegaeon.Request, placed map[string]string, cfg aegaeon.Config) (prefixReplay, error) {
	var out prefixReplay
	sys, err := aegaeon.New(cfg)
	if err != nil {
		return out, err
	}
	pc := coreOf(sys).PrefixCache()
	models := map[string]*model.Model{}
	for _, m := range sys.Models() {
		models[m.Name] = m
	}
	for _, q := range trace {
		if len(q.Segments) == 0 {
			continue
		}
		inst, ok := placed[q.ID]
		if !ok {
			return out, fmt.Errorf("replay: request %s was never prefilled", q.ID)
		}
		shape := models[q.Model].ShardKVShape(max(cfg.TP, 1))
		at := sim.Time(q.Arrival)
		t0 := time.Now()
		hit := pc.Acquire(inst, q.Model, shape, q.Segments, q.InputTokens, at)
		out.acquire += time.Since(t0)
		out.lookups++
		pc.Insert(q.Model, shape, q.Segments, q.InputTokens, at)
		if hit != nil {
			t0 = time.Now()
			hit.Release(at)
			out.release += time.Since(t0)
			out.releases++
		}
	}
	if errs := pc.CheckConsistency(); len(errs) > 0 {
		return out, fmt.Errorf("replay: prefix cache inconsistent: %v", errs[0])
	}
	return out, nil
}

// tokenRef locates token i of request q in the recorded set.
type tokenRef struct {
	at   sim.Time
	q, i int32
}

// tokenOrder lists the recorded tokens in generation order (ties by
// request), capped at maxReplayTokens.
func tokenOrder(in []recorded) []tokenRef {
	var out []tokenRef
	for qi, q := range in {
		for i, t := range q.times {
			out = append(out, tokenRef{at: t, q: int32(qi), i: int32(i)})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].at != out[b].at {
			return out[a].at < out[b].at
		}
		return out[a].q < out[b].q
	})
	return out[:min(len(out), maxReplayTokens)]
}

// replayInstance names the instance replayed tokens are attributed to.
const replayInstance = "decode0"

// replaySLO feeds the recorded tokens to a fresh SLO monitor in generation
// order, joined for miss attribution against col (the obs replay's
// collector) as the system joins against its own: nanoseconds and
// allocations per ObserveToken.
func replaySLO(in []recorded, tokens []tokenRef, col *obs.Collector) (float64, float64) {
	slo := aegaeon.DefaultSLO()
	obsv := make([]slomon.TokenObs, len(tokens))
	for k, t := range tokens {
		q := in[t.q]
		o := slomon.TokenObs{Model: q.model, Request: q.id, Instance: replayInstance, Index: int(t.i),
			Arrival: q.arrival, Deadline: slo.Deadline(q.arrival, int(t.i)), At: t.at}
		if t.i > 0 {
			o.Prev = q.times[t.i-1]
		}
		obsv[k] = o
	}
	return medianOf(3, func() (float64, float64) {
		mon := slomon.New(slomon.Config{Objective: 0.99, Source: col})
		d, a := timed(func() {
			for _, o := range obsv {
				mon.ObserveToken(o)
			}
		})
		return ns(d, len(obsv)), ratio(float64(a), float64(len(obsv)))
	})
}

// replayObs stamps the recorded tokens into a fresh collector that has seen
// every request arrive, the way the scheduler does: a first token through
// Token, the tokens one decode step produced (same model, same instant)
// through one TokenBatch. It returns nanoseconds per token and the last
// collector, which holds the replayed timelines.
func replayObs(in []recorded, tokens []tokenRef) (float64, *obs.Collector) {
	var col *obs.Collector
	v, _ := medianOf(3, func() (float64, float64) {
		col = obs.New(obs.Options{})
		for _, q := range in {
			col.RequestArrived(q.id, q.model, q.arrival)
		}
		var ids []string
		d, _ := timed(func() {
			for k := 0; k < len(tokens); {
				t := tokens[k]
				q := in[t.q]
				if t.i == 0 {
					col.Token(q.id, t.at)
					k++
					continue
				}
				ids = ids[:0]
				for ; k < len(tokens) && tokens[k].at == t.at && tokens[k].i > 0 && in[tokens[k].q].model == q.model; k++ {
					ids = append(ids, in[tokens[k].q].id)
				}
				col.TokenBatch(replayInstance, q.model, t.at, append([]string(nil), ids...))
			}
		})
		return ns(d, len(tokens)), 0
	})
	return v, col
}

// replayFleetTokens attributes every recorded token to a ledger device as
// the scheduler does for goodput: nanoseconds per AddTokens.
func replayFleetTokens(in []recorded, tokens []tokenRef) float64 {
	v, _ := medianOf(3, func() (float64, float64) {
		led := fleetobs.New(sim.NewEngine(1))
		led.Register(replayInstance)
		d, _ := timed(func() {
			for _, t := range tokens {
				led.AddTokens(replayInstance, in[t.q].model, 1)
			}
		})
		return ns(d, len(tokens)), 0
	})
	return v
}

// replayDecisions re-records the run's retained decision records into a
// fresh journal: nanoseconds per Record.
func replayDecisions(j *decision.Journal) float64 {
	recs := j.Recent(0, "")
	v, _ := medianOf(3, func() (float64, float64) {
		fresh := decision.New(decision.Options{})
		d, _ := timed(func() {
			for _, rec := range recs {
				fresh.Record(rec)
			}
		})
		return ns(d, len(recs)), 0
	})
	return v
}
