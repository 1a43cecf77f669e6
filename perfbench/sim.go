package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"runtime"
	"time"
	"unsafe"

	"aegaeon"
	"aegaeon/internal/core"
	"aegaeon/internal/gpu"
	"aegaeon/internal/metrics"
	"aegaeon/internal/workload"
)

// simSpec is one batch-simulation workload: the system configuration, the
// configuration whose simulated outcomes it must reproduce exactly (nil when
// there is none), and its trace set.
type simSpec struct {
	cfg       aegaeon.Config
	reference *aegaeon.Config
	traces    func(seed int64) [][]aegaeon.Request
}

// marketConfig is the paper's default deployment: 40 market models on
// 6 prefill + 10 decode H800s.
func marketConfig() aegaeon.Config {
	return aegaeon.Config{GPU: "H800", PrefillGPUs: 6, DecodeGPUs: 10, NumModels: 40}
}

// Trace-set sizes. A run serves several independent traces so that the
// simulated latency percentiles pool enough requests to be steady across
// seeds, and so each timed repetition lasts well over a second.
const (
	marketTraces  = 8
	marketHorizon = 5 * time.Minute
	marketRate    = 0.1 // requests/s per model

	sessionModels   = 16
	sessionTraces   = 10
	sessionHorizon  = 150 * time.Second
	sessionRate     = 0.02 // sessions/s per model
	sessionRequests = 110  // requests per sessions trace, within ±5%
)

func simSpecFor(name string) simSpec {
	market := func(seed int64) [][]aegaeon.Request {
		return traceSet(seed, marketTraces, func(rng *rand.Rand) []aegaeon.Request {
			return workload.PoissonTrace(rng, modelNames(40), marketRate, marketHorizon, workload.ShareGPT())
		})
	}
	switch name {
	case "sim-observed":
		cfg := marketConfig()
		cfg.SLOMonitor, cfg.Tracing, cfg.FleetAccounting, cfg.Decisions = true, true, true, true
		ref := marketConfig()
		return simSpec{cfg: cfg, reference: &ref, traces: market}
	case "sim-sessions":
		cfg := marketConfig()
		cfg.NumModels = sessionModels
		cfg.PrefixCache, cfg.PrefixRouting = true, true
		return simSpec{cfg: cfg, traces: func(seed int64) [][]aegaeon.Request {
			return traceSet(seed, sessionTraces, sessionTrace)
		}}
	default:
		return simSpec{cfg: marketConfig(), traces: market}
	}
}

// sessionTrace draws multi-turn session traces from rng until one holds
// within 5% of sessionRequests requests. The prefix cache's cost grows much
// faster than linearly with a trace's size, so unconditioned draws would make
// one run's wall time depend mostly on how many sessions its seed happened
// to start.
func sessionTrace(rng *rand.Rand) []aegaeon.Request {
	for {
		tr := workload.MultiTurnTrace(rng, modelNames(sessionModels), sessionRate, sessionHorizon,
			workload.ShareGPT(), workload.MultiTurnConfig{SystemPromptTokens: 128})
		if n := len(tr); n*100 >= sessionRequests*95 && n*100 <= sessionRequests*105 {
			return tr
		}
	}
}

// traceSet draws n traces, each from its own stream derived from seed.
func traceSet(seed int64, n int, gen func(*rand.Rand) []aegaeon.Request) [][]aegaeon.Request {
	out := make([][]aegaeon.Request, n)
	for i := range out {
		out[i] = gen(rand.New(rand.NewSource(seed*1_000_003 + int64(i))))
	}
	return out
}

// modelNames lists the names aegaeon.New gives n default market models.
func modelNames(n int) []string {
	ms := aegaeon.MarketModels(n)
	names := make([]string, len(ms))
	for i, m := range ms {
		names[i] = m.Name
	}
	return names
}

// coreOf returns the scheduler behind a public System. The public API keeps
// it unexported; the benchmark reads per-request token times from it without
// changing the program.
func coreOf(s *aegaeon.System) *core.System {
	f := reflect.ValueOf(s).Elem().FieldByName("sys")
	if !f.IsValid() || f.Type() != reflect.TypeOf((*core.System)(nil)) {
		panic("perfbench: aegaeon.System has no field sys *core.System")
	}
	return *(**core.System)(unsafe.Pointer(f.UnsafeAddr()))
}

// served is the outcome of one Serve call.
type served struct {
	sys    *aegaeon.System
	rep    aegaeon.Report
	wall   time.Duration
	cpu    time.Duration
	allocs uint64
	bytes  uint64
}

// serveOne builds a system and serves one trace. Only Serve is timed; the
// heap is collected first so every Serve starts from the same state.
func serveOne(cfg aegaeon.Config, trace []aegaeon.Request, prepare func(*aegaeon.System)) (served, error) {
	sys, err := aegaeon.New(cfg)
	if err != nil {
		return served{}, err
	}
	if prepare != nil {
		prepare(sys)
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuTime()
	t0 := time.Now()
	rep, err := sys.Serve(trace)
	wall := time.Since(t0)
	cpu := cpuTime() - c0
	runtime.ReadMemStats(&m1)
	if err != nil {
		return served{}, fmt.Errorf("serve: %w", err)
	}
	return served{sys: sys, rep: rep, wall: wall, cpu: cpu, allocs: m1.Mallocs - m0.Mallocs, bytes: m1.TotalAlloc - m0.TotalAlloc}, nil
}

// digest hashes every simulated outcome of a run: the Report without the
// observers' own snapshots, plus every request's token times.
func digest(rep aegaeon.Report, reqs []*core.Request) uint64 {
	h := fnv.New64a()
	simulated := rep
	simulated.SLO, simulated.Fleet, simulated.Market, simulated.Prefix = nil, nil, nil, nil
	fmt.Fprintf(h, "%+v", simulated)
	if rep.Prefix != nil {
		fmt.Fprintf(h, "%+v", *rep.Prefix)
	}
	var buf []byte
	for _, r := range reqs {
		buf = append(buf[:0], r.ID...)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(r.TokenTimes)))
		for _, t := range r.TokenTimes {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(t))
		}
		h.Write(buf)
	}
	return h.Sum64()
}

// virtual pools the simulated (virtual-time) outcomes of a trace set.
type virtual struct {
	sent, completed, failed, metSLO int
	tokens                          int
	events                          uint64
	switches                        uint64
	ttft, tbt                       []float64 // seconds
	stages                          [6]time.Duration
	prefixLookups, prefixHits       uint64
	prefixSaved, prefixTokens       uint64
	deviceEvictions                 uint64
	decisions                       uint64
	switchS, gpuS                   float64
	walls                           []time.Duration // per trace
	hits                            []uint64        // prefix-cache hits per trace
}

// add folds one served trace into the pool and checks conservation: every
// request ends terminal, a completed request produced exactly its output
// tokens, token times never run backwards, and the Report's counts agree.
func (v *virtual) add(r *report, s served, trace []aegaeon.Request) {
	cs := coreOf(s.sys)
	reqs := cs.Requests()
	slo := aegaeon.DefaultSLO()
	r.check(len(reqs) == len(trace) && s.rep.Requests == len(trace),
		"conservation: %d requests sent, core holds %d, report says %d", len(trace), len(reqs), s.rep.Requests)
	generated, completed := 0, 0
	for _, q := range reqs {
		generated += len(q.TokenTimes)
		if !q.Done && !q.Failed && !q.Aborted() {
			r.check(false, "conservation: request %s never reached a terminal state", q.ID)
		}
		if q.Done {
			completed++
			if len(q.TokenTimes) != q.OutputTokens {
				r.check(false, "conservation: request %s completed with %d of %d tokens", q.ID, len(q.TokenTimes), q.OutputTokens)
			}
		}
		met := q.Done && len(q.TokenTimes) > 0
		prev := q.Arrival
		for i, t := range q.TokenTimes {
			if t < prev {
				r.check(false, "request %s: token %d precedes its predecessor or the arrival", q.ID, i)
			}
			if i == 0 {
				v.ttft = append(v.ttft, (t - q.Arrival).Seconds())
			} else {
				v.tbt = append(v.tbt, (t - prev).Seconds())
			}
			if t > slo.Deadline(q.Arrival, i) {
				met = false
			}
			prev = t
		}
		if met {
			v.metSLO++
		}
	}
	r.check(generated == s.rep.GeneratedTokens, "conservation: %d tokens recorded, report says %d", generated, s.rep.GeneratedTokens)
	r.check(completed == s.rep.Completed, "conservation: %d requests done, report says %d", completed, s.rep.Completed)
	v.sent += len(trace)
	v.completed += completed
	v.failed += len(trace) - completed
	v.tokens += generated
	v.events += s.sys.EventsProcessed()
	v.switches += s.rep.Switches
	for st := range v.stages {
		v.stages[st] += s.sys.Breakdown().Total(metrics.BreakdownStage(st))
	}
	v.walls = append(v.walls, s.wall)
	if p := s.rep.Prefix; p != nil {
		v.hits = append(v.hits, p.Hits)
		v.prefixLookups += p.Lookups
		v.prefixHits += p.Hits
		v.prefixSaved += p.TokensSaved
		v.prefixTokens += p.PrefillTokens
		v.deviceEvictions += p.DeviceEvictions
	}
	if j := s.sys.Decisions(); j != nil {
		v.decisions += j.Total()
	}
	if f := s.rep.Fleet; f != nil {
		v.switchS += f.Fleet.SwitchS
		v.gpuS += f.Fleet.GPUSeconds
		r.check(len(f.ConservationErrors) == 0, "fleet ledger conservation: %v", f.ConservationErrors)
	}
}

// retainedMB returns how many megabytes of live heap drop releases: the
// memory a served system still holds.
func retainedMB(drop func()) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	drop()
	runtime.GC()
	runtime.ReadMemStats(&after)
	return (float64(before.HeapAlloc) - float64(after.HeapAlloc)) / 1e6
}

// measureSetup times build one construction at a time, each after a
// collection so that no construction pays for collecting its predecessors'
// garbage, for about budget in total, and returns the median seconds per
// construction. The stop function build returns, if any, runs untimed.
func measureSetup(build func() (stop func() error, err error), budget time.Duration) (float64, error) {
	var per []float64
	for start := time.Now(); len(per) < 20 || time.Since(start) < budget; {
		runtime.GC()
		t0 := time.Now()
		stop, err := build()
		per = append(per, time.Since(t0).Seconds())
		if err != nil {
			return 0, err
		}
		if stop != nil {
			if err := stop(); err != nil {
				return 0, err
			}
		}
	}
	return median(per), nil
}

// runSim runs one batch-simulation workload: set-up timing, a warm-up Serve,
// then repetitions of the whole trace set until --seconds have passed (at
// least three). Wall-clock metrics are medians over repetitions; every
// repetition must reproduce the first one's simulated outcomes exactly.
func runSim(name string, o runOpts) (*report, error) {
	spec := simSpecFor(name)
	r := newReport()
	_, endSetup := o.rec.begin("setup")
	setupS, err := measureSetup(func() (func() error, error) {
		_, err := aegaeon.New(spec.cfg)
		return nil, err
	}, 1500*time.Millisecond)
	endSetup()
	if err != nil {
		return nil, err
	}
	traces := spec.traces(o.seed)
	for i, tr := range traces {
		fmt.Printf("trace %d: %d requests over %v\n", i, len(tr), lastArrival(tr))
	}

	if _, err := serveOne(spec.cfg, traces[0], nil); err != nil { // warm-up
		return nil, err
	}
	digests := make([]uint64, len(traces))
	var v virtual
	var first0 served // trace 0 of the first repetition, for the traced pass
	var speedups, wallSpeedups, cpuPerToken, allocs, bytes []float64
	var last *aegaeon.System
	// The traced pass serves the set twice: once recording spans, once
	// without, for the tracing overhead. The untraced pass repeats until
	// --seconds have passed, at least three times.
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	more := func(rep int) bool { return rep < 3 || (time.Now().Before(deadline) && rep < 100) }
	if o.rec != nil {
		more = func(rep int) bool { return rep < 2 }
	}
	var walls []time.Duration
	for rep := 0; more(rep); rep++ {
		rec := o.rec
		if rep > 0 {
			rec = nil
		}
		repID, endRep := rec.begin("repetition")
		var wall, virt, cpu time.Duration
		var nAllocs, nBytes uint64
		tokens := 0
		for k, tr := range traces {
			t0 := time.Now()
			s, err := serveOne(spec.cfg, tr, nil)
			if err != nil {
				return nil, err
			}
			rec.add("serve", "", repID, t0, t0.Add(s.wall))
			if rep == 0 {
				fmt.Printf("  trace %d: %d req %d tok wall %.3fs\n", k, len(tr), s.rep.GeneratedTokens, s.wall.Seconds())
			}
			wall += s.wall
			cpu += s.cpu
			virt += s.rep.VirtualDuration
			nAllocs += s.allocs
			nBytes += s.bytes
			tokens += s.rep.GeneratedTokens
			d := digest(s.rep, coreOf(s.sys).Requests())
			if rep == 0 {
				digests[k] = d
				v.add(r, s, tr)
				if k == 0 && o.rec != nil {
					first0 = s
				}
			} else {
				r.check(d == digests[k], "determinism: trace %d repetition %d digest %x != %x", k, rep, d, digests[k])
			}
			last = s.sys
		}
		endRep()
		walls = append(walls, wall)
		speedups = append(speedups, virt.Seconds()/cpu.Seconds())
		wallSpeedups = append(wallSpeedups, virt.Seconds()/wall.Seconds())
		cpuPerToken = append(cpuPerToken, float64(cpu.Microseconds())/float64(tokens))
		allocs = append(allocs, float64(nAllocs)/float64(tokens))
		bytes = append(bytes, float64(nBytes)/float64(tokens))
		fmt.Printf("repetition %d: serve wall %.3fs, cpu %.3fs, %.0fx real time per wall second, %.0fx per CPU second\n",
			rep, wall.Seconds(), cpu.Seconds(), virt.Seconds()/wall.Seconds(), virt.Seconds()/cpu.Seconds())
	}
	heapMB := retainedMB(func() { runtime.KeepAlive(last); last = nil })

	var plainWall time.Duration
	if spec.reference != nil {
		// Observer neutrality: the reference configuration must produce the
		// same simulated outcomes on the byte-identical traces.
		for k, tr := range traces {
			s, err := serveOne(*spec.reference, tr, nil)
			if err != nil {
				return nil, err
			}
			plainWall += s.wall
			d := digest(s.rep, coreOf(s.sys).Requests())
			r.check(d == digests[k], "observer neutrality: trace %d digest %x with observers, %x without", k, digests[k], d)
		}
	}

	r.attempted, r.failed = v.sent, v.failed
	if o.rec == nil {
		r.set("setup_s", "s", setupS)
		r.set("sim_speedup", "x", median(speedups))
		r.set("cpu_us_per_token", "us", median(cpuPerToken))
		r.set("allocs_per_token", "count", median(allocs))
		r.set("alloc_bytes_per_token", "B", median(bytes))
		r.set("heap_mb", "MB", heapMB)
		r.set("attainment", "ratio", ratio(float64(v.metSLO), float64(v.sent)))
		r.set("completed_ratio", "ratio", ratio(float64(v.completed), float64(v.sent)))
		r.set("ttft_p50_s", "s", quantile(v.ttft, 0.5))
		r.set("ttft_p99_s", "s", quantile(v.ttft, 0.99))
		r.set("tbt_p99_s", "s", quantile(v.tbt, 0.99))
		return r, nil
	}
	r.set("trace.overhead_ratio", "ratio", walls[0].Seconds()/walls[1].Seconds())
	r.set("sim.wall_speedup", "x", wallSpeedups[1])
	return r, simLayers(r, spec, traces, first0, walls[1], &v, plainWall, o.rec)
}

// lastArrival returns the last arrival of a trace.
func lastArrival(tr []aegaeon.Request) time.Duration {
	if len(tr) == 0 {
		return 0
	}
	return tr[len(tr)-1].Arrival
}

// servePlacement serves every trace again on cfg with an observer on each
// device, and returns how many engine operations retired and, per trace,
// the instance each request was prefilled on.
func servePlacement(cfg aegaeon.Config, traces [][]aegaeon.Request) (int, []map[string]string, error) {
	ops := 0
	placed := make([]map[string]string, len(traces))
	for k, tr := range traces {
		at := map[string]string{}
		_, err := serveOne(cfg, tr, func(sys *aegaeon.System) {
			for _, e := range coreOf(sys).Engines() {
				e.Device().Observe(func(d *gpu.Device, op gpu.OpRecord) {
					ops++
					if op.Info.Tag == "prefill" {
						at[op.Info.Request] = d.Name
					}
				})
			}
		})
		if err != nil {
			return 0, nil, err
		}
		placed[k] = at
	}
	return ops, placed, nil
}

// simLayers sets the per-layer metrics of a sim workload from the traced
// pass: counts from the first repetition, per-call costs from
// replays of trace 0's recorded requests, and, on a workload with a
// reference configuration, how much of the observers' extra wall time the
// per-call costs times their call counts explain.
func simLayers(r *report, spec simSpec, traces [][]aegaeon.Request, trace0 served, observedWall time.Duration,
	v *virtual, plainWall time.Duration, rec *recorder) error {
	cfg := spec.cfg
	tokens := float64(v.tokens)
	sent := float64(v.sent)
	r.set("sim.events_per_token", "count", float64(v.events)/tokens)
	r.set("engine.switches_per_request", "count", float64(v.switches)/sent)
	var total time.Duration
	for _, d := range v.stages {
		total += d
	}
	share := func(s metrics.BreakdownStage) float64 { return ratio(float64(v.stages[s]), float64(total)) }
	r.set("core.prefill_wait_share", "ratio", share(metrics.PrefillWaiting))
	r.set("core.decode_wait_share", "ratio", share(metrics.DecodingWaiting))
	r.set("core.control_overhead_share", "ratio", share(metrics.ControlOverhead))
	r.set("core.data_overhead_share", "ratio", share(metrics.DataOverhead))
	r.set("core.failed_per_request", "ratio", float64(v.failed)/sent)
	r.set("prefixcache.hit_ratio", "ratio", ratio(float64(v.prefixHits), float64(v.prefixLookups)))
	r.set("prefixcache.saved_ratio", "ratio", ratio(float64(v.prefixSaved), float64(v.prefixTokens)))
	r.set("prefixcache.device_evictions_per_request", "count", float64(v.deviceEvictions)/sent)
	r.set("decision.records_per_request", "count", float64(v.decisions)/sent)
	r.set("fleetobs.switch_overhead_share", "ratio", ratio(v.switchS, v.gpuS))
	setGatewayZeros(r)

	plain := cfg
	if spec.reference != nil {
		plain = *spec.reference
	}
	_, end := rec.begin("placement")
	ops, placed, err := servePlacement(plain, traces)
	end()
	if err != nil {
		return err
	}
	r.set("gpu.ops_per_token", "count", float64(ops)/tokens)

	in := recordedFrom(coreOf(trace0.sys).Requests())
	costs, err := replayLayers(r, in, layerEnv{
		cfg:     plain,
		on:      observers{slo: cfg.SLOMonitor, tracing: cfg.Tracing, fleet: cfg.FleetAccounting},
		journal: trace0.sys.Decisions(),
		rec:     rec,
	})
	if err != nil {
		return err
	}

	// Prefix cache: every trace's prompts replayed into a fresh cache. Each
	// trace's replayed Release time, scaled to the Releases its Serve made
	// (one per hit), as a share of the set's Serve wall time.
	var pr prefixReplay
	var inServe float64
	if cfg.PrefixCache || cfg.PrefixRouting {
		_, end := rec.begin("replay:prefixcache")
		for k, tr := range traces {
			p, err := replayPrefix(tr, placed[k], cfg)
			if err != nil {
				end()
				return err
			}
			pr.acquire += p.acquire
			pr.release += p.release
			pr.lookups += p.lookups
			pr.releases += p.releases
			inServe += float64(p.release.Nanoseconds()) * ratio(float64(v.hits[k]), float64(p.releases))
		}
		end()
	}
	var serveWall time.Duration
	for _, w := range v.walls {
		serveWall += w
	}
	r.set("prefixcache.acquire_ns", "ns", ns(pr.acquire, pr.lookups))
	r.set("prefixcache.release_ns", "ns", ns(pr.release, pr.releases))
	r.set("prefixcache.release_serve_share", "ratio", inServe/float64(serveWall.Nanoseconds()))

	// Observers: per-call cost × calls over the whole set, against the wall
	// time the observed configuration spent beyond the plain one.
	explained := 0.0
	if spec.reference != nil {
		allOps := float64(ops)
		parts := map[string]float64{
			"slomon.ObserveToken": costs.sloTokenNs * tokens,
			"obs.Token":           costs.obsTokenNs * tokens,
			"obs op capture":      costs.obsOpNs * allOps,
			"fleetobs edges":      costs.fleetEdgeNs * 2 * allOps,
			"fleetobs.AddTokens":  costs.fleetTokenNs * tokens,
			"decision.Record":     costs.decisionNs * float64(v.decisions),
		}
		gap := float64((observedWall - plainWall).Nanoseconds())
		for name, ns := range parts {
			fmt.Printf("observer cost  %-20s %8.3f s  (%5.1f%% of the %.3f s gap)\n", name, ns/1e9, 100*ns/gap, gap/1e9)
			explained += ns
		}
		explained = ratio(explained, gap)
	}
	r.set("observers.explained_gap_share", "ratio", explained)
	return nil
}

// setGatewayZeros reports the live-path layers, which a batch simulation
// does not run.
func setGatewayZeros(r *report) {
	for _, m := range []struct{ name, unit string }{
		{"gw_ttft_p50_ms", "ms"}, {"gw_ttft_p99_ms", "ms"}, {"gw_lag_p50_ms", "ms"},
		{"gateway.first_flush_ms", "ms"}, {"gateway.sse_bytes_per_token", "B"},
		{"gateway.allocs_per_token", "count"}, {"gateway.rejected_ratio", "ratio"},
		{"sim.driver.post_lag_p50_ms", "ms"}, {"sim.driver.post_lag_p99_ms", "ms"},
		{"sim.driver.token_lag_p99_ms", "ms"}, {"loadgen.late_p99_ms", "ms"},
	} {
		r.set(m.name, m.unit, 0)
	}
}
