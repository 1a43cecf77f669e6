package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"aegaeon"
	"aegaeon/internal/cluster"
	"aegaeon/internal/decision"
	"aegaeon/internal/gateway"
	"aegaeon/internal/gpu"
	"aegaeon/internal/latency"
	"aegaeon/internal/metrics"
	"aegaeon/internal/model"
	"aegaeon/internal/obs"
	"aegaeon/internal/sim"
	"aegaeon/internal/slo"
	"aegaeon/internal/slomon"
	"aegaeon/internal/workload"
)

// The live workload: the aegaeon-gateway defaults (8 market models on
// 2 prefill + 4 decode H800s; collector, SLO monitor and decision journal
// on) paced at a fixed speedup, driven by an open loop of Poisson arrivals
// at a fixed wall-clock rate.
const (
	gwModels  = 8
	gwPrefill = 2
	gwDecode  = 4
	gwSpeedup = 50  // virtual seconds per wall second
	gwRate    = 100 // requests per wall second, across all models
	probeGap  = 5 * time.Millisecond
)

// live is one running gateway with the handles the benchmark reads.
type live struct {
	se   *sim.Engine
	drv  *sim.Driver
	cl   *cluster.Cluster
	gw   *gateway.Gateway
	col  *obs.Collector
	dec  *decision.Journal
	t0   time.Time // wall instant virtual time 0 maps to
	hand http.Handler
}

// observed builds the observer set of the gateway defaults.
func observed() (*obs.Collector, *slomon.Monitor, *decision.Journal) {
	col := obs.New(obs.Options{})
	return col, slomon.New(slomon.Config{Objective: 0.99, Source: col}), decision.New(decision.Options{})
}

func newCluster(se *sim.Engine, col *obs.Collector, mon *slomon.Monitor, dec *decision.Journal) (*cluster.Cluster, error) {
	prof, err := latency.ProfileByName("H800")
	if err != nil {
		return nil, err
	}
	return cluster.New(se, cluster.Config{
		Prof: prof, SLO: slo.Default(), Obs: col, SLOMon: mon, Decisions: dec,
		Deployments: []cluster.DeploymentConfig{{
			Name: "live", TP: 1, NumPrefill: gwPrefill, NumDecode: gwDecode, Models: model.MarketMix(gwModels),
		}},
	})
}

// startLive is what a gateway user pays before the first request:
// cluster.New + gateway.New + Start.
func startLive() (*live, error) {
	se := sim.NewEngine(1)
	col, mon, dec := observed()
	cl, err := newCluster(se, col, mon, dec)
	if err != nil {
		return nil, err
	}
	drv := sim.NewDriver(se, gwSpeedup)
	gw := gateway.New(drv, cl, gateway.Options{Speedup: gwSpeedup, Obs: col, SLOMon: mon, Decisions: dec})
	t0 := time.Now()
	gw.Start()
	return &live{se: se, drv: drv, cl: cl, gw: gw, col: col, dec: dec, t0: t0, hand: gw.Handler()}, nil
}

func (l *live) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return l.gw.Shutdown(ctx)
}

// arrival is one scheduled client request.
type arrival struct {
	due           time.Duration // offset from the start of the schedule
	model         string
	input, output int
}

// schedule draws an open-loop Poisson schedule at gwRate for the given
// length, with ShareGPT lengths and uniformly chosen models.
func schedule(seed int64, length time.Duration) []arrival {
	rng := rand.New(rand.NewSource(seed))
	names := modelNames(gwModels)
	ds := workload.ShareGPT()
	var out []arrival
	for t := 0.0; ; {
		t += rng.ExpFloat64() / gwRate
		due := time.Duration(t * float64(time.Second))
		if due >= length {
			return out
		}
		in, o := ds.Sample(rng)
		out = append(out, arrival{due: due, model: names[rng.Intn(len(names))], input: in, output: o})
	}
}

// streamWriter is an in-memory http.ResponseWriter and http.Flusher that
// stamps each Flush with the wall clock, so token receipt times are taken
// without a socket. Parsing waits until the run is over.
type streamWriter struct {
	header  http.Header
	code    int
	buf     []byte
	flushes []flushMark
}

type flushMark struct {
	at  time.Time
	end int // len(buf) at the flush
}

func (w *streamWriter) Header() http.Header {
	if w.header == nil {
		w.header = http.Header{}
	}
	return w.header
}

func (w *streamWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *streamWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	w.buf = append(w.buf, b...)
	return len(b), nil
}

func (w *streamWriter) Flush() {
	w.flushes = append(w.flushes, flushMark{at: time.Now(), end: len(w.buf)})
}

// outcome is one client request as the client saw it.
type outcome struct {
	a                arrival
	id               string
	due, sent, entry time.Time // due: scheduled start; sent: when the generator got to it
	done             time.Time
	code             int
	bytes            int
	tokens           []tokenSeen
	complete         bool // contiguous token_index 0..n-1 and [DONE]
}

type tokenSeen struct {
	at      time.Time // receipt (the flush that carried it)
	virtual float64   // virtual_time_s
}

// parse reads the SSE stream: every chunk's token_index and virtual time,
// the flush that delivered it, and whether the stream was well formed.
func (o *outcome) parse(w *streamWriter) {
	o.code, o.bytes = w.code, len(w.buf)
	if w.code != http.StatusOK {
		return
	}
	type chunk struct {
		ID           string  `json:"id"`
		TokenIndex   int     `json:"token_index"`
		VirtualTimeS float64 `json:"virtual_time_s"`
	}
	off, f, done, ok := 0, 0, false, true
	for _, ev := range bytes.SplitAfter(w.buf, []byte("\n\n")) {
		off += len(ev)
		data, found := bytes.CutPrefix(bytes.TrimSpace(ev), []byte("data: "))
		if !found {
			continue
		}
		for f < len(w.flushes)-1 && w.flushes[f].end < off {
			f++
		}
		if string(data) == "[DONE]" {
			done = true
			continue
		}
		var c chunk
		if err := json.Unmarshal(data, &c); err != nil {
			ok = false
			continue
		}
		o.id = c.ID
		if c.TokenIndex < 0 {
			continue // terminal chunk
		}
		if c.TokenIndex != len(o.tokens) {
			ok = false
		}
		o.tokens = append(o.tokens, tokenSeen{at: w.flushes[f].at, virtual: c.VirtualTimeS})
	}
	o.complete = ok && done && len(o.tokens) == o.a.output
}

// liveRun is the result of one pass of the open loop.
type liveRun struct {
	outs   []outcome
	wall   time.Duration // first due time to last response
	cpu    time.Duration
	allocs uint64
	bytes  uint64
	late   []float64 // generator lateness, ms
	probes []float64 // driver post-to-run lag, ms
	l      *live
}

// runLive serves the schedule through the handler of a fresh gateway. The
// generator starts each request at its due time on its own goroutine; the
// clock for its latency starts at the due time, not when the generator got
// to it. With rec set, it records spans and posts driver probes.
func runLive(sched []arrival, rec *recorder) (*liveRun, error) {
	l, err := startLive()
	if err != nil {
		return nil, err
	}
	res := &liveRun{outs: make([]outcome, len(sched)), l: l}
	stopProbes := make(chan struct{})
	var probeWG sync.WaitGroup
	var probeMu sync.Mutex
	if rec != nil {
		probeWG.Add(1)
		go func() {
			defer probeWG.Done()
			tick := time.NewTicker(probeGap)
			defer tick.Stop()
			for {
				select {
				case <-stopProbes:
					return
				case <-tick.C:
					posted := time.Now()
					_ = l.drv.Post(func() {
						ran := time.Now()
						rec.add("driver-probe", "", 0, posted, ran)
						probeMu.Lock()
						res.probes = append(res.probes, float64(ran.Sub(posted))/1e6)
						probeMu.Unlock()
					})
				}
			}
		}()
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuTime()
	start := time.Now()
	writers := make([]streamWriter, len(sched))
	var wg sync.WaitGroup
	for i, a := range sched {
		due := start.Add(a.due)
		time.Sleep(time.Until(due))
		sent := time.Now()
		res.late = append(res.late, float64(sent.Sub(due))/1e6)
		wg.Add(1)
		go func(o *outcome, w *streamWriter, a arrival) {
			defer wg.Done()
			o.a, o.due, o.sent = a, due, sent
			body := fmt.Sprintf(`{"model":%q,"max_tokens":%d,"input_tokens":%d,"stream":true}`, a.model, a.output, a.input)
			req, err := http.NewRequest(http.MethodPost, "/v1/completions", strings.NewReader(body))
			if err != nil {
				return // the status stays 0: counted as failed
			}
			o.entry = time.Now()
			l.hand.ServeHTTP(w, req)
			o.done = time.Now()
		}(&res.outs[i], &writers[i], a)
	}
	wg.Wait()
	res.wall = time.Since(start)
	res.cpu = cpuTime() - c0
	runtime.ReadMemStats(&m1)
	res.allocs, res.bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	close(stopProbes)
	probeWG.Wait()
	for i := range res.outs {
		res.outs[i].parse(&writers[i])
	}

	if err := l.stop(); err != nil {
		return nil, err
	}
	for i := range res.outs {
		o := &res.outs[i]
		if rec == nil || len(o.tokens) == 0 {
			continue
		}
		root := rec.add("request", o.id, 0, o.due, o.tokens[len(o.tokens)-1].at)
		rec.add("wait-for-handler", o.id, root, o.due, o.entry)
		rec.add("handler-to-first-flush", o.id, root, o.entry, o.tokens[0].at)
		rec.add("stream", o.id, root, o.tokens[0].at, o.done)
	}
	return res, nil
}

// runGateway runs the gateway-stream workload: set-up timing, a one-second
// warm-up on its own gateway, then the open loop for --seconds on a fresh
// one. Wall-clock latencies are per-layer metrics of the live path; the
// end-to-end metrics this workload shares with the batch workloads are its
// allocations, heap, CPU per streamed token, client-side SLO attainment,
// the virtual TTFT/TBT of the live requests, and the simulation speed of
// the same requests served in batch.
func runGateway(o runOpts) (*report, error) {
	r := newReport()
	_, endSetup := o.rec.begin("setup")
	setupS, err := measureSetup(func() (func() error, error) {
		l, err := startLive()
		if err != nil {
			return nil, err
		}
		return l.stop, nil
	}, 1500*time.Millisecond)
	endSetup()
	if err != nil {
		return nil, err
	}
	sched := schedule(o.seed, time.Duration(o.seconds)*time.Second)
	if _, err := runLive(schedule(o.seed+1, time.Second), nil); err != nil {
		return nil, err
	}
	run, err := runLive(sched, nil)
	if err != nil {
		return nil, err
	}
	v := viewOf(r, run)
	r.check(v.tokens > 0, "gateway: no tokens streamed")
	r.attempted, r.failed = len(sched), len(sched)-len(v.in)
	fmt.Printf("gateway  %d requests, %d complete streams, %d tokens over %.2fs; generator late p99 %.3f ms\n",
		len(sched), len(v.in), v.tokens, run.wall.Seconds(), quantile(run.late, 0.99))
	if o.rec != nil {
		r.set("gw_ttft_p50_ms", "ms", quantile(v.wallTTFT, 0.5))
		r.set("gw_ttft_p99_ms", "ms", quantile(v.wallTTFT, 0.99))
		r.set("gw_lag_p50_ms", "ms", quantile(v.lag, 0.5))
		return r, gatewayLayers(r, sched, run, o.rec)
	}
	// The same requests served in batch, for at least two CPU-seconds.
	var virt, cpu time.Duration
	for pass := 0; pass < 2 || cpu < 2*time.Second; pass++ {
		b, err := serveBatch(v.in)
		if err != nil {
			return nil, err
		}
		virt += b.virtual
		cpu += b.cpu
	}
	// The stopped gateway still holds everything it served; what dropping
	// it releases is its heap.
	heapMB := retainedMB(func() { run.l = nil })
	sent := float64(len(sched))
	r.set("setup_s", "s", setupS)
	r.set("sim_speedup", "x", virt.Seconds()/cpu.Seconds())
	r.set("cpu_us_per_token", "us", ratio(float64(run.cpu.Microseconds()), float64(v.tokens)))
	r.set("allocs_per_token", "count", ratio(float64(run.allocs), float64(v.tokens)))
	r.set("alloc_bytes_per_token", "B", ratio(float64(run.bytes), float64(v.tokens)))
	r.set("heap_mb", "MB", heapMB)
	r.set("attainment", "ratio", float64(v.met)/sent)
	r.set("completed_ratio", "ratio", float64(len(v.in))/sent)
	r.set("ttft_p50_s", "s", quantile(v.virtTTFT, 0.5))
	r.set("ttft_p99_s", "s", quantile(v.virtTTFT, 0.99))
	r.set("tbt_p99_s", "s", quantile(v.virtTBT, 0.99))
	return r, nil
}

// clientView is what the clients of one live pass saw.
type clientView struct {
	in                []recorded // complete streams, in virtual time
	tokens, bytes     int
	rejected, met     int
	wallTTFT, lag     []float64 // ms, from the due time / the paced instant
	firstFlush        []float64 // ms, handler entry to first token
	virtTTFT, virtTBT []float64 // s
}

// viewOf checks every stream of a pass and collects the clients' view. The
// virtual arrival of a request is the collector's stamp of it; token times
// come from the stream's virtual_time_s.
func viewOf(r *report, run *liveRun) clientView {
	slo := aegaeon.DefaultSLO()
	var v clientView
	for i := range run.outs {
		o := &run.outs[i]
		if o.code != http.StatusOK {
			v.rejected++
			continue
		}
		r.check(o.complete, "gateway stream %d (%s): %d tokens of %d, contiguous token_index and [DONE] required",
			i, o.id, len(o.tokens), o.a.output)
		if !o.complete {
			continue
		}
		tl, found := run.l.col.Request(o.id)
		r.check(found, "gateway: collector lost request %s", o.id)
		q := recorded{id: o.id, model: o.a.model, input: o.a.input, output: o.a.output, arrival: tl.Arrival}
		allMet := true
		for k, t := range o.tokens {
			at := sim.Time(t.virtual * float64(time.Second))
			if k == 0 {
				v.virtTTFT = append(v.virtTTFT, (at - q.arrival).Seconds())
			} else {
				v.virtTBT = append(v.virtTBT, (at - q.times[k-1]).Seconds())
			}
			q.times = append(q.times, at)
			paced := run.l.t0.Add(time.Duration(t.virtual * float64(time.Second) / gwSpeedup))
			v.lag = append(v.lag, float64(t.at.Sub(paced))/1e6)
			// The SLO on the client's clock: the per-token deadline of §2.1,
			// compressed by the pacing speedup.
			if t.at.Sub(o.due) > time.Duration(slo.Deadline(0, k))/gwSpeedup {
				allMet = false
			}
		}
		if allMet {
			v.met++
		}
		v.wallTTFT = append(v.wallTTFT, float64(o.tokens[0].at.Sub(o.due))/1e6)
		v.firstFlush = append(v.firstFlush, float64(o.tokens[0].at.Sub(o.entry))/1e6)
		v.tokens += len(o.tokens)
		v.bytes += o.bytes
		v.in = append(v.in, q)
	}
	return v
}

// gatewayLayers runs the traced pass of the live workload and sets the
// per-layer metrics.
func gatewayLayers(r *report, sched []arrival, untraced *liveRun, rec *recorder) error {
	run, err := runLive(sched, rec)
	if err != nil {
		return err
	}
	r.set("trace.overhead_ratio", "ratio", run.wall.Seconds()/untraced.wall.Seconds())
	v := viewOf(r, run)
	if len(v.in) == 0 {
		return fmt.Errorf("gateway: traced pass completed no stream")
	}
	sent := float64(len(sched))
	r.set("gateway.first_flush_ms", "ms", quantile(v.firstFlush, 0.5))
	r.set("gateway.sse_bytes_per_token", "B", ratio(float64(v.bytes), float64(v.tokens)))
	r.set("gateway.rejected_ratio", "ratio", float64(v.rejected)/sent)
	r.set("sim.driver.post_lag_p50_ms", "ms", quantile(run.probes, 0.5))
	r.set("sim.driver.post_lag_p99_ms", "ms", quantile(run.probes, 0.99))
	r.set("sim.driver.token_lag_p99_ms", "ms", quantile(v.lag, 0.99))
	r.set("loadgen.late_p99_ms", "ms", quantile(run.late, 0.99))
	r.set("sim.events_per_token", "count", ratio(float64(run.l.se.Processed()), float64(v.tokens)))
	r.set("engine.switches_per_request", "count", float64(run.l.cl.Switches())/sent)
	r.set("core.failed_per_request", "ratio", float64(len(sched)-len(v.in)-v.rejected)/sent)
	r.set("decision.records_per_request", "count", float64(run.l.dec.Total())/sent)
	for _, n := range []string{"prefixcache.hit_ratio", "prefixcache.saved_ratio", "fleetobs.switch_overhead_share",
		"prefixcache.release_serve_share", "observers.explained_gap_share"} {
		r.set(n, "ratio", 0)
	}
	r.set("prefixcache.device_evictions_per_request", "count", 0)
	r.set("prefixcache.acquire_ns", "ns", 0)
	r.set("prefixcache.release_ns", "ns", 0)

	// The same requests served in batch on an identical cluster with no
	// gateway or driver: what the live path adds in allocations, and the
	// scheduler's latency breakdown and engine operation count.
	_, end := rec.begin("replay:batch")
	b, err := serveBatch(v.in)
	end()
	if err != nil {
		return err
	}
	r.set("gateway.allocs_per_token", "count",
		ratio(float64(run.allocs), float64(v.tokens))-ratio(float64(b.allocs), float64(b.tokens)))
	r.set("gpu.ops_per_token", "count", ratio(float64(b.ops), float64(b.tokens)))
	r.set("sim.wall_speedup", "x", b.virtual.Seconds()/b.wall.Seconds())
	var total time.Duration
	for s := metrics.PrefillWaiting; s <= metrics.DataOverhead; s++ {
		total += b.breakdown.Total(s)
	}
	share := func(s metrics.BreakdownStage) float64 { return ratio(float64(b.breakdown.Total(s)), float64(total)) }
	r.set("core.prefill_wait_share", "ratio", share(metrics.PrefillWaiting))
	r.set("core.decode_wait_share", "ratio", share(metrics.DecodingWaiting))
	r.set("core.control_overhead_share", "ratio", share(metrics.ControlOverhead))
	r.set("core.data_overhead_share", "ratio", share(metrics.DataOverhead))

	_, err = replayLayers(r, v.in, layerEnv{
		cfg:     aegaeon.Config{GPU: "H800", PrefillGPUs: gwPrefill, DecodeGPUs: gwDecode, NumModels: gwModels},
		on:      observers{slo: true, tracing: true},
		journal: run.l.dec,
		rec:     rec,
	})
	return err
}

// batchRun is the batch replay of the live requests.
type batchRun struct {
	allocs, ops        uint64
	tokens             int
	virtual, wall, cpu time.Duration
	breakdown          *metrics.Breakdown
}

// serveBatch serves the recorded requests at their virtual arrival times on
// a fresh cluster with the live observer set, counting engine operations
// through each device's busy edges.
func serveBatch(in []recorded) (batchRun, error) {
	se := sim.NewEngine(1)
	col, mon, dec := observed()
	cl, err := newCluster(se, col, mon, dec)
	if err != nil {
		return batchRun{}, err
	}
	var b batchRun
	sys := cl.Deployments()[0].System
	for _, e := range sys.Engines() {
		e.Device().ObserveBusy(func(_ *gpu.Device, _ gpu.EngineKind, _ gpu.OpInfo, busy bool) {
			if !busy {
				b.ops++
			}
		})
	}
	trace := make([]workload.Request, len(in))
	for i, q := range in {
		trace[i] = workload.Request{ID: q.id, Model: q.model, Arrival: q.arrival, InputTokens: q.input, OutputTokens: q.output}
	}
	sort.SliceStable(trace, func(i, j int) bool { return trace[i].Arrival < trace[j].Arrival })
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0, t0 := cpuTime(), time.Now()
	if err = cl.Submit(trace); err == nil {
		se.Run()
		cl.Finalize(se.Now())
	}
	b.wall, b.cpu = time.Since(t0), cpuTime()-c0
	runtime.ReadMemStats(&m1)
	if err != nil {
		return batchRun{}, fmt.Errorf("batch replay: %w", err)
	}
	b.allocs, b.virtual = m1.Mallocs-m0.Mallocs, se.Now()
	for _, q := range sys.Requests() {
		b.tokens += len(q.TokenTimes)
	}
	b.breakdown = sys.Breakdown()
	return b, nil
}
