package gateway

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"strings"
	"time"

	"aegaeon/internal/decision"
	"aegaeon/internal/fault"
	"aegaeon/internal/fleetobs"
	"aegaeon/internal/market"
	"aegaeon/internal/metastore"
	"aegaeon/internal/metrics"
	"aegaeon/internal/prefixcache"
	"aegaeon/internal/slomon"
)

// handleMetrics renders Prometheus text exposition format (hand-rolled; the
// repo deliberately has no dependencies). Simulation-side counters (model
// switches, virtual clock) are snapshotted on the event-loop goroutine via
// a synchronous driver call; once the driver has stopped, the last
// successful snapshot is served.
func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSONError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	var switches uint64
	var virtual time.Duration
	var storeGets, storeSets, storeDeletes, storeFailed uint64
	var storeView metastore.ControlView
	var fs fault.Stats
	var failovers int
	var prefixSnaps map[string]prefixcache.Stats
	err := g.drv.Call(func() {
		switches = g.cl.Switches()
		virtual = g.cl.VirtualNow()
		storeGets, storeSets, storeDeletes = g.cl.Store().Ops()
		storeFailed = g.cl.Store().FailedOps()
		storeView = g.cl.StoreView()
		fs = g.cl.FaultStats()
		failovers = g.cl.Failovers()
		if caches := g.cl.PrefixCaches(); len(caches) > 0 {
			prefixSnaps = make(map[string]prefixcache.Stats, len(caches))
			for name, pc := range caches {
				prefixSnaps[name] = pc.Stats()
			}
		}
	})
	g.mu.Lock()
	if err == nil {
		g.lastSwitches, g.lastVirtual = switches, virtual
		v := storeView
		g.lastStoreView = &v
	} else {
		switches, virtual = g.lastSwitches, g.lastVirtual
		if g.lastStoreView != nil {
			storeView = *g.lastStoreView
		}
	}
	inflight := g.inflight
	admitted := g.admitted
	completed := g.completed
	queued := make(map[string]int, len(g.queued))
	for m, n := range g.queued {
		queued[m] = n
	}
	rejected := make(map[string]uint64, len(g.rejected))
	for reason, n := range g.rejected {
		rejected[reason] = n
	}
	statuses := make(map[int]uint64, len(g.statuses))
	for code, n := range g.statuses {
		statuses[code] = n
	}
	failedReqs := g.failed
	abortedReqs := g.aborted
	breakerStates := make(map[string]string, len(g.breakers))
	for m, br := range g.breakers {
		breakerStates[m] = br.State().String()
	}
	overloadOn := g.opts.Overload != nil
	retryExhausted := g.retryExhausted
	ovlRejected := make(map[string]uint64, len(g.ovlRejected))
	for reason, n := range g.ovlRejected {
		ovlRejected[reason] = n
	}
	g.mu.Unlock()

	var b strings.Builder
	counter := func(name, help string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
	}
	gauge := func(name, help string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
	}

	counter("aegaeon_gateway_requests_total", "HTTP responses by status code.")
	for _, code := range sortedIntKeys(statuses) {
		fmt.Fprintf(&b, "aegaeon_gateway_requests_total{code=\"%d\"} %d\n", code, statuses[code])
	}
	counter("aegaeon_gateway_admitted_total", "Requests past admission control.")
	fmt.Fprintf(&b, "aegaeon_gateway_admitted_total %d\n", admitted)
	counter("aegaeon_gateway_completions_total", "Requests fully served.")
	fmt.Fprintf(&b, "aegaeon_gateway_completions_total %d\n", completed)
	counter("aegaeon_gateway_rejected_total", "Requests shed by admission control, by reason.")
	for _, reason := range sortedStringKeys(rejected) {
		fmt.Fprintf(&b, "aegaeon_gateway_rejected_total{reason=%q} %d\n", reason, rejected[reason])
	}
	counter("aegaeon_gateway_tokens_streamed_total", "Tokens delivered to clients.")
	fmt.Fprintf(&b, "aegaeon_gateway_tokens_streamed_total %d\n", g.tokens.Load())

	gauge("aegaeon_gateway_inflight", "Admitted requests not yet finished.")
	fmt.Fprintf(&b, "aegaeon_gateway_inflight %d\n", inflight)
	gauge("aegaeon_gateway_queue_depth", "Admitted-but-unfinished requests per model.")
	for _, m := range sortedStringKeys(queued) {
		fmt.Fprintf(&b, "aegaeon_gateway_queue_depth{model=%q} %d\n", m, queued[m])
	}
	gauge("aegaeon_gateway_virtual_time_seconds", "Virtual clock of the serving simulation.")
	fmt.Fprintf(&b, "aegaeon_gateway_virtual_time_seconds %g\n", virtual.Seconds())

	writeSummary(&b, "aegaeon_gateway_ttft_seconds", "Time to first token (virtual).", g.ttft)
	writeSummary(&b, "aegaeon_gateway_tbt_seconds", "Time between tokens (virtual).", g.tbt)
	writeHistogram(&b, "aegaeon_gateway_ttft_hist_seconds", "Time to first token (virtual), exact bucket counts.", g.ttftHist)
	writeHistogram(&b, "aegaeon_gateway_tbt_hist_seconds", "Time between tokens (virtual), exact bucket counts.", g.tbtHist)

	counter("aegaeon_model_switches_total", "Preemptive auto-scaling model switches across instances.")
	fmt.Fprintf(&b, "aegaeon_model_switches_total %d\n", switches)
	counter("aegaeon_metastore_ops_total", "Metadata store operations by kind.")
	fmt.Fprintf(&b, "aegaeon_metastore_ops_total{op=\"get\"} %d\n", storeGets)
	fmt.Fprintf(&b, "aegaeon_metastore_ops_total{op=\"set\"} %d\n", storeSets)
	fmt.Fprintf(&b, "aegaeon_metastore_ops_total{op=\"delete\"} %d\n", storeDeletes)
	counter("aegaeon_metastore_failed_ops_total", "Metadata store operations dropped by partitions.")
	fmt.Fprintf(&b, "aegaeon_metastore_failed_ops_total %d\n", storeFailed)
	if storeView.Mode == "replicated" {
		gauge("aegaeon_metastore_term", "Current replication term of the quorum metadata store.")
		fmt.Fprintf(&b, "aegaeon_metastore_term %d\n", storeView.Term)
		counter("aegaeon_metastore_leader_changes_total", "Metadata store leader elections that won a new leader.")
		fmt.Fprintf(&b, "aegaeon_metastore_leader_changes_total %d\n", storeView.LeaderChanges)
		gauge("aegaeon_metastore_commit_index", "Quorum-committed log index of the metadata store.")
		fmt.Fprintf(&b, "aegaeon_metastore_commit_index %d\n", storeView.CommitIndex)
		gauge("aegaeon_metastore_replica_up", "Per-replica liveness of the metadata store quorum group.")
		for _, rv := range storeView.Replicas {
			up := 0
			if rv.Up {
				up = 1
			}
			fmt.Fprintf(&b, "aegaeon_metastore_replica_up{replica=%q} %d\n", rv.Name, up)
		}
		gauge("aegaeon_metastore_replica_applied_index", "Per-replica applied log index of the metadata store quorum group.")
		for _, rv := range storeView.Replicas {
			fmt.Fprintf(&b, "aegaeon_metastore_replica_applied_index{replica=%q} %d\n", rv.Name, rv.Applied)
		}
	}

	counter("aegaeon_gateway_failed_total", "Admitted requests that finished cleanly rejected.")
	fmt.Fprintf(&b, "aegaeon_gateway_failed_total %d\n", failedReqs)
	counter("aegaeon_gateway_aborted_total", "Requests aborted on client disconnect.")
	fmt.Fprintf(&b, "aegaeon_gateway_aborted_total %d\n", abortedReqs)
	gauge("aegaeon_gateway_breaker_state", "Per-model circuit breaker state (0 closed, 1 open, 2 half-open).")
	for _, m := range sortedStringKeys(breakerStates) {
		fmt.Fprintf(&b, "aegaeon_gateway_breaker_state{model=%q,state=%q} 1\n", m, breakerStates[m])
	}

	counter("aegaeon_fault_events_total", "Fault-injection and recovery activity by kind.")
	for _, kv := range []struct {
		kind string
		n    uint64
	}{
		{"crash", fs.Crashes},
		{"recovery", fs.Recoveries},
		{"resumed", fs.Resumed},
		{"recomputed", fs.Recomputed},
		{"fetch_failure", fs.FetchFailures},
		{"fetch_retry", fs.FetchRetries},
		{"fetch_exhausted", fs.FetchExhausted},
		{"transfer_failure", fs.TransferFailures},
		{"transfer_retry", fs.TransferRetries},
		{"store_failure", fs.StoreFailures},
		{"store_retry", fs.StoreRetries},
		{"rejected", fs.Rejected},
	} {
		fmt.Fprintf(&b, "aegaeon_fault_events_total{kind=%q} %d\n", kv.kind, kv.n)
	}
	counter("aegaeon_failovers_total", "Instance failovers claimed and recovered by the proxy.")
	fmt.Fprintf(&b, "aegaeon_failovers_total %d\n", failovers)

	if overloadOn {
		gauge("aegaeon_overload_level", "Brownout level (0 normal, 1 shed-low, 2 shrink, 3 freeze, 4 admit-none).")
		fmt.Fprintf(&b, "aegaeon_overload_level %d\n", g.overloadLevel())
		counter("aegaeon_admission_rejected_total", "Overload-control admission rejections by reason.")
		for _, reason := range sortedStringKeys(ovlRejected) {
			fmt.Fprintf(&b, "aegaeon_admission_rejected_total{reason=%q} %d\n", reason, ovlRejected[reason])
		}
		counter("aegaeon_retry_budget_exhausted_total", "Retries rejected because the retry budget was empty.")
		fmt.Fprintf(&b, "aegaeon_retry_budget_exhausted_total %d\n", retryExhausted)
	}

	if g.opts.SLOMon != nil {
		writeSLOMetrics(&b, g.opts.SLOMon.Snapshot(virtual))
	}

	if len(prefixSnaps) > 0 {
		writePrefixMetrics(&b, prefixSnaps)
	}

	if g.opts.Fleet != nil || g.opts.Market != nil {
		now, fleetSnap := g.fleetSnapshot()
		if fleetSnap != nil {
			writeFleetMetrics(&b, fleetSnap)
		}
		if g.opts.Market != nil {
			writeMarketMetrics(&b, g.opts.Market.Snapshot(now, fleetSnap))
		}
	}

	if g.opts.Decisions != nil {
		writeDecisionMetrics(&b, g.opts.Decisions)
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(b.String()))
}

// alertValue maps alert states onto the conventional 0/1/2 gauge scale.
func alertValue(state string) int {
	switch state {
	case "warn":
		return 1
	case "page":
		return 2
	}
	return 0
}

// writeSLOMetrics renders the live SLO monitor's families: fleet-wide
// gauges without labels, per-model gauges with a sorted, stable model label
// order (snapshot models are sorted by name), and miss-cause counters.
// Every family carries # HELP and # TYPE.
func writeSLOMetrics(b *strings.Builder, snap *slomon.Snapshot) {
	if snap == nil {
		return
	}
	counter := func(name, help string) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
	}
	gauge := func(name, help string) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
	}
	fast := func(sc slomon.ScopeSnapshot) slomon.WindowStats { return sc.Windowed[0] }

	gauge("aegaeon_slo_objective", "Token attainment objective the error budget is measured against.")
	fmt.Fprintf(b, "aegaeon_slo_objective %g\n", snap.Objective)

	gauge("aegaeon_slo_fleet_attainment", "Fleet-wide sliding-window token SLO attainment.")
	for _, ws := range snap.Fleet.Windowed {
		fmt.Fprintf(b, "aegaeon_slo_fleet_attainment{window=%q} %g\n", ws.Window, ws.Attainment)
	}
	gauge("aegaeon_slo_fleet_burn_rate", "Fleet-wide error-budget burn rate per window.")
	for _, ws := range snap.Fleet.Windowed {
		fmt.Fprintf(b, "aegaeon_slo_fleet_burn_rate{window=%q} %g\n", ws.Window, ws.BurnRate)
	}
	gauge("aegaeon_slo_fleet_alert_state", "Fleet burn-rate alert state (0 ok, 1 warn, 2 page).")
	fmt.Fprintf(b, "aegaeon_slo_fleet_alert_state %d\n", alertValue(snap.Fleet.Alert.State))
	gauge("aegaeon_slo_fleet_error_budget_remaining", "Unspent fraction of the fleet's slow-window error budget.")
	fmt.Fprintf(b, "aegaeon_slo_fleet_error_budget_remaining %g\n", snap.Fleet.ErrorBudgetRemaining)
	gauge("aegaeon_slo_fleet_goodput_tokens_per_second", "Fleet deadline-meeting tokens per second (fast window).")
	fmt.Fprintf(b, "aegaeon_slo_fleet_goodput_tokens_per_second %g\n", fast(snap.Fleet).GoodputTPS)
	counter("aegaeon_slo_fleet_tokens_total", "Fleet tokens judged against their deadlines, by outcome.")
	fmt.Fprintf(b, "aegaeon_slo_fleet_tokens_total{outcome=\"met\"} %d\n", snap.Fleet.TokensMet)
	fmt.Fprintf(b, "aegaeon_slo_fleet_tokens_total{outcome=\"missed\"} %d\n", snap.Fleet.TokensMissed)
	counter("aegaeon_slo_fleet_missed_by_cause_total", "Fleet missed-deadline tokens by attributed root cause.")
	for _, cause := range sortedStringKeys(snap.Fleet.Causes) {
		fmt.Fprintf(b, "aegaeon_slo_fleet_missed_by_cause_total{cause=%q} %d\n", cause, snap.Fleet.Causes[cause])
	}
	gauge("aegaeon_slo_fleet_ttft_p99_seconds", "Fleet windowed p99 time-to-first-token.")
	fmt.Fprintf(b, "aegaeon_slo_fleet_ttft_p99_seconds %g\n", snap.Fleet.TTFT.P99S)
	gauge("aegaeon_slo_fleet_tbt_p99_seconds", "Fleet windowed p99 time-between-tokens.")
	fmt.Fprintf(b, "aegaeon_slo_fleet_tbt_p99_seconds %g\n", snap.Fleet.TBT.P99S)

	gauge("aegaeon_slo_attainment", "Per-model sliding-window token SLO attainment.")
	for _, sc := range snap.Models {
		for _, ws := range sc.Windowed {
			fmt.Fprintf(b, "aegaeon_slo_attainment{model=%q,window=%q} %g\n", sc.Model, ws.Window, ws.Attainment)
		}
	}
	gauge("aegaeon_slo_burn_rate", "Per-model error-budget burn rate per window.")
	for _, sc := range snap.Models {
		for _, ws := range sc.Windowed {
			fmt.Fprintf(b, "aegaeon_slo_burn_rate{model=%q,window=%q} %g\n", sc.Model, ws.Window, ws.BurnRate)
		}
	}
	gauge("aegaeon_slo_alert_state", "Per-model burn-rate alert state (0 ok, 1 warn, 2 page).")
	for _, sc := range snap.Models {
		fmt.Fprintf(b, "aegaeon_slo_alert_state{model=%q} %d\n", sc.Model, alertValue(sc.Alert.State))
	}
	gauge("aegaeon_slo_error_budget_remaining", "Per-model unspent fraction of the slow-window error budget.")
	for _, sc := range snap.Models {
		fmt.Fprintf(b, "aegaeon_slo_error_budget_remaining{model=%q} %g\n", sc.Model, sc.ErrorBudgetRemaining)
	}
	gauge("aegaeon_slo_goodput_tokens_per_second", "Per-model deadline-meeting tokens per second (fast window).")
	for _, sc := range snap.Models {
		fmt.Fprintf(b, "aegaeon_slo_goodput_tokens_per_second{model=%q} %g\n", sc.Model, fast(sc).GoodputTPS)
	}
	counter("aegaeon_slo_tokens_total", "Per-model tokens judged against their deadlines, by outcome.")
	for _, sc := range snap.Models {
		fmt.Fprintf(b, "aegaeon_slo_tokens_total{model=%q,outcome=\"met\"} %d\n", sc.Model, sc.TokensMet)
		fmt.Fprintf(b, "aegaeon_slo_tokens_total{model=%q,outcome=\"missed\"} %d\n", sc.Model, sc.TokensMissed)
	}
	counter("aegaeon_slo_missed_by_cause_total", "Per-model missed-deadline tokens by attributed root cause.")
	for _, sc := range snap.Models {
		for _, cause := range sortedStringKeys(sc.Causes) {
			fmt.Fprintf(b, "aegaeon_slo_missed_by_cause_total{model=%q,cause=%q} %d\n", sc.Model, cause, sc.Causes[cause])
		}
	}
	gauge("aegaeon_slo_ttft_p99_seconds", "Per-model windowed p99 time-to-first-token.")
	for _, sc := range snap.Models {
		fmt.Fprintf(b, "aegaeon_slo_ttft_p99_seconds{model=%q} %g\n", sc.Model, sc.TTFT.P99S)
	}
	gauge("aegaeon_slo_tbt_p99_seconds", "Per-model windowed p99 time-between-tokens.")
	for _, sc := range snap.Models {
		fmt.Fprintf(b, "aegaeon_slo_tbt_p99_seconds{model=%q} %g\n", sc.Model, sc.TBT.P99S)
	}
}

// writePrefixMetrics renders the global prefix cache's families, summed
// across deployments (models are disjoint across deployments, so per-model
// series never collide). Per-model series are emitted in sorted model order;
// every family carries # HELP and # TYPE.
func writePrefixMetrics(b *strings.Builder, snaps map[string]prefixcache.Stats) {
	counter := func(name, help string) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
	}
	gauge := func(name, help string) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
	}

	var total prefixcache.Stats
	perModel := map[string]prefixcache.ModelStats{}
	for _, st := range snaps {
		total.Lookups += st.Lookups
		total.Hits += st.Hits
		total.TokensSaved += st.TokensSaved
		total.PrefillTokens += st.PrefillTokens
		total.Inserts += st.Inserts
		total.HostEvictions += st.HostEvictions
		total.DeviceEvictions += st.DeviceEvictions
		total.Promotions += st.Promotions
		total.DeviceDrops += st.DeviceDrops
		total.HostEntries += st.HostEntries
		total.DeviceCopies += st.DeviceCopies
		total.PinnedEntries += st.PinnedEntries
		total.HostBytes += st.HostBytes
		total.DeviceBytes += st.DeviceBytes
		for m, ms := range st.PerModel {
			agg := perModel[m]
			agg.Lookups += ms.Lookups
			agg.Hits += ms.Hits
			agg.TokensSaved += ms.TokensSaved
			perModel[m] = agg
		}
	}
	models := sortedStringKeys(perModel)

	counter("aegaeon_prefix_lookups_total", "Prefix cache lookups at prefill admission, by model.")
	for _, m := range models {
		fmt.Fprintf(b, "aegaeon_prefix_lookups_total{model=%q} %d\n", m, perModel[m].Lookups)
	}
	counter("aegaeon_prefix_hits_total", "Prefix cache lookups that matched at least one block, by model.")
	for _, m := range models {
		fmt.Fprintf(b, "aegaeon_prefix_hits_total{model=%q} %d\n", m, perModel[m].Hits)
	}
	counter("aegaeon_prefix_tokens_saved_total", "Prefill tokens skipped thanks to prefix reuse, by model.")
	for _, m := range models {
		fmt.Fprintf(b, "aegaeon_prefix_tokens_saved_total{model=%q} %d\n", m, perModel[m].TokensSaved)
	}
	counter("aegaeon_prefix_inserts_total", "Prefix chains inserted after prefill completion.")
	fmt.Fprintf(b, "aegaeon_prefix_inserts_total %d\n", total.Inserts)
	counter("aegaeon_prefix_evictions_total", "Prefix entries evicted, by tier.")
	fmt.Fprintf(b, "aegaeon_prefix_evictions_total{tier=\"device\"} %d\n", total.DeviceEvictions)
	fmt.Fprintf(b, "aegaeon_prefix_evictions_total{tier=\"host\"} %d\n", total.HostEvictions)
	counter("aegaeon_prefix_promotions_total", "Host-tier entries promoted to a device copy on reuse.")
	fmt.Fprintf(b, "aegaeon_prefix_promotions_total %d\n", total.Promotions)
	counter("aegaeon_prefix_device_drops_total", "Device copies forgotten because their instance crashed.")
	fmt.Fprintf(b, "aegaeon_prefix_device_drops_total %d\n", total.DeviceDrops)

	gauge("aegaeon_prefix_bytes", "Bytes of KV blocks held by the prefix cache, by tier.")
	fmt.Fprintf(b, "aegaeon_prefix_bytes{tier=\"device\"} %d\n", total.DeviceBytes)
	fmt.Fprintf(b, "aegaeon_prefix_bytes{tier=\"host\"} %d\n", total.HostBytes)
	gauge("aegaeon_prefix_entries", "Resident prefix index entries (host tier of record).")
	fmt.Fprintf(b, "aegaeon_prefix_entries %d\n", total.HostEntries)
	gauge("aegaeon_prefix_device_copies", "Per-instance device copies currently resident.")
	fmt.Fprintf(b, "aegaeon_prefix_device_copies %d\n", total.DeviceCopies)
	gauge("aegaeon_prefix_pinned_entries", "Entries pinned by in-flight prefills (never evictable).")
	fmt.Fprintf(b, "aegaeon_prefix_pinned_entries %d\n", total.PinnedEntries)
}

// writeFleetMetrics renders the fleet utilization ledger's families. State
// integrals are time-weighted counters (every simulated GPU-second lands in
// exactly one state, so per-device `state_seconds_total` sums to wall time);
// device and model series are emitted in sorted label order; every family
// carries # HELP and # TYPE.
func writeFleetMetrics(b *strings.Builder, snap *fleetobs.Snapshot) {
	if snap == nil {
		return
	}
	counter := func(name, help string) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
	}
	gauge := func(name, help string) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
	}
	devs := make([]*fleetobs.DeviceSnapshot, len(snap.Devices))
	for i := range snap.Devices {
		devs[i] = &snap.Devices[i]
	}
	sort.Slice(devs, func(i, j int) bool { return devs[i].Device < devs[j].Device })
	states := fleetobs.States()

	counter("aegaeon_fleet_state_seconds_total", "GPU-seconds per device by ledger state; sums to wall time per device.")
	for _, d := range devs {
		for _, s := range states {
			fmt.Fprintf(b, "aegaeon_fleet_state_seconds_total{device=%q,state=%q} %g\n",
				d.Device, s.String(), d.StatesS[s.String()])
		}
	}
	counter("aegaeon_fleet_gpu_seconds_total", "Wall GPU-seconds accounted across the fleet.")
	fmt.Fprintf(b, "aegaeon_fleet_gpu_seconds_total %g\n", snap.Fleet.GPUSeconds)
	counter("aegaeon_fleet_goodput_tokens_total", "Goodput tokens attributed per device and model.")
	for _, d := range devs {
		fmt.Fprintf(b, "aegaeon_fleet_goodput_tokens_total{device=%q} %d\n", d.Device, d.Tokens)
	}
	counter("aegaeon_fleet_model_tokens_total", "Goodput tokens per model across the fleet.")
	for _, m := range snap.Models {
		fmt.Fprintf(b, "aegaeon_fleet_model_tokens_total{model=%q} %d\n", m.Model, m.Tokens)
	}
	counter("aegaeon_fleet_model_compute_seconds_total", "Compute-state GPU-seconds attributed per model.")
	for _, m := range snap.Models {
		fmt.Fprintf(b, "aegaeon_fleet_model_compute_seconds_total{model=%q} %g\n", m.Model, m.ComputeS)
	}
	counter("aegaeon_fleet_cost_dollars_total", "Accumulated GPU cost at each device's hourly rate.")
	fmt.Fprintf(b, "aegaeon_fleet_cost_dollars_total %g\n", snap.Fleet.CostDollars)

	gauge("aegaeon_fleet_busy_fraction", "Busy (non-idle, non-faulted) fraction of fleet GPU-seconds.")
	fmt.Fprintf(b, "aegaeon_fleet_busy_fraction %g\n", snap.Fleet.BusyFraction)
	gauge("aegaeon_fleet_switch_overhead_ratio", "Exposed model-switch seconds over fleet GPU-seconds.")
	fmt.Fprintf(b, "aegaeon_fleet_switch_overhead_ratio %g\n", snap.Fleet.SwitchRatio)
	gauge("aegaeon_fleet_tokens_per_busy_gpu_second", "Fleet goodput tokens per busy GPU-second.")
	fmt.Fprintf(b, "aegaeon_fleet_tokens_per_busy_gpu_second %g\n", snap.Fleet.TokensPerBusyGPUSecond)
	gauge("aegaeon_fleet_device_busy_fraction", "Per-device busy fraction of wall time.")
	for _, d := range devs {
		fmt.Fprintf(b, "aegaeon_fleet_device_busy_fraction{device=%q} %g\n", d.Device, d.BusyFraction)
	}
	gauge("aegaeon_fleet_device_switch_overhead_ratio", "Per-device exposed switch seconds over wall time.")
	for _, d := range devs {
		fmt.Fprintf(b, "aegaeon_fleet_device_switch_overhead_ratio{device=%q} %g\n", d.Device, d.SwitchRatio)
	}
	gauge("aegaeon_fleet_device_faulted", "Whether the device is fail-stopped (1) or serving (0).")
	for _, d := range devs {
		v := 0
		if d.Faulted {
			v = 1
		}
		fmt.Fprintf(b, "aegaeon_fleet_device_faulted{device=%q} %d\n", d.Device, v)
	}
	gauge("aegaeon_fleet_kv_bytes", "GPU KV pool bytes per device (used, peak watermark, capacity).")
	for _, d := range devs {
		fmt.Fprintf(b, "aegaeon_fleet_kv_bytes{device=%q,kind=\"capacity\"} %d\n", d.Device, d.KVCapacityBytes)
		fmt.Fprintf(b, "aegaeon_fleet_kv_bytes{device=%q,kind=\"peak\"} %d\n", d.Device, d.KVPeakBytes)
		fmt.Fprintf(b, "aegaeon_fleet_kv_bytes{device=%q,kind=\"used\"} %d\n", d.Device, d.KVUsedBytes)
	}
	gauge("aegaeon_fleet_model_occupancy_share", "Per-model share of fleet compute GPU-seconds.")
	for _, m := range snap.Models {
		fmt.Fprintf(b, "aegaeon_fleet_model_occupancy_share{model=%q} %g\n", m.Model, m.OccupancyShare)
	}
	gauge("aegaeon_fleet_model_tokens_per_gpu_second", "Per-model goodput tokens per compute GPU-second.")
	for _, m := range snap.Models {
		fmt.Fprintf(b, "aegaeon_fleet_model_tokens_per_gpu_second{model=%q} %g\n", m.Model, m.TokensPerGPUSecond)
	}
	gauge("aegaeon_fleet_gpu_hours", "Wall GPU-hours accounted across the fleet.")
	fmt.Fprintf(b, "aegaeon_fleet_gpu_hours %g\n", snap.Fleet.GPUHours)
	gauge("aegaeon_fleet_conservation_errors", "Accounting-invariant violations detected at snapshot (0 in a correct build).")
	fmt.Fprintf(b, "aegaeon_fleet_conservation_errors %d\n", len(snap.ConservationErrors))
}

// writeMarketMetrics renders the spot-market model's families: per-device
// price and eligibility gauges, preemption-lifecycle counters, the
// evacuated-vs-lost KV byte split, and per-class economics. Device and class
// series are emitted in snapshot order (devices register in pool-build order;
// classes are sorted by name); every family carries # HELP and # TYPE.
func writeMarketMetrics(b *strings.Builder, snap *market.Snapshot) {
	if snap == nil {
		return
	}
	counter := func(name, help string) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
	}
	gauge := func(name, help string) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
	}

	gauge("aegaeon_market_spot", "Whether spot pricing and reclaim risk are active (1) or on-demand (0).")
	fmt.Fprintf(b, "aegaeon_market_spot %d\n", b2i(snap.Spot))
	gauge("aegaeon_market_aware", "Whether preemption-aware placement and KV evacuation are on.")
	fmt.Fprintf(b, "aegaeon_market_aware %d\n", b2i(snap.Aware))

	gauge("aegaeon_market_device_rate_dollars_per_hour", "Current per-device price on its class's trace.")
	for _, d := range snap.Devices {
		fmt.Fprintf(b, "aegaeon_market_device_rate_dollars_per_hour{device=%q,class=%q} %g\n",
			d.Device, d.Class, d.RateDollarsPerHour)
	}
	gauge("aegaeon_market_device_eligible", "Whether placement may target the device (not noticed, revoked, disqualified, or VRAM-starved).")
	for _, d := range snap.Devices {
		fmt.Fprintf(b, "aegaeon_market_device_eligible{device=%q,class=%q} %d\n",
			d.Device, d.Class, b2i(d.Eligible))
	}
	gauge("aegaeon_market_device_under_notice", "Whether the device has an open preemption notice.")
	for _, d := range snap.Devices {
		fmt.Fprintf(b, "aegaeon_market_device_under_notice{device=%q} %d\n", d.Device, b2i(d.UnderNotice))
	}
	gauge("aegaeon_market_device_capability_score", "Class compute relative to the strongest class, discounted by any live throttle.")
	for _, d := range snap.Devices {
		fmt.Fprintf(b, "aegaeon_market_device_capability_score{device=%q,class=%q} %g\n",
			d.Device, d.Class, d.CapabilityScore)
	}

	st := snap.Stats
	counter("aegaeon_market_preemptions_total", "Spot reclaim notices delivered.")
	fmt.Fprintf(b, "aegaeon_market_preemptions_total %d\n", st.Preemptions)
	counter("aegaeon_market_revocations_total", "Reclaim deadlines that fired (device fail-stopped).")
	fmt.Fprintf(b, "aegaeon_market_revocations_total %d\n", st.Revocations)
	counter("aegaeon_market_deadlines_missed_total", "Revocations that caught KV still on-device.")
	fmt.Fprintf(b, "aegaeon_market_deadlines_missed_total %d\n", st.DeadlinesMissed)
	counter("aegaeon_market_kv_bytes_total", "KV bytes by preemption outcome: evacuated ahead of the deadline, lost at revocation, or prefix copies re-homed to the host tier.")
	fmt.Fprintf(b, "aegaeon_market_kv_bytes_total{outcome=\"evacuated\"} %d\n", st.EvacuatedKVBytes)
	fmt.Fprintf(b, "aegaeon_market_kv_bytes_total{outcome=\"lost\"} %d\n", st.LostKVBytes)
	fmt.Fprintf(b, "aegaeon_market_kv_bytes_total{outcome=\"rehomed_prefix\"} %d\n", st.RehomedPrefixBytes)
	counter("aegaeon_market_throttles_total", "Thermal-throttle windows applied.")
	fmt.Fprintf(b, "aegaeon_market_throttles_total %d\n", st.Throttles)
	counter("aegaeon_market_disqualifications_total", "Devices disqualified by error-rate eviction.")
	fmt.Fprintf(b, "aegaeon_market_disqualifications_total %d\n", st.Disqualifications)
	counter("aegaeon_market_price_ticks_total", "Price-trace steps across the fleet.")
	fmt.Fprintf(b, "aegaeon_market_price_ticks_total %d\n", st.PriceTicks)

	gauge("aegaeon_market_class_devices", "Registered devices per class.")
	for _, c := range snap.Classes {
		fmt.Fprintf(b, "aegaeon_market_class_devices{class=%q} %d\n", c.Class, c.Devices)
	}
	gauge("aegaeon_market_class_mean_rate_dollars_per_hour", "Mean current price across the class's devices.")
	for _, c := range snap.Classes {
		fmt.Fprintf(b, "aegaeon_market_class_mean_rate_dollars_per_hour{class=%q} %g\n", c.Class, c.MeanRate)
	}
	counter("aegaeon_market_class_cost_dollars_total", "Accumulated cost per class from the fleet ledger's integral.")
	for _, c := range snap.Classes {
		fmt.Fprintf(b, "aegaeon_market_class_cost_dollars_total{class=%q} %g\n", c.Class, c.CostDollars)
	}
	gauge("aegaeon_market_class_dollars_per_1k_tokens", "Per-class unit economics: cost over goodput tokens, times 1000.")
	for _, c := range snap.Classes {
		fmt.Fprintf(b, "aegaeon_market_class_dollars_per_1k_tokens{class=%q} %g\n", c.Class, c.DollarsPer1KTokens)
	}
	counter("aegaeon_market_class_preemptions_total", "Reclaim notices per class.")
	for _, c := range snap.Classes {
		fmt.Fprintf(b, "aegaeon_market_class_preemptions_total{class=%q} %d\n", c.Class, c.Preemptions)
	}
}

// writeDecisionMetrics renders the decision-provenance journal's families.
// Series come from Counts(), already sorted by kind then outcome, so label
// order is deterministic scrape to scrape; every family carries # HELP and
// # TYPE. The whole block is absent when the journal is off.
func writeDecisionMetrics(b *strings.Builder, j *decision.Journal) {
	counter := func(name, help string) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
	}
	gauge := func(name, help string) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
	}

	counter("aegaeon_decision_records_total", "Journaled scheduling decisions by kind and outcome.")
	for _, c := range j.Counts() {
		fmt.Fprintf(b, "aegaeon_decision_records_total{kind=%q,outcome=%q} %d\n", c.Kind, c.Outcome, c.N)
	}
	counter("aegaeon_decision_journaled_total", "Decisions ever journaled (ring rotation does not decrement).")
	fmt.Fprintf(b, "aegaeon_decision_journaled_total %d\n", j.Total())
	gauge("aegaeon_decision_tracked_requests", "Requests with a retained decision chain.")
	fmt.Fprintf(b, "aegaeon_decision_tracked_requests %d\n", j.TrackedRequests())
}

func b2i(v bool) int {
	if v {
		return 1
	}
	return 0
}

// writeHistogram renders exact cumulative buckets in the Prometheus
// histogram convention: `_bucket{le="..."}` lines ascending, a final
// `le="+Inf"` equal to `_count`, then `_sum` and `_count`.
func writeHistogram(b *strings.Builder, name, help string, h *metrics.Histogram) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	s := h.Snapshot()
	for i, bound := range s.Bounds {
		fmt.Fprintf(b, "%s_bucket{le=\"%g\"} %d\n", name, bound, s.Cumulative[i])
	}
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", name, s.Count)
	fmt.Fprintf(b, "%s_sum %g\n", name, s.Sum)
	fmt.Fprintf(b, "%s_count %d\n", name, s.Count)
}

// writeSummary renders a SafeCDF as a Prometheus summary.
func writeSummary(b *strings.Builder, name, help string, c *metrics.SafeCDF) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s summary\n", name, help, name)
	if c.N() > 0 {
		for _, q := range []float64{0.5, 0.9, 0.99} {
			v := c.Quantile(q)
			if !math.IsNaN(v) {
				fmt.Fprintf(b, "%s{quantile=\"%g\"} %g\n", name, q, v)
			}
		}
	}
	fmt.Fprintf(b, "%s_count %d\n", name, c.Seen())
}

func sortedStringKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedIntKeys[V any](m map[int]V) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
