package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"aegaeon/internal/cluster"
	"aegaeon/internal/fleetobs"
	"aegaeon/internal/latency"
	"aegaeon/internal/metastore"
	"aegaeon/internal/model"
	"aegaeon/internal/obs"
	"aegaeon/internal/prefixcache"
	"aegaeon/internal/sim"
	"aegaeon/internal/slo"
	"aegaeon/internal/slomon"
)

// newFleetGateway builds a live cluster with the fleet utilization ledger,
// which devices register with and the gateway reads through the cluster
// (/debug/fleet and the aegaeon_fleet_* families).
func newFleetGateway(t testing.TB, opts Options) (*Gateway, []string) {
	t.Helper()
	prof, err := latency.ProfileByName("H800")
	if err != nil {
		t.Fatal(err)
	}
	models := model.MarketMix(4)
	se := sim.NewEngine(1)
	fleet := fleetobs.New(se)
	cl, err := cluster.New(se, cluster.Config{
		Prof: prof,
		SLO:  slo.Default(),
		Deployments: []cluster.DeploymentConfig{{
			Name: "live", TP: 1, NumPrefill: 2, NumDecode: 2, Models: models,
		}},
		Fleet: fleet,
	})
	if err != nil {
		t.Fatal(err)
	}
	gw := New(sim.NewDriver(se, opts.Speedup), cl, opts)
	gw.Start()
	names := make([]string, len(models))
	for i, m := range models {
		names[i] = m.Name
	}
	return gw, names
}

// TestDebugFleet404WithoutLedger: a gateway over a cluster without a fleet ledger
// answers 404 on /debug/fleet, mirroring the other gated debug endpoints.
func TestDebugFleet404WithoutLedger(t *testing.T) {
	gw, _ := newTestGateway(t, Options{Speedup: 50000})
	defer gw.Shutdown(context.Background())
	h := gw.Handler()

	req := httptest.NewRequest(http.MethodGet, "/debug/fleet", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusNotFound {
		t.Fatalf("/debug/fleet without ledger: status %d, want 404", w.Code)
	}
}

// TestDebugFleetEndpoint serves a few completions and checks the
// /debug/fleet JSON: one entry per device, the conservation invariant clean
// at the snapshot instant, work visible in the busy integrals and goodput
// tokens, and the heatmap segment timeline populated.
func TestDebugFleetEndpoint(t *testing.T) {
	gw, names := newFleetGateway(t, Options{Speedup: 50000})
	defer gw.Shutdown(context.Background())
	h := gw.Handler()

	for i := 0; i < 3; i++ {
		body := fmt.Sprintf(`{"model":%q,"input_tokens":128,"max_tokens":4}`, names[i%2])
		if w := postCompletion(h, body); w.Code != http.StatusOK {
			t.Fatalf("completion %d: status %d: %s", i, w.Code, w.Body.String())
		}
	}

	req := httptest.NewRequest(http.MethodGet, "/debug/fleet", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("/debug/fleet: status %d: %s", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("Content-Type = %q", ct)
	}
	var snap fleetobs.Snapshot
	if err := json.Unmarshal(w.Body.Bytes(), &snap); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if snap.SchemaVersion != fleetobs.SchemaVersion {
		t.Errorf("schema_version = %d, want %d", snap.SchemaVersion, fleetobs.SchemaVersion)
	}
	if len(snap.Devices) != 4 {
		t.Fatalf("got %d devices, want 4 (2 prefill + 2 decode)", len(snap.Devices))
	}
	if len(snap.ConservationErrors) > 0 {
		t.Fatalf("conservation violated: %v", snap.ConservationErrors)
	}
	if errs := snap.Validate(); len(errs) > 0 {
		t.Fatalf("snapshot fails its own validation: %v", errs)
	}
	if snap.Fleet.BusyS <= 0 {
		t.Error("no busy time after serving completions")
	}
	if snap.Fleet.Tokens == 0 {
		t.Error("no goodput tokens after serving completions")
	}
	segs := 0
	for _, d := range snap.Devices {
		segs += len(d.Segments)
	}
	if segs == 0 {
		t.Error("no heatmap segments after serving completions")
	}
	if len(snap.Models) == 0 {
		t.Error("no per-model goodput entries")
	}
}

// newFullGateway is newFleetGateway with every simulation-state reader
// configured: an obs collector (/debug/gpus), a live SLO monitor (/debug/slo)
// and the prefix cache (/debug/prefix), beside the always-present store.
func newFullGateway(t testing.TB, opts Options) (*Gateway, []string) {
	t.Helper()
	prof, err := latency.ProfileByName("H800")
	if err != nil {
		t.Fatal(err)
	}
	models := model.MarketMix(4)
	se := sim.NewEngine(1)
	col := obs.New(obs.Options{})
	opts.Obs = col
	opts.SLOMon = slomon.New(slomon.Config{Objective: 0.99, Source: col})
	cl, err := cluster.New(se, cluster.Config{
		Prof:   prof,
		SLO:    slo.Default(),
		Obs:    col,
		SLOMon: opts.SLOMon,
		Deployments: []cluster.DeploymentConfig{{
			Name: "live", TP: 1, NumPrefill: 2, NumDecode: 2, Models: models,
		}},
		Fleet:  fleetobs.New(se),
		Prefix: &prefixcache.Config{Routing: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	gw := New(sim.NewDriver(se, opts.Speedup), cl, opts)
	gw.Start()
	names := make([]string, len(models))
	for i, m := range models {
		names[i] = m.Name
	}
	return gw, names
}

// TestDebugFleetAfterShutdown: once the driver has stopped, every endpoint
// that reads simulation state still answers 200, from the final simulation
// state at the final virtual time, alone and under concurrent scrapes.
func TestDebugFleetAfterShutdown(t *testing.T) {
	gw, names := newFullGateway(t, Options{Speedup: 50000})
	h := gw.Handler()
	runSession(t, h, names[0], "chat-1", 3, 256)
	if err := gw.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The loop has exited: the cluster can be read directly for the truth.
	final := gw.cl.VirtualNow().Seconds()
	prefix := gw.cl.PrefixCaches()["live"].Stats()
	store := gw.cl.StoreView()
	if final <= 0 || prefix.Lookups == 0 {
		t.Fatalf("nothing served before shutdown: final %vs, %d prefix lookups", final, prefix.Lookups)
	}

	// Checks report with t.Errorf: the concurrent case runs them off the
	// test goroutine.
	decode := func(t *testing.T, body []byte, v any) {
		t.Helper()
		if err := json.Unmarshal(body, v); err != nil {
			t.Errorf("bad JSON: %v", err)
		}
	}
	atFinal := func(t *testing.T, what string, got float64) {
		t.Helper()
		if got != final {
			t.Errorf("%s = %v, want the final virtual time %v", what, got, final)
		}
	}
	cases := []struct {
		path  string
		check func(t *testing.T, body []byte)
	}{
		{"/metrics", func(t *testing.T, body []byte) {
			want := fmt.Sprintf("aegaeon_gateway_virtual_time_seconds %g\n", final)
			if !strings.Contains(string(body), want) {
				t.Errorf("/metrics lacks %q", want)
			}
			want = fmt.Sprintf("aegaeon_prefix_lookups_total{model=%q} %d\n", names[0], prefix.Lookups)
			if !strings.Contains(string(body), want) {
				t.Errorf("/metrics lacks %q", want)
			}
		}},
		{"/debug/fleet", func(t *testing.T, body []byte) {
			var snap fleetobs.Snapshot
			decode(t, body, &snap)
			atFinal(t, "now_s", snap.NowSeconds)
			if len(snap.ConservationErrors) > 0 {
				t.Errorf("conservation violated after shutdown: %v", snap.ConservationErrors)
			}
			var compute float64
			for _, d := range snap.Devices {
				compute += d.RawComputeBusyS
			}
			if compute <= 0 {
				t.Error("no raw compute busy time after serving completions")
			}
		}},
		{"/debug/gpus", func(t *testing.T, body []byte) {
			var out struct {
				VirtualTimeS float64           `json:"virtual_time_s"`
				Instances    []json.RawMessage `json:"instances"`
			}
			decode(t, body, &out)
			atFinal(t, "virtual_time_s", out.VirtualTimeS)
			if len(out.Instances) != 4 {
				t.Errorf("%d instances, want 4", len(out.Instances))
			}
		}},
		{"/debug/slo", func(t *testing.T, body []byte) {
			var snap slomon.Snapshot
			decode(t, body, &snap)
			atFinal(t, "now_s", snap.NowSeconds)
			if c := snap.Fleet.Cumulative; c == nil || c.Requests != 3 {
				t.Errorf("fleet cumulative block %+v, want the 3 served requests", c)
			}
		}},
		{"/debug/prefix", func(t *testing.T, body []byte) {
			var out struct{ Deployments []prefixDebug }
			decode(t, body, &out)
			d := out.Deployments
			if len(d) != 1 || d[0].Lookups != prefix.Lookups || d[0].TokensSaved != prefix.TokensSaved {
				t.Errorf("prefix debug %+v, want final lookups %d, tokens saved %d",
					d, prefix.Lookups, prefix.TokensSaved)
			}
		}},
		{"/debug/metastore", func(t *testing.T, body []byte) {
			var view metastore.ControlView
			decode(t, body, &view)
			if view.Gets != store.Gets || view.Sets != store.Sets || view.Gets+view.Sets == 0 {
				t.Errorf("store view gets/sets %d/%d, want final %d/%d",
					view.Gets, view.Sets, store.Gets, store.Sets)
			}
		}},
	}
	scrape := func(t *testing.T, path string, check func(*testing.T, []byte)) {
		w := get(h, path)
		if w.Code != http.StatusOK {
			t.Errorf("%s after shutdown: status %d: %s", path, w.Code, w.Body.String())
			return
		}
		check(t, w.Body.Bytes())
	}
	for _, tc := range cases {
		t.Run(strings.TrimPrefix(tc.path, "/"), func(t *testing.T) {
			scrape(t, tc.path, tc.check)
		})
	}
	// Post-stop reads run off the loop, so two scrapes may read the final
	// state at once; run under -race this shows any reader that writes.
	t.Run("concurrent", func(t *testing.T) {
		var wg sync.WaitGroup
		for _, tc := range cases {
			for i := 0; i < 2; i++ {
				wg.Add(1)
				go func(path string, check func(*testing.T, []byte)) {
					defer wg.Done()
					scrape(t, path, check)
				}(tc.path, tc.check)
			}
		}
		wg.Wait()
	})
}

// TestMetricsFleetExposition is the exposition regression test for the
// aegaeon_fleet_* families: each carries # HELP and # TYPE, _total families
// are typed counter, per-device series appear in sorted device order with
// the full state label set, and the conservation gauge reads zero.
func TestMetricsFleetExposition(t *testing.T) {
	gw, names := newFleetGateway(t, Options{Speedup: 50000})
	defer gw.Shutdown(context.Background())
	h := gw.Handler()

	for i := 0; i < 3; i++ {
		body := fmt.Sprintf(`{"model":%q,"input_tokens":128,"max_tokens":4}`, names[i%2])
		if w := postCompletion(h, body); w.Code != http.StatusOK {
			t.Fatalf("completion %d: status %d: %s", i, w.Code, w.Body.String())
		}
	}

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics: status %d", w.Code)
	}
	body := w.Body.String()

	families := map[string]string{
		"aegaeon_fleet_state_seconds_total":          "counter",
		"aegaeon_fleet_gpu_seconds_total":            "counter",
		"aegaeon_fleet_goodput_tokens_total":         "counter",
		"aegaeon_fleet_model_tokens_total":           "counter",
		"aegaeon_fleet_model_compute_seconds_total":  "counter",
		"aegaeon_fleet_cost_dollars_total":           "counter",
		"aegaeon_fleet_busy_fraction":                "gauge",
		"aegaeon_fleet_switch_overhead_ratio":        "gauge",
		"aegaeon_fleet_tokens_per_busy_gpu_second":   "gauge",
		"aegaeon_fleet_device_busy_fraction":         "gauge",
		"aegaeon_fleet_device_switch_overhead_ratio": "gauge",
		"aegaeon_fleet_device_faulted":               "gauge",
		"aegaeon_fleet_kv_bytes":                     "gauge",
		"aegaeon_fleet_model_occupancy_share":        "gauge",
		"aegaeon_fleet_model_tokens_per_gpu_second":  "gauge",
		"aegaeon_fleet_gpu_hours":                    "gauge",
		"aegaeon_fleet_conservation_errors":          "gauge",
	}
	for fam, typ := range families {
		if !strings.Contains(body, "# HELP "+fam+" ") {
			t.Errorf("missing # HELP for %s", fam)
		}
		if !strings.Contains(body, "# TYPE "+fam+" "+typ+"\n") {
			t.Errorf("missing # TYPE %s %s", fam, typ)
		}
	}

	// Per-device series in sorted device order, and every state label
	// present for every device (the exhaustive partition is the contract).
	var devices []string
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, `aegaeon_fleet_device_busy_fraction{device="`) {
			rest := strings.TrimPrefix(line, `aegaeon_fleet_device_busy_fraction{device="`)
			if i := strings.Index(rest, `"`); i >= 0 {
				devices = append(devices, rest[:i])
			}
		}
	}
	if len(devices) != 4 {
		t.Fatalf("got device series %v, want 4", devices)
	}
	for i := 1; i < len(devices); i++ {
		if devices[i] < devices[i-1] {
			t.Fatalf("device series out of order: %v", devices)
		}
	}
	for _, dev := range devices {
		for _, st := range fleetobs.States() {
			series := fmt.Sprintf("aegaeon_fleet_state_seconds_total{device=%q,state=%q}", dev, st.String())
			if !strings.Contains(body, series+" ") {
				t.Errorf("missing series %s", series)
			}
		}
		for _, kind := range []string{"capacity", "peak", "used"} {
			series := fmt.Sprintf("aegaeon_fleet_kv_bytes{device=%q,kind=%q}", dev, kind)
			if !strings.Contains(body, series+" ") {
				t.Errorf("missing series %s", series)
			}
		}
	}
	if !strings.Contains(body, "aegaeon_fleet_conservation_errors 0\n") {
		t.Error("conservation gauge missing or nonzero")
	}
}

// TestMetricsNoFleetFamiliesWithoutLedger: the families are gated on the
// ledger being configured, keeping the accounting-free exposition byte-stable.
func TestMetricsNoFleetFamiliesWithoutLedger(t *testing.T) {
	gw, _ := newTestGateway(t, Options{Speedup: 50000})
	defer gw.Shutdown(context.Background())
	h := gw.Handler()

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if strings.Contains(w.Body.String(), "aegaeon_fleet_") {
		t.Error("aegaeon_fleet_* families emitted without a fleet ledger")
	}
}
