package gateway

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"aegaeon/internal/slomon"
)

// The /debug/slo endpoints surface the live SLO monitor:
//
//	GET /debug/slo         full snapshot (schema slomon.SchemaVersion)
//	GET /debug/slo/alerts  just the burn-rate alert states + burn rates
//	GET /debug/slo/stream  SSE stream of snapshots (refresh= interval)
//	GET /debug/dash        dependency-free live HTML dashboard
//
// All answer 404 when the gateway was built without a monitor.

func (g *Gateway) sloMonitorOr404(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodGet {
		writeJSONError(w, http.StatusMethodNotAllowed, "GET only")
		return false
	}
	if g.opts.SLOMon == nil {
		writeJSONError(w, http.StatusNotFound, "SLO monitoring disabled (no monitor configured)")
		return false
	}
	return true
}

// sloSnapshot renders the monitor at the current virtual time (last known
// time once the driver has stopped), with cumulative blocks from the
// deployments' SLO ledgers.
func (g *Gateway) sloSnapshot() *slomon.Snapshot {
	var virtual time.Duration
	err := g.drv.Call(func() { virtual = g.cl.VirtualNow() })
	if err != nil {
		g.mu.Lock()
		virtual = g.lastVirtual
		g.mu.Unlock()
	}
	snap := g.opts.SLOMon.Snapshot(virtual)
	g.cl.AttachCumulative(snap)
	return snap
}

func (g *Gateway) handleDebugSLO(w http.ResponseWriter, r *http.Request) {
	if !g.sloMonitorOr404(w, r) {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(g.sloSnapshot())
}

// sloAlertView is the condensed /debug/slo/alerts entry for one scope.
type sloAlertView struct {
	Scope  string                      `json:"scope"` // "fleet" or the model name
	State  string                      `json:"state"`
	SinceS float64                     `json:"since_s"`
	Burn   map[string]float64          `json:"burn"`
	Budget float64                     `json:"error_budget_remaining"`
	Recent []slomon.TransitionSnapshot `json:"recent_transitions,omitempty"`
}

func alertView(scope string, sc slomon.ScopeSnapshot) sloAlertView {
	v := sloAlertView{
		Scope:  scope,
		State:  sc.Alert.State,
		SinceS: sc.Alert.SinceS,
		Burn:   map[string]float64{},
		Budget: sc.ErrorBudgetRemaining,
	}
	for _, ws := range sc.Windowed {
		v.Burn[ws.Window] = ws.BurnRate
	}
	if n := len(sc.Alert.Transitions); n > 0 {
		lo := n - 5
		if lo < 0 {
			lo = 0
		}
		v.Recent = sc.Alert.Transitions[lo:]
	}
	return v
}

func (g *Gateway) handleDebugSLOAlerts(w http.ResponseWriter, r *http.Request) {
	if !g.sloMonitorOr404(w, r) {
		return
	}
	snap := g.sloSnapshot()
	out := []sloAlertView{alertView("fleet", snap.Fleet)}
	for _, sc := range snap.Models {
		out = append(out, alertView(sc.Model, sc))
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{
		"now_s":     snap.NowSeconds,
		"objective": snap.Objective,
		"alerts":    out,
	})
}

// handleDebugSLOStream pushes snapshots over SSE until the client leaves.
func (g *Gateway) handleDebugSLOStream(w http.ResponseWriter, r *http.Request) {
	if !g.sloMonitorOr404(w, r) {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeJSONError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	interval := time.Second
	if v := r.URL.Query().Get("refresh"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < 100*time.Millisecond {
			writeJSONError(w, http.StatusBadRequest, "refresh must be a duration >= 100ms")
			return
		}
		interval = d
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	enc := json.NewEncoder(w)
	for {
		fmt.Fprint(w, "data: ")
		_ = enc.Encode(g.sloSnapshot()) // Encode appends the newline
		fmt.Fprint(w, "\n")
		flusher.Flush()
		select {
		case <-r.Context().Done():
			return
		case <-ticker.C:
		}
	}
}

func (g *Gateway) handleDebugDash(w http.ResponseWriter, r *http.Request) {
	if !g.sloMonitorOr404(w, r) {
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = w.Write([]byte(dashHTML))
}

// dashHTML is the dependency-free live dashboard: one page, inline CSS and
// JS, refreshed from /debug/slo/stream over SSE. The fleet heatmap panel
// polls /debug/fleet and stays hidden when fleet accounting is off.
const dashHTML = `<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>Aegaeon SLO dashboard</title>
<style>
 body { font: 13px/1.5 system-ui, sans-serif; margin: 1.5rem; background: #0f1217; color: #d8dee6; }
 h1 { font-size: 1.1rem; } h2 { font-size: .95rem; margin: 1.2rem 0 .4rem; color: #9fb0c3; }
 table { border-collapse: collapse; min-width: 40rem; }
 th, td { padding: .25rem .7rem; text-align: right; border-bottom: 1px solid #232a33; }
 th { color: #8a97a8; font-weight: 600; } td:first-child, th:first-child { text-align: left; }
 .ok { color: #58c27a; } .warn { color: #e0b050; } .page { color: #e06060; font-weight: 700; }
 #status { color: #667; font-size: .85rem; }
 .bar { display: inline-block; height: .6rem; background: #3b82d0; vertical-align: middle; }
 .hm-row { display: flex; align-items: center; margin: 2px 0; }
 .hm-label { width: 9rem; color: #8a97a8; font-size: .8rem; white-space: nowrap; overflow: hidden; }
 .hm-track { display: flex; flex: 1; height: 16px; background: #1a2029; border-radius: 2px; overflow: hidden; }
 .hm-seg { height: 100%; }
 .hm-stats { width: 11rem; text-align: right; color: #8a97a8; font-size: .8rem; }
 #fleetlegend span { display: inline-block; margin-right: .9rem; font-size: .8rem; color: #9fb0c3; }
 #fleetlegend i { display: inline-block; width: .7rem; height: .7rem; margin-right: .3rem; border-radius: 2px; }
</style>
</head>
<body>
<h1>Aegaeon live SLO <span id="status">connecting&hellip;</span></h1>
<h2>Attainment &amp; burn rate</h2>
<table id="att"><thead><tr>
 <th>scope</th><th>alert</th><th>att (fast)</th><th>att (mid)</th><th>att (slow)</th>
 <th>burn (fast)</th><th>burn (mid)</th><th>burn (slow)</th>
 <th>goodput tok/s</th><th>budget left</th><th>p99 TTFT</th><th>p99 TBT</th>
</tr></thead><tbody></tbody></table>
<h2>Missed-token causes</h2>
<table id="causes"><thead><tr><th>scope</th><th>cause</th><th>missed</th><th></th></tr></thead><tbody></tbody></table>
<div id="fleetpanel" hidden>
<h2>Fleet heatmap <span id="fleetsummary"></span></h2>
<div id="fleetlegend"></div>
<div id="fleetmap"></div>
</div>
<script>
 const fmtPct = v => (100*v).toFixed(2) + "%";
 const fmtS = v => v >= 1 ? v.toFixed(2) + "s" : (1000*v).toFixed(0) + "ms";
 function row(tb, cells, cls) {
  const tr = document.createElement("tr");
  cells.forEach((c, i) => {
   const td = document.createElement("td");
   if (c instanceof Node) td.appendChild(c); else td.textContent = c;
   if (i === 1 && cls) td.className = cls;
   tr.appendChild(td);
  });
  tb.appendChild(tr);
 }
 function win(sc, name) { return sc.windowed.find(w => w.window === name) || {}; }
 function scopeRow(tb, label, sc) {
  const f = win(sc, "fast"), m = win(sc, "mid"), s = win(sc, "slow");
  row(tb, [label, sc.alert.state,
   fmtPct(f.attainment ?? 1), fmtPct(m.attainment ?? 1), fmtPct(s.attainment ?? 1),
   (f.burn_rate ?? 0).toFixed(2), (m.burn_rate ?? 0).toFixed(2), (s.burn_rate ?? 0).toFixed(2),
   (f.goodput_tps ?? 0).toFixed(1), fmtPct(sc.error_budget_remaining ?? 1),
   sc.ttft.count ? fmtS(sc.ttft.p99_s) : "-", sc.tbt.count ? fmtS(sc.tbt.p99_s) : "-",
  ], sc.alert.state);
 }
 function causeRows(tb, label, sc) {
  const entries = Object.entries(sc.causes || {}).sort((a, b) => b[1] - a[1]);
  const max = entries.length ? entries[0][1] : 1;
  entries.forEach(([cause, n]) => {
   const bar = document.createElement("span");
   bar.className = "bar"; bar.style.width = (120 * n / max) + "px";
   row(tb, [label, cause, n, bar]);
  });
 }
 function render(snap) {
  document.getElementById("status").textContent =
   "t=" + snap.now_s.toFixed(1) + "s (virtual) · objective " + fmtPct(snap.objective);
  const att = document.querySelector("#att tbody"); att.innerHTML = "";
  scopeRow(att, "fleet", snap.fleet);
  (snap.models || []).forEach(sc => scopeRow(att, sc.model, sc));
  const causes = document.querySelector("#causes tbody"); causes.innerHTML = "";
  causeRows(causes, "fleet", snap.fleet);
  (snap.models || []).forEach(sc => causeRows(causes, sc.model, sc));
 }
 const es = new EventSource("/debug/slo/stream");
 es.onmessage = e => render(JSON.parse(e.data));
 es.onerror = () => { document.getElementById("status").textContent = "disconnected"; };

 // Fleet heatmap: device rows x recent virtual time, one colored span per
 // ledger state segment. Polls /debug/fleet; hidden when the gateway was
 // built without a fleet ledger (404).
 const stateColors = {
  "idle": "#232a33", "prefill": "#3b82d0", "decode": "#58c27a",
  "compact": "#9b7bd0", "weight-load": "#e0b050", "kv-transfer": "#50c0c0",
  "reinit": "#e06060", "gc-pause": "#b06868", "fetch": "#d08a50",
  "activate": "#c8c850", "faulted": "#7a1f1f",
 };
 const HM_WINDOW_S = 120; // trailing virtual-time window shown
 (function legend() {
  const lg = document.getElementById("fleetlegend");
  Object.entries(stateColors).forEach(([name, color]) => {
   const s = document.createElement("span"), i = document.createElement("i");
   i.style.background = color; s.appendChild(i); s.appendChild(document.createTextNode(name));
   lg.appendChild(s);
  });
 })();
 function renderFleet(snap) {
  document.getElementById("fleetpanel").hidden = false;
  document.getElementById("fleetsummary").textContent =
   "busy " + fmtPct(snap.fleet.busy_fraction) +
   " · switch overhead " + fmtPct(snap.fleet.switch_overhead_ratio) +
   " · " + (snap.fleet.tokens_per_busy_gpu_second || 0).toFixed(1) + " tok/busy-GPU-s" +
   ((snap.conservation_errors || []).length ? " · CONSERVATION BROKEN" : "");
  const start = Math.max(0, snap.now_s - HM_WINDOW_S), span = Math.max(snap.now_s - start, 1e-9);
  const map = document.getElementById("fleetmap"); map.innerHTML = "";
  (snap.devices || []).forEach(d => {
   const rowEl = document.createElement("div"); rowEl.className = "hm-row";
   const label = document.createElement("div"); label.className = "hm-label";
   label.textContent = d.device + (d.faulted ? " ✕" : "");
   const track = document.createElement("div"); track.className = "hm-track";
   (d.segments || []).forEach(sg => {
    const a = Math.max(sg.start_s, start), b = Math.min(sg.end_s, snap.now_s);
    if (b <= a) return;
    const seg = document.createElement("div"); seg.className = "hm-seg";
    seg.style.width = (100 * (b - a) / span) + "%";
    seg.style.background = stateColors[sg.state] || "#666";
    seg.title = sg.state + (sg.model ? " " + sg.model : "") +
     " " + sg.start_s.toFixed(2) + "s–" + sg.end_s.toFixed(2) + "s";
    track.appendChild(seg);
   });
   const stats = document.createElement("div"); stats.className = "hm-stats";
   stats.textContent = "busy " + fmtPct(d.busy_fraction) + " · sw " + fmtPct(d.switch_overhead_ratio);
   rowEl.appendChild(label); rowEl.appendChild(track); rowEl.appendChild(stats);
   map.appendChild(rowEl);
  });
 }
 let fleetOff = false;
 function pollFleet() {
  if (fleetOff) return;
  fetch("/debug/fleet").then(r => {
   if (r.status === 404) { fleetOff = true; return null; }
   return r.ok ? r.json() : null;
  }).then(snap => { if (snap) renderFleet(snap); }).catch(() => {});
 }
 pollFleet();
 setInterval(pollFleet, 2000);
</script>
</body>
</html>
`
