package gateway

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"time"

	"aegaeon/internal/cluster"
)

// The /debug endpoints surface the observability collector live:
//
//	GET /debug/trace?last=N    recent flat events + request span timelines
//	GET /debug/requests/{id}   one request's full span tree
//	GET /debug/gpus            per-engine utilization + current occupant model
//	GET /debug/perfetto        full Chrome trace-event JSON export
//
// All answer 404 when the gateway was built without a collector. Collector
// snapshots are internally synchronized; only simulation-core state (current
// models, the virtual clock) goes through the driver's Call injection.

func (g *Gateway) debugCollectorOr404(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodGet {
		writeJSONError(w, http.StatusMethodNotAllowed, "GET only")
		return false
	}
	if g.opts.Obs == nil {
		writeJSONError(w, http.StatusNotFound, "observability disabled (no collector configured)")
		return false
	}
	return true
}

func (g *Gateway) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	if !g.debugCollectorOr404(w, r) {
		return
	}
	last := 100
	if v := r.URL.Query().Get("last"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeJSONError(w, http.StatusBadRequest, "last must be a positive integer")
			return
		}
		last = n
	}
	c := g.opts.Obs
	events := c.Events()
	if len(events) > last {
		events = events[len(events)-last:]
	}
	type flatEvent struct {
		AtS      float64 `json:"at_s"`
		Kind     string  `json:"kind"`
		Instance string  `json:"instance,omitempty"`
		Subject  string  `json:"subject,omitempty"`
		Detail   string  `json:"detail,omitempty"`
	}
	flat := make([]flatEvent, len(events))
	for i, e := range events {
		flat[i] = flatEvent{AtS: e.At.Seconds(), Kind: e.Kind.String(),
			Instance: e.Instance, Subject: e.Subject, Detail: e.Detail}
	}
	switches, switchesTotal := c.Switches()
	if len(switches) > last {
		switches = switches[len(switches)-last:]
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{
		"events_total":   c.EventsTotal(),
		"events":         flat,
		"requests":       c.Requests(last),
		"switches":       switches,
		"switches_total": switchesTotal,
	})
}

func (g *Gateway) handleDebugRequest(w http.ResponseWriter, r *http.Request) {
	if !g.debugCollectorOr404(w, r) {
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/debug/requests/")
	if id == "" || strings.Contains(id, "/") {
		writeJSONError(w, http.StatusBadRequest, "usage: /debug/requests/{id}")
		return
	}
	t, ok := g.opts.Obs.Request(id)
	if !ok {
		writeJSONError(w, http.StatusNotFound, "no timeline for request %q (evicted or never admitted)", id)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(t)
}

func (g *Gateway) handleDebugGPUs(w http.ResponseWriter, r *http.Request) {
	if !g.debugCollectorOr404(w, r) {
		return
	}
	window := 10 * time.Second
	if v := r.URL.Query().Get("window"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			writeJSONError(w, http.StatusBadRequest, "window must be a positive duration (e.g. 30s)")
			return
		}
		window = d
	}
	// Occupant models and the virtual clock live in simulation-core state:
	// snapshot them on the event loop.
	var infos []cluster.GPUInfo
	var virtual time.Duration
	err := g.drv.Call(func() {
		virtual = g.cl.VirtualNow()
		infos = g.cl.GPUInfos()
	})
	if err != nil {
		g.mu.Lock()
		virtual = g.lastVirtual
		g.mu.Unlock()
	}
	utils := g.opts.Obs.Utilizations(virtual, window)
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{
		"virtual_time_s": virtual.Seconds(),
		"window_s":       window.Seconds(),
		"instances":      infos,
		"engines":        utils,
	})
}

func (g *Gateway) handleDebugPerfetto(w http.ResponseWriter, r *http.Request) {
	if !g.debugCollectorOr404(w, r) {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="aegaeon-trace.json"`)
	if err := g.opts.Obs.WritePerfetto(w); err != nil {
		// Headers are gone; best effort.
		return
	}
}
