package gateway

import (
	"encoding/json"
	"net/http"

	"aegaeon/internal/fleetobs"
	"aegaeon/internal/sim"
)

// fleetSnapshot renders the fleet ledger at the current virtual time and
// returns that time. The snapshot reads the devices' busy counters, which
// the event loop advances, so it is taken on the loop; once the driver has
// stopped it is taken after the loop exits, at the final virtual time. A nil
// ledger yields a nil snapshot.
func (g *Gateway) fleetSnapshot() (sim.Time, *fleetobs.Snapshot) {
	var now sim.Time
	var snap *fleetobs.Snapshot
	take := func() {
		now = g.cl.VirtualNow()
		snap = g.opts.Fleet.Snapshot(now)
	}
	if err := g.drv.Call(take); err != nil {
		<-g.drv.Done()
		take()
	}
	g.mu.Lock()
	g.lastVirtual = now
	g.mu.Unlock()
	return now, snap
}

// handleDebugFleet serves GET /debug/fleet: the full fleet utilization
// snapshot — per-device state integrals (every GPU-second classified), the
// recent state-segment timeline behind the dashboard heatmap, per-model
// goodput and occupancy shares, and fleet rollups (switch-overhead ratio,
// GPU-hours, cost). conservation_errors is non-empty only if the ledger's
// accounting invariant broke — it is asserted empty in tests and CI. 404
// when the gateway was built without a fleet ledger.
func (g *Gateway) handleDebugFleet(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSONError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	if g.opts.Fleet == nil {
		writeJSONError(w, http.StatusNotFound, "fleet accounting disabled (gateway built without a fleet ledger)")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, snap := g.fleetSnapshot()
	_ = json.NewEncoder(w).Encode(snap)
}
