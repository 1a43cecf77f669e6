package gateway

import (
	"encoding/json"
	"net/http"

	"aegaeon/internal/metastore"
)

// handleDebugMetastore serves GET /debug/metastore: the control-plane
// snapshot — store mode (single or replicated), and in replicated mode the
// per-replica role/term/commit/applied state, the current leader, leader
// changes, and the cumulative op counters. The view is read through readSim,
// so after the driver stops it shows the final store state.
func (g *Gateway) handleDebugMetastore(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSONError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	var view metastore.ControlView
	g.readSim(func() { view = g.cl.StoreView() })
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(view)
}
