package gateway

import (
	"encoding/json"
	"net/http"

	"aegaeon/internal/prefixcache"
)

// prefixDebug is the JSON shape of one deployment's prefix-cache snapshot.
type prefixDebug struct {
	Deployment string  `json:"deployment"`
	HitRatio   float64 `json:"hit_ratio"`
	SavedRatio float64 `json:"saved_ratio"`

	Lookups       uint64 `json:"lookups"`
	Hits          uint64 `json:"hits"`
	TokensSaved   uint64 `json:"tokens_saved"`
	PrefillTokens uint64 `json:"prefill_tokens"`
	Inserts       uint64 `json:"inserts"`

	HostEvictions   uint64 `json:"host_evictions"`
	DeviceEvictions uint64 `json:"device_evictions"`
	Promotions      uint64 `json:"promotions"`
	DeviceDrops     uint64 `json:"device_drops"`

	HostEntries   int `json:"host_entries"`
	DeviceCopies  int `json:"device_copies"`
	PinnedEntries int `json:"pinned_entries"`

	HostBytes   int64 `json:"host_bytes"`
	DeviceBytes int64 `json:"device_bytes"`

	PerModel              map[string]prefixcache.ModelStats `json:"per_model,omitempty"`
	DeviceBytesByInstance map[string]int64                  `json:"device_bytes_by_instance,omitempty"`
}

// handleDebugPrefix serves GET /debug/prefix: per-deployment prefix-cache
// statistics (hit ratio, tokens saved, tier residency, eviction/promotion
// activity). 404 when no deployment has a prefix cache configured. Stats are
// read through readSim since the cache mutates from the simulation goroutine.
func (g *Gateway) handleDebugPrefix(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSONError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	var snaps map[string]prefixcache.Stats
	g.readSim(func() {
		caches := g.cl.PrefixCaches()
		snaps = make(map[string]prefixcache.Stats, len(caches))
		for name, pc := range caches {
			snaps[name] = pc.Stats()
		}
	})
	if len(snaps) == 0 {
		writeJSONError(w, http.StatusNotFound, "prefix cache disabled (no deployment configured with one)")
		return
	}
	out := make([]prefixDebug, 0, len(snaps))
	for _, name := range sortedStringKeys(snaps) {
		st := snaps[name]
		out = append(out, prefixDebug{
			Deployment:            name,
			HitRatio:              st.HitRatio(),
			SavedRatio:            st.SavedRatio(),
			Lookups:               st.Lookups,
			Hits:                  st.Hits,
			TokensSaved:           st.TokensSaved,
			PrefillTokens:         st.PrefillTokens,
			Inserts:               st.Inserts,
			HostEvictions:         st.HostEvictions,
			DeviceEvictions:       st.DeviceEvictions,
			Promotions:            st.Promotions,
			DeviceDrops:           st.DeviceDrops,
			HostEntries:           st.HostEntries,
			DeviceCopies:          st.DeviceCopies,
			PinnedEntries:         st.PinnedEntries,
			HostBytes:             st.HostBytes,
			DeviceBytes:           st.DeviceBytes,
			PerModel:              st.PerModel,
			DeviceBytesByInstance: st.DeviceBytesByInstance,
		})
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{"deployments": out})
}
