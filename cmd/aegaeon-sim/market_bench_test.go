package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"aegaeon"
)

// TestMarketBenchTwoDecode runs the market bench on the smallest pool it
// accepts, one prefill and two decode instances: its two reclaims must land
// on distinct instances, so each spot arm sees both preemptions.
func TestMarketBenchTwoDecode(t *testing.T) {
	env := benchEnv{
		base: aegaeon.Config{
			GPU: "H800", TP: 1, PrefillGPUs: 1, DecodeGPUs: 2,
			NumModels: 2, SLO: aegaeon.DefaultSLO(), Seed: 1,
		},
		rps: 0.1, horizon: time.Minute,
		dataset: aegaeon.ShareGPT(), datasetName: "sharegpt",
	}
	out := filepath.Join(t.TempDir(), "market.json")
	runBench(marketBench(env, ""), out)
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Reclaims string               `json:"reclaims"`
		Arms     map[string]marketRow `json:"arms"`
	}
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if want := "reclaim@24s+5s:decode1,reclaim@42s+5s:decode0"; got.Reclaims != want {
		t.Errorf("reclaims %q, want %q", got.Reclaims, want)
	}
	for _, name := range []string{"spot_naive", "spot_aware"} {
		if p := got.Arms[name].Preemptions; p != 2 {
			t.Errorf("%s saw %d preemptions, want 2", name, p)
		}
	}
}
