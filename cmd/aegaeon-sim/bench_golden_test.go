package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"aegaeon"
)

var updateBenchDigests = flag.Bool("update", false, "rewrite testdata/bench_digests.json from the current build")

const benchDigestsPath = "testdata/bench_digests.json"

// benchCase is one comparative bench at its CI size, asserted or report-only.
type benchCase struct {
	name   string
	assert bool
	run    func(out string, assert bool) (failed []string)
}

// benchCases mirrors the three CI bench invocations:
//
//	-models 8 -prefill 2 -decode 2 -rps 0.3 -horizon 60s -priority-mix 0.2,0.3 -overload-bench
//	-models 4 -prefill 2 -decode 2 -rps 0.03 -horizon 5m -prefix-bench
//	-models 6 -prefill 1 -decode 4 -rps 0.3 -dataset sharegpt-ix2 -horizon 2m -market-bench
func benchCases() []benchCase {
	env := func(models, prefill, decode int, rps float64, horizon time.Duration, ds aegaeon.Dataset, dsName string, assert bool) benchEnv {
		return benchEnv{
			base: aegaeon.Config{
				GPU: "H800", TP: 1, PrefillGPUs: prefill, DecodeGPUs: decode,
				NumModels: models, SLO: aegaeon.DefaultSLO(), Seed: 1,
			},
			rps: rps, horizon: horizon, dataset: ds, datasetName: dsName, assert: assert,
		}
	}
	overload := func(out string, assert bool) []string {
		return runBench(overloadBench(env(8, 2, 2, 0.3, 60*time.Second, aegaeon.ShareGPT(), "sharegpt", assert), 0.2, 0.3), out)
	}
	prefix := func(out string, assert bool) []string {
		return runBench(prefixBench(env(4, 2, 2, 0.03, 5*time.Minute, aegaeon.ShareGPT(), "sharegpt", assert)), out)
	}
	market := func(out string, assert bool) []string {
		return runBench(marketBench(env(6, 1, 4, 0.3, 2*time.Minute, aegaeon.ShareGPTIx2(), "sharegpt-ix2", assert), ""), out)
	}
	return []benchCase{
		{"overload/asserted", true, overload},
		{"overload/report", false, overload},
		{"prefix/asserted", true, prefix},
		{"prefix/report", false, prefix},
		{"market/asserted", true, market},
		{"market/report", false, market},
	}
}

// TestBenchGoldenDigests pins the BENCH JSON each comparative bench writes at
// its CI size, with and without assertions. A change to any of them is a
// behaviour change; regenerate with
//
//	go test ./cmd/aegaeon-sim -run TestBenchGoldenDigests -update
//
// and name the changed digests when committing.
func TestBenchGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("serves six comparative benches")
	}
	dir := t.TempDir()
	got := map[string]string{}
	for _, bc := range benchCases() {
		out := filepath.Join(dir, "bench.json")
		if failed := bc.run(out, bc.assert); len(failed) > 0 {
			t.Errorf("%s: floors failed: %v", bc.name, failed)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		got[bc.name] = hex.EncodeToString(sum[:])
	}
	if *updateBenchDigests {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(benchDigestsPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(benchDigestsPath)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if got[name] != want[name] {
			t.Errorf("%s: BENCH JSON digest %s, want %s", name, got[name], want[name])
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d benches digested, %d pinned", len(got), len(want))
	}
}
