package aegaeon

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"aegaeon/internal/slomon"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_digests.json from the current build")

const goldenPath = "testdata/golden_digests.json"

// goldenFaults crashes both decode instances of a 1+2 pool mid-run, so most
// requests fail with tokens still owed: the scenario where request fates
// outnumber completions.
const goldenFaults = "crash@30s:decode0,crash@30s:decode1"

// goldenCase is one configuration of the golden matrix. neutral marks
// observer-only configurations, whose simulated outcome must equal the plain
// run's.
type goldenCase struct {
	name    string
	cfg     Config
	spec    TraceSpec
	prio    bool // stamp a 20% high / 30% low tier mix onto the trace
	neutral bool
}

func goldenCases() []goldenCase {
	poisson := TraceSpec{RatePerModel: 0.1, Horizon: 2 * time.Minute}
	return []goldenCase{
		{name: "plain", spec: poisson},
		{name: "tracing", cfg: Config{Tracing: true}, spec: poisson, neutral: true},
		{name: "slomon", cfg: Config{SLOMonitor: true}, spec: poisson, neutral: true},
		{name: "fleet", cfg: Config{FleetAccounting: true}, spec: poisson, neutral: true},
		{name: "decisions", cfg: Config{Decisions: true}, spec: poisson, neutral: true},
		{name: "observers", cfg: Config{Tracing: true, SLOMonitor: true, FleetAccounting: true, Decisions: true},
			spec: poisson, neutral: true},
		{name: "faulted", cfg: Config{Tracing: true, SLOMonitor: true, FleetAccounting: true, Decisions: true,
			Faults: goldenFaults}, spec: poisson},
		{name: "overload", cfg: Config{Overload: true},
			spec: TraceSpec{RatePerModel: 0.6, Horizon: 2 * time.Minute}, prio: true},
		{name: "prefix", cfg: Config{PrefixCache: true, PrefixRouting: true},
			spec: TraceSpec{RatePerModel: 0.05, Horizon: 2 * time.Minute, Workload: MultiTurn}},
	}
}

// goldenRun is one served configuration and what the digests hash.
type goldenRun struct {
	rep    Report
	events uint64
	parts  map[string]string // part name -> digest
}

func digestOf(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// simulated strips the observer outputs from a report, leaving the fields
// the simulation itself determines.
func simulated(rep Report) Report {
	rep.SLO, rep.Fleet = nil, nil
	return rep
}

// splitCumulative separates a snapshot's windowed state from its cumulative
// blocks, so a change to cumulative accounting shows as its own digest.
func splitCumulative(s *slomon.Snapshot) (windowed slomon.Snapshot, cum []*slomon.CumulativeStats) {
	windowed = *s
	windowed.Fleet.Cumulative = nil
	cum = append(cum, s.Fleet.Cumulative)
	windowed.Models = make([]slomon.ScopeSnapshot, len(s.Models))
	for i, sc := range s.Models {
		cum = append(cum, sc.Cumulative)
		sc.Cumulative = nil
		windowed.Models[i] = sc
	}
	return windowed, cum
}

func serveGolden(t *testing.T, gc goldenCase, seed int64) goldenRun {
	t.Helper()
	cfg := gc.cfg
	cfg.PrefillGPUs, cfg.DecodeGPUs, cfg.NumModels, cfg.Seed = 1, 2, 8, seed
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	trace := sys.GenerateTrace(gc.spec)
	if gc.prio {
		sys.AssignPriorities(trace, 0.2, 0.3)
	}
	rep, err := sys.Serve(trace)
	if err != nil {
		t.Fatal(err)
	}
	run := goldenRun{rep: rep, events: sys.EventsProcessed(), parts: map[string]string{}}
	run.parts["report"] = digestOf(mustJSON(t, simulated(rep)))
	if sys.Decisions() != nil {
		var buf bytes.Buffer
		if err := sys.WriteDecisions(&buf); err != nil {
			t.Fatal(err)
		}
		run.parts["decisions"] = digestOf(buf.Bytes())
	}
	if sys.Collector() != nil {
		var buf bytes.Buffer
		if err := sys.WritePerfetto(&buf); err != nil {
			t.Fatal(err)
		}
		run.parts["perfetto"] = digestOf(buf.Bytes())
	}
	if rep.Fleet != nil {
		run.parts["fleet"] = digestOf(mustJSON(t, rep.Fleet))
	}
	if rep.SLO != nil {
		windowed, cum := splitCumulative(rep.SLO)
		run.parts["slo"] = digestOf(mustJSON(t, windowed))
		run.parts["slo_cumulative"] = digestOf(mustJSON(t, cum))
	}
	return run
}

// TestGoldenDigests pins the observable behaviour of a seed x configuration
// matrix: the report, the decision export, the Perfetto export (including the
// flat event ring), the fleet snapshot and the SLO snapshot. Any change to
// one of them is a behaviour change; regenerate with
//
//	go test -run TestGoldenDigests . -update
//
// and name the changed digests when committing. Observer-only configurations
// must also leave the simulated report and the kernel's event count equal to
// the plain run's.
func TestGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("serves 18 two-minute runs")
	}
	got := map[string]map[string]string{}
	for _, seed := range []int64{1, 2} {
		var plain goldenRun
		for _, gc := range goldenCases() {
			run := serveGolden(t, gc, seed)
			key := fmt.Sprintf("%s/seed%d", gc.name, seed)
			got[key] = run.parts
			switch {
			case gc.name == "plain":
				plain = run
			case gc.neutral:
				if !reflect.DeepEqual(simulated(run.rep), simulated(plain.rep)) {
					t.Errorf("%s: observers changed the simulated report:\n got %+v\nwant %+v",
						key, simulated(run.rep), simulated(plain.rep))
				}
				if run.events != plain.events {
					t.Errorf("%s: %d events processed, plain run %d", key, run.events, plain.events)
				}
			}
		}
	}
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	var want map[string]map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		if !reflect.DeepEqual(got[k], want[k]) {
			t.Errorf("%s: digests %v, golden %v", k, got[k], want[k])
		}
	}
}

// TestSLOCumulativeMatchesReportUnderFaults is the regression test for the
// cumulative SLO accounting: with both decode instances crashed, most
// requests fail owing tokens, and the snapshot's cumulative blocks must still
// be the report's own ledger — the same tokens met and missed, the same
// attainment, one request counted per request served.
func TestSLOCumulativeMatchesReportUnderFaults(t *testing.T) {
	sys, err := New(Config{PrefillGPUs: 1, DecodeGPUs: 2, NumModels: 8, SLOMonitor: true, Faults: goldenFaults})
	if err != nil {
		t.Fatal(err)
	}
	trace := sys.GenerateTrace(TraceSpec{RatePerModel: 0.1, Horizon: 2 * time.Minute})
	rep, err := sys.Serve(trace)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed == 0 {
		t.Fatal("no request failed: the scenario no longer exercises dropped tokens")
	}
	cum := rep.SLO.Fleet.Cumulative
	if cum == nil {
		t.Fatal("fleet scope has no cumulative block")
	}
	met, missed := sys.sys.Ledger().Fleet().Tokens()
	if cum.TokensMet != met || cum.TokensMissed != missed {
		t.Fatalf("snapshot cumulative %d met / %d missed, report ledger %d / %d",
			cum.TokensMet, cum.TokensMissed, met, missed)
	}
	if cum.Attainment != rep.Attainment {
		t.Fatalf("snapshot cumulative attainment %v, report %v", cum.Attainment, rep.Attainment)
	}
	if cum.Requests != uint64(rep.Requests) {
		t.Fatalf("snapshot counts %d requests, report %d", cum.Requests, rep.Requests)
	}
	var modelMet, modelMissed, modelReqs uint64
	for _, sc := range rep.SLO.Models {
		if c := sc.Cumulative; c != nil {
			modelMet, modelMissed, modelReqs = modelMet+c.TokensMet, modelMissed+c.TokensMissed, modelReqs+c.Requests
		}
	}
	if modelMet != met || modelMissed != missed || modelReqs != cum.Requests {
		t.Fatalf("model blocks sum to %d/%d over %d requests, fleet %d/%d over %d",
			modelMet, modelMissed, modelReqs, met, missed, cum.Requests)
	}
	if err := slomon.Validate(rep.SLO); err != nil {
		t.Fatal(err)
	}
}
