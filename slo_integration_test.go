package aegaeon_test

import (
	"math"
	"testing"
	"time"

	"aegaeon"
	"aegaeon/internal/slomon"
)

// TestSLOMonitorConvergesToTracker runs a steady workload with the live
// monitor on and cross-checks its windowed attainment against the
// cumulative SLO ledger: with the whole run inside the slow window, the
// streamed token totals and the ledger's judgement must agree.
func TestSLOMonitorConvergesToTracker(t *testing.T) {
	sys, err := aegaeon.New(aegaeon.Config{
		PrefillGPUs: 2, DecodeGPUs: 2, NumModels: 4, SLOMonitor: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	trace := sys.GenerateTrace(aegaeon.TraceSpec{RatePerModel: 0.1, Horizon: 4 * time.Minute})
	rep, err := sys.Serve(trace)
	if err != nil {
		t.Fatal(err)
	}
	snap := rep.SLO
	if snap == nil {
		t.Fatal("SLOMonitor config produced no Report.SLO block")
	}
	if err := slomon.Validate(snap); err != nil {
		t.Fatalf("report snapshot invalid: %v", err)
	}
	if snap.Fleet.TokensMet == 0 {
		t.Fatal("monitor judged no tokens")
	}
	if snap.Fleet.Cumulative == nil {
		t.Fatal("fleet scope has no cumulative block")
	}

	// The default slow window (30m) covers the whole 4-minute run, so its
	// windowed attainment is the stream attainment; the ledger judged the
	// same tokens once per request at Finalize.
	scopes := append([]slomon.ScopeSnapshot{snap.Fleet}, snap.Models...)
	for _, sc := range scopes {
		label := sc.Model
		if label == "" {
			label = "fleet"
		}
		if sc.Cumulative == nil {
			t.Errorf("%s: no cumulative block", label)
			continue
		}
		var slow *slomon.WindowStats
		for i := range sc.Windowed {
			if sc.Windowed[i].Window == "slow" {
				slow = &sc.Windowed[i]
			}
		}
		if slow == nil {
			t.Fatalf("%s: no slow window", label)
		}
		if got, want := slow.Met+slow.Missed, sc.TokensMet+sc.TokensMissed; got != want {
			t.Errorf("%s: slow window holds %d tokens, stream saw %d — run escaped the window", label, got, want)
		}
		if diff := math.Abs(slow.Attainment - sc.Cumulative.Attainment); diff > 0.01 {
			t.Errorf("%s: windowed attainment %.4f vs cumulative %.4f (diff %.4f > 0.01)",
				label, slow.Attainment, sc.Cumulative.Attainment, diff)
		}
	}

	// The fleet cumulative block is a view of the ledger the report's
	// attainment comes from, so the two are equal, not merely close.
	if rep.Attainment != snap.Fleet.Cumulative.Attainment {
		t.Errorf("report attainment %v vs snapshot cumulative %v", rep.Attainment, snap.Fleet.Cumulative.Attainment)
	}
}

// TestSLOMonitorAttributesEveryMiss overloads a small pool so switches stall
// requests past their deadlines, then checks the attribution contract: every
// missed token carries exactly one cause, the per-scope cause counters sum to
// the missed-token count, and the misses do not all fall through to unknown.
func TestSLOMonitorAttributesEveryMiss(t *testing.T) {
	sys, err := aegaeon.New(aegaeon.Config{
		PrefillGPUs: 1, DecodeGPUs: 2, NumModels: 6, SLOMonitor: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	trace := sys.GenerateTrace(aegaeon.TraceSpec{RatePerModel: 0.3, Horizon: 2 * time.Minute})
	rep, err := sys.Serve(trace)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Switches == 0 {
		t.Fatal("6 models on 1+2 GPUs produced no switches")
	}
	snap := rep.SLO
	if snap == nil {
		t.Fatal("no SLO snapshot in report")
	}
	if snap.Fleet.TokensMissed == 0 {
		t.Skip("overloaded run produced no misses; attribution not exercised")
	}
	// Validate enforces sum(causes) == TokensMissed for every scope.
	if err := slomon.Validate(snap); err != nil {
		t.Fatalf("attribution invariant broken: %v", err)
	}
	var attributed, unknown uint64
	for cause, n := range snap.Fleet.Causes {
		if cause == "unknown" {
			unknown += n
		} else {
			attributed += n
		}
	}
	if attributed == 0 {
		t.Errorf("all %d fleet misses classified unknown; span join found nothing", unknown)
	}
	// Model scopes partition the fleet's misses.
	var modelMissed uint64
	for _, sc := range snap.Models {
		modelMissed += sc.TokensMissed
	}
	if modelMissed != snap.Fleet.TokensMissed {
		t.Errorf("per-model misses sum to %d, fleet saw %d", modelMissed, snap.Fleet.TokensMissed)
	}
}
