package experiments

import (
	"math/rand"
	"time"

	"aegaeon/internal/baselines"
	"aegaeon/internal/sim"
	"aegaeon/internal/workload"
)

// Figure6 compares the exemplar token-level schedules of Fig. 6:
// prefill-first and decoding-first unified scheduling versus Aegaeon's
// disaggregated scheduling, on a two-GPU slice serving three models with
// bursty arrivals and long inputs (the conditions under which each unified
// heuristic fails). Reported: token attainment, TTFT attainment, mean TTFT.
func Figure6(o Options) Table {
	models := marketModels(3)
	rng := rand.New(rand.NewSource(o.Seed))
	// Long inputs (ix2) expose decoding-first TTFT damage; the elevated rate
	// provides the burstiness that hurts prefill-first TBT.
	trace := workload.PoissonTrace(rng, modelNames(models), 0.2,
		o.Horizon, workload.ShareGPTIx2())

	t := Table{
		ID:     "Figure 6",
		Title:  "Unified vs disaggregated token-level scheduling (3 models, 2 GPUs)",
		Header: []string{"policy", "token attainment", "TTFT attainment", "mean TTFT"},
	}

	for _, mode := range []baselines.UnifiedMode{baselines.PrefillFirst, baselines.DecodeFirst} {
		se := sim.NewEngine(o.Seed)
		sys := baselines.NewUnified(se, baselines.UnifiedConfig{
			Prof: o.Prof, TP: o.TP, GPUs: 2, Models: models, SLO: o.SLO, Mode: mode,
		})
		mustSubmit(sys, trace)
		se.Run()
		sys.Finalize(se.Now())
		t.Rows = append(t.Rows, []string{
			mode.String(), fmtPct(sys.Attainment()),
			fmtPct(sys.Tracker().TTFTAttainment()),
			sys.Tracker().MeanTTFT().Round(time.Millisecond).String(),
		})
	}

	oo := o
	oo.PrefillGPUs, oo.DecodeGPUs = 1, 1
	aeg := runAegaeon(oo, models, trace)
	t.Rows = append(t.Rows, []string{
		"disaggregated (Aegaeon)", fmtPct(aeg.Attainment()),
		fmtPct(aeg.Ledger().Fleet().TTFTAttainment()),
		aeg.Ledger().Fleet().MeanTTFT().Round(time.Millisecond).String(),
	})
	t.Notes = "paper: prefill-first harms TBT under bursts, decoding-first harms TTFT under long inputs; disaggregation balances both"
	return t
}
