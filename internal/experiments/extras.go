package experiments

import (
	"math/rand"
	"time"

	"aegaeon/internal/latency"
	"aegaeon/internal/workload"
)

// ExtraGPUScaling answers the OPEX question behind the paper's deployment
// result from the other direction: for a fixed 40-model market at RPS 0.1,
// how few GPUs can each system run on while keeping ≥90% SLO attainment?
func ExtraGPUScaling(o Options) Table {
	models := marketModels(40)
	rng := rand.New(rand.NewSource(o.Seed))
	trace := workload.PoissonTrace(rng, modelNames(models), 0.1, o.Horizon, workload.ShareGPT())
	t := Table{
		ID:     "Extra: GPU scaling",
		Title:  "SLO attainment vs pool size (40 models, RPS 0.1, ShareGPT)",
		Header: []string{"GPUs (prefill+decode)", sysAegaeon, sysSLLM, sysMux},
	}
	for _, split := range [][2]int{{2, 4}, {3, 5}, {3, 7}, {4, 8}, {6, 10}, {8, 12}} {
		oo := o
		oo.PrefillGPUs, oo.DecodeGPUs = split[0], split[1]
		oo.TotalGPUs = split[0] + split[1]
		aeg := runAegaeon(oo, models, trace).Attainment()
		sllm := runSLLM(oo, models, trace, false).Attainment()
		mux := runMux(oo, models, trace).Attainment()
		t.Rows = append(t.Rows, []string{
			itoa(split[0]) + "+" + itoa(split[1]), fmtPct(aeg), fmtPct(sllm), fmtPct(mux),
		})
	}
	t.Notes = "the GPU count at which each system first clears 90% bounds its OPEX for this market"
	return t
}

// ExtraWorkloadPatterns checks robustness beyond the paper's Poisson
// synthesis: a diurnal day/night pattern (peak sized so the mean matches
// RPS 0.1) and multi-turn conversation sessions with accumulating context.
func ExtraWorkloadPatterns(o Options) Table {
	models := marketModels(40)
	t := Table{
		ID:     "Extra: workload patterns",
		Title:  "Robustness to non-Poisson arrivals (40 models, 16 GPUs)",
		Header: []string{"pattern", sysAegaeon, sysSLLM},
	}
	run := func(name string, trace []workload.Request) {
		aeg := runAegaeon(o, models, trace).Attainment()
		sllm := runSLLM(o, models, trace, false).Attainment()
		t.Rows = append(t.Rows, []string{name, fmtPct(aeg), fmtPct(sllm)})
	}

	rng := rand.New(rand.NewSource(o.Seed))
	run("Poisson (baseline)",
		workload.PoissonTrace(rng, modelNames(models), 0.1, o.Horizon, workload.ShareGPT()))

	rng = rand.New(rand.NewSource(o.Seed))
	// Peak 0.154 with trough 0.3 gives a mean of ~0.1 over a full cycle.
	run("diurnal (same mean rate)",
		workload.ModulatedPoissonTrace(rng, modelNames(models), 0.154,
			workload.Diurnal(o.Horizon, 0.3), o.Horizon, workload.ShareGPT()))

	rng = rand.New(rand.NewSource(o.Seed))
	cm := latency.NewCostModel(o.Prof, models[0], o.TP)
	run("multi-turn sessions",
		workload.SessionTrace(rng, modelNames(models), 0.035, workload.SessionConfig{
			MeanTurns: 3,
			MeanThink: 15 * time.Second,
			ServiceEstimate: func(in, out int) time.Duration {
				return cm.Prefill(in) + time.Duration(out)*60*time.Millisecond
			},
		}, o.Horizon, workload.ShareGPT()))

	t.Notes = "sessions accumulate context across turns (longer inputs, KV pressure); diurnal load tests rate tracking"
	return t
}

// ExtraPerModelAttainment breaks the headline attainment number down by
// model: the fleet number hides whether misses concentrate on a few unlucky
// models or spread evenly. It reads the per-model views of the run's SLO
// ledger.
func ExtraPerModelAttainment(o Options) Table {
	models := marketModels(8)
	rng := rand.New(rand.NewSource(o.Seed))
	trace := workload.PoissonTrace(rng, modelNames(models), 0.2, o.Horizon, workload.ShareGPT())
	ledger := runAegaeon(o, models, trace).Ledger()
	t := Table{
		ID:     "Extra: per-model attainment",
		Title:  "Token SLO attainment by model (8 models, RPS 0.2, ShareGPT)",
		Header: []string{"model", "requests", "attainment", "TTFT p99"},
	}
	for _, name := range ledger.Models() {
		trk := ledger.Model(name)
		t.Rows = append(t.Rows, []string{
			name, itoa(int(trk.Requests())), fmtPct(trk.Attainment()),
			trk.TTFTQuantile(0.99).Round(time.Millisecond).String(),
		})
	}
	fleet := ledger.Fleet()
	t.Rows = append(t.Rows, []string{"(fleet)", itoa(int(fleet.Requests())), fmtPct(fleet.Attainment()), "-"})
	t.Notes = "per-model rows are views of the same SLO ledger the live monitor's /debug/slo cumulative blocks read"
	return t
}
