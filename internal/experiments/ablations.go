package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"aegaeon/internal/core"
	"aegaeon/internal/engine"
	"aegaeon/internal/model"
	"aegaeon/internal/workload"
)

// ablationTrace is the shared medium-pressure workload ablations run on:
// 48 models at RPS 0.1 on the 16-GPU testbed — past ServerlessLLM's comfort
// zone but within Aegaeon's.
func ablationTrace(o Options) ([]*model.Model, []workload.Request) {
	ms := marketModels(48)
	rng := rand.New(rand.NewSource(o.Seed))
	tr := workload.PoissonTrace(rng, modelNames(ms), 0.1, o.Horizon, workload.ShareGPT())
	return ms, tr
}

// AblationOptimizations measures the §5 optimization ladder end to end:
// attainment with each optimization removed from the full stack.
func AblationOptimizations(o Options) Table {
	models, trace := ablationTrace(o)
	cases := []struct {
		name string
		mut  func(*core.Config)
	}{
		{"full (Aegaeon)", func(c *core.Config) {}},
		{"- prefetching", func(c *core.Config) { c.Opts.Prefetch = false }},
		{"- fine-grained KV sync", func(c *core.Config) { c.Opts.FineGrainedSync = false }},
		{"- explicit memory mgmt", func(c *core.Config) { c.Opts.ExplicitMemory = false }},
		{"- component reuse (T0)", func(c *core.Config) {
			c.Opts = engine.Options{}
		}},
	}
	t := Table{
		ID:     "Ablation: auto-scaling optimizations",
		Title:  "SLO attainment with optimizations removed (48 models, RPS 0.1)",
		Header: []string{"configuration", "attainment"},
	}
	for _, cse := range cases {
		sys := runAegaeon(o, models, trace, cse.mut)
		t.Rows = append(t.Rows, []string{cse.name, fmtPct(sys.Attainment())})
	}
	return t
}

// AblationGrouping sweeps MAX_GPSIZE (Algorithm 1): 1 disables grouping.
func AblationGrouping(o Options) Table {
	models, trace := ablationTrace(o)
	t := Table{
		ID:     "Ablation: MAX_GPSIZE",
		Title:  "Prefill grouping bound sensitivity (§4.2: grid-searched to 8)",
		Header: []string{"MAX_GPSIZE", "attainment", "mean TTFT"},
	}
	for _, g := range []int{1, 2, 4, 8, 16} {
		g := g
		sys := runAegaeon(o, models, trace, func(c *core.Config) { c.MaxGroupSize = g })
		t.Rows = append(t.Rows, []string{
			itoa(g), fmtPct(sys.Attainment()),
			sys.Ledger().Fleet().MeanTTFT().Round(time.Millisecond).String(),
		})
	}
	t.Notes = "paper: larger values behave identically (groups seldom grow past 8); small values cause excessive scaling"
	return t
}

// AblationQMax sweeps the QMAX quota bound (§4.3: empirically 4 s, robust
// to alternatives).
func AblationQMax(o Options) Table {
	models, trace := ablationTrace(o)
	t := Table{
		ID:     "Ablation: QMAX",
		Title:  "Maximum quota sensitivity",
		Header: []string{"QMAX", "attainment"},
	}
	for _, q := range []time.Duration{time.Second, 2 * time.Second, 4 * time.Second, 8 * time.Second} {
		q := q
		sys := runAegaeon(o, models, trace, func(c *core.Config) { c.QMax = q })
		t.Rows = append(t.Rows, []string{q.String(), fmtPct(sys.Attainment())})
	}
	t.Notes = "paper: Aegaeon is robust under alternative QMAX settings"
	return t
}

// AblationQuotaFormula compares the Eq. 2 weighted quotas against flat
// QMAX turns.
func AblationQuotaFormula(o Options) Table {
	models, trace := ablationTrace(o)
	t := Table{
		ID:     "Ablation: quota formula",
		Title:  "Eq. 2 weighted quotas vs fixed QMAX turns",
		Header: []string{"policy", "attainment"},
	}
	eq2 := runAegaeon(o, models, trace)
	flat := runAegaeon(o, models, trace, func(c *core.Config) { c.FixedQuota = true })
	t.Rows = append(t.Rows,
		[]string{"Eq. 2 (Aegaeon)", fmtPct(eq2.Attainment())},
		[]string{"fixed QMAX", fmtPct(flat.Attainment())},
	)
	return t
}

// AblationPartition sweeps the prefill/decode GPU split (the paper fixes
// 6 + 10 for 16 GPUs).
func AblationPartition(o Options) Table {
	models, trace := ablationTrace(o)
	t := Table{
		ID:     "Ablation: pool partition",
		Title:  "Prefill/decoding instance split over 16 GPUs",
		Header: []string{"prefill+decode", "attainment"},
	}
	for _, split := range [][2]int{{2, 14}, {4, 12}, {6, 10}, {8, 8}, {10, 6}} {
		oo := o
		oo.PrefillGPUs, oo.DecodeGPUs = split[0], split[1]
		sys := runAegaeon(oo, models, trace)
		t.Rows = append(t.Rows, []string{
			itoa(split[0]) + "+" + itoa(split[1]), fmtPct(sys.Attainment()),
		})
	}
	return t
}

// AblationColocation measures the §8 extension: dynamic colocation versus
// swap-based serving. Colocation keeps several models' weights resident,
// turning decode-side switches into ~1 ms activations and (with lazy KV
// eviction) removing most swap traffic; the scheduling arithmetic of
// interleaving k models on one GPU is unchanged, so token attainment ties
// while the data plane quiets down.
func AblationColocation(o Options) Table {
	t := Table{
		ID:     "Ablation: dynamic colocation (§8)",
		Title:  "Colocation vs swap-based Aegaeon (40 x 6-7B models, RPS 0.1)",
		Header: []string{"config", "attainment", "p50 switch", "p99 switch", "PCIe KV traffic"},
	}
	models := model.SmallMix(40)
	rng := rand.New(rand.NewSource(o.Seed))
	trace := workload.PoissonTrace(rng, modelNames(models), 0.1, o.Horizon, workload.ShareGPT())

	report := func(name string, sys *core.System) {
		cdf := sys.SwitchLatencyCDF()
		var bytes int64
		for _, e := range sys.Engines() {
			st := e.KV().Stats()
			bytes += st.BytesIn + st.BytesOut
		}
		t.Rows = append(t.Rows, []string{
			name, fmtPct(sys.Attainment()),
			fmt.Sprintf("%.0fms", 1000*cdf.Quantile(0.5)),
			fmt.Sprintf("%.0fms", 1000*cdf.Quantile(0.99)),
			fmt.Sprintf("%.1f GB", float64(bytes)/1e9),
		})
	}
	report("swap-based", runAegaeon(o, models, trace))
	report("colocated", runAegaeon(o, models, trace, func(c *core.Config) { c.Opts.Colocate = true }))
	t.Notes = "§8's suggested extension, implemented: residency turns switches into ~1ms activations, " +
		"but prefetching already hides most switch cost, and weights residency competes with KV capacity — " +
		"a useful negative result for this workload mix"
	return t
}
