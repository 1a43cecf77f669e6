package main

import (
	"fmt"
	"time"

	"aegaeon"
	"aegaeon/internal/workload"
)

// prefixFloor is the share of sharedprompt prefill tokens the cache_routing
// arm must save.
const prefixFloor = 0.3

// prefixRow is one (workload, arm) row of BENCH_prefix.json.
type prefixRow struct {
	Arm         string  `json:"arm"` // nocache | cache | cache_routing
	Requests    int     `json:"requests"`
	Completed   int     `json:"completed"`
	Attainment  float64 `json:"attainment"`
	MeanTTFTMS  float64 `json:"mean_ttft_ms"`
	TTFTP99MS   float64 `json:"ttft_p99_ms"`
	HitRatio    float64 `json:"hit_ratio,omitempty"`
	SavedRatio  float64 `json:"saved_ratio,omitempty"`
	TokensSaved uint64  `json:"tokens_saved,omitempty"`
	Promotions  uint64  `json:"promotions,omitempty"`
}

// prefixBench declares the prefix bench (BENCH_prefix.json): each
// prefix-heavy workload (multi-turn chat, agentic tool loops,
// shared-system-prompt tenants) on three arms over byte-identical traces:
//
//   - nocache: the prefix cache off — every turn recomputes its full context.
//   - cache: the global prefix cache on, load-balanced routing unchanged.
//   - cache_routing: the cache plus cache-aware prefill routing, steering
//     turns toward the instance holding their chain's device copies.
//
// Under -assert the cache_routing arm must save at least the floor fraction
// of prefill tokens on the sharedprompt trace, strictly dominate nocache on
// tokens saved and mean TTFT on every workload, and not regress attainment.
func prefixBench(e benchEnv) bench[prefixRow] {
	names := modelNames(aegaeon.MarketModels(e.base.NumModels))
	// Rates are per model: sessions (multiturn), tasks (agentic), requests
	// (sharedprompt).
	workloads := []string{"multiturn", "agentic", "sharedprompt"}
	traces := map[string][]aegaeon.Request{
		"multiturn": workload.MultiTurnTrace(e.traceRand(), names, e.rps, e.horizon, e.dataset,
			workload.MultiTurnConfig{SystemPromptTokens: 128}),
		"agentic": workload.AgenticTrace(e.traceRand(), names, e.rps*0.6, e.horizon, e.dataset,
			workload.AgenticConfig{SystemPromptTokens: 512}),
		"sharedprompt": workload.SharedPrefixTrace(e.traceRand(), names, e.rps*2, e.horizon, 2048, e.dataset),
	}
	var arms []arm
	for _, w := range workloads {
		arms = append(arms,
			arm{name: "nocache", trace: w},
			arm{name: "cache", trace: w, apply: func(c *aegaeon.Config) { c.PrefixCache = true }},
			arm{name: "cache_routing", trace: w, apply: func(c *aegaeon.Config) {
				c.PrefixCache = true
				c.PrefixRouting = true
			}},
		)
	}
	// byWorkload groups the rows as the JSON nests them: workload -> arm.
	byWorkload := func(rows []prefixRow) map[string]map[string]prefixRow {
		out := map[string]map[string]prefixRow{}
		for i, a := range arms {
			if out[a.trace] == nil {
				out[a.trace] = map[string]prefixRow{}
			}
			out[a.trace][a.name] = rows[i]
		}
		return out
	}

	return bench[prefixRow]{
		env:   e,
		name:  "prefix",
		floor: prefixFloor,
		header: fmt.Sprintf("prefix bench      %d models on %d+%d %s, %.3f sess/s/model, %v horizon\n",
			e.base.NumModels, e.base.PrefillGPUs, e.base.DecodeGPUs, e.base.GPU, e.rps, e.horizon),
		traces: traces,
		arms:   arms,
		row: func(a arm, _ aegaeon.Config, rep aegaeon.Report) (prefixRow, string) {
			r := prefixRow{
				Arm:        a.name,
				Requests:   rep.Requests,
				Completed:  rep.Completed,
				Attainment: rep.Attainment,
				MeanTTFTMS: float64(rep.MeanTTFT) / float64(time.Millisecond),
				TTFTP99MS:  float64(rep.TTFTP99) / float64(time.Millisecond),
			}
			if rep.Prefix != nil {
				r.HitRatio = rep.Prefix.HitRatio()
				r.SavedRatio = rep.Prefix.SavedRatio()
				r.TokensSaved = rep.Prefix.TokensSaved
				r.Promotions = rep.Prefix.Promotions
			}
			return r, fmt.Sprintf("%-12s  %-13s  %5d req  attainment %6.2f%%  mean TTFT %8.1fms  hit %5.1f%%  saved %5.1f%%",
				a.trace, a.name, r.Requests, 100*r.Attainment, r.MeanTTFTMS,
				100*r.HitRatio, 100*r.SavedRatio)
		},
		fields: func(rows []prefixRow) map[string]any {
			return map[string]any{
				"rate":      e.rps,
				"workloads": byWorkload(rows),
			}
		},
		check: func(rows []prefixRow) ([]floor, string) {
			perWorkload := byWorkload(rows)
			var floors []floor
			for _, w := range workloads {
				no, cr := perWorkload[w]["nocache"], perWorkload[w]["cache_routing"]
				floors = append(floors,
					floorf(cr.TokensSaved > 0,
						"%s: cache_routing saved no prefill tokens", w),
					floorf(cr.MeanTTFTMS < no.MeanTTFTMS,
						"%s: cache_routing mean TTFT %.1fms not below nocache %.1fms",
						w, cr.MeanTTFTMS, no.MeanTTFTMS),
					floorf(cr.Attainment >= no.Attainment,
						"%s: cache_routing attainment %.2f%% regressed below nocache %.2f%%",
						w, 100*cr.Attainment, 100*no.Attainment))
			}
			sp := perWorkload["sharedprompt"]["cache_routing"]
			floors = append(floors, floorf(sp.SavedRatio >= prefixFloor,
				"sharedprompt cache_routing saved %.1f%% of prefill tokens, floor is %.1f%%",
				100*sp.SavedRatio, 100*prefixFloor))
			return floors, fmt.Sprintf("sharedprompt saved %.1f%% >= %.1f%%, cache_routing dominates nocache on TTFT and savings on all %d workloads",
				100*sp.SavedRatio, 100*prefixFloor, len(workloads))
		},
	}
}
