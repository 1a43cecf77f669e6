package main

import (
	"fmt"
	"time"

	"aegaeon"
	"aegaeon/internal/workload"
)

// marketRow is one arm's row of BENCH_market.json.
type marketRow struct {
	Arm             string  `json:"arm"` // reliable | spot_naive | spot_aware
	Requests        int     `json:"requests"`
	Completed       int     `json:"completed"`
	Attainment      float64 `json:"attainment"`
	GeneratedTokens int     `json:"generated_tokens"`
	MeanTTFTMS      float64 `json:"mean_ttft_ms"`

	Preemptions        int   `json:"preemptions"`
	Revocations        int   `json:"revocations"`
	EvacuatedKVBytes   int64 `json:"evacuated_kv_bytes"`
	LostKVBytes        int64 `json:"lost_kv_bytes"`
	RehomedPrefixBytes int64 `json:"rehomed_prefix_bytes"`

	CostDollars        float64 `json:"cost_dollars"`
	DollarsPer1KTokens float64 `json:"dollars_per_1k_tokens"`
	// Classes carries the per-class unit economics ($-per-1k-tokens by
	// device class) straight from the market snapshot.
	Classes []marketRowClass `json:"classes"`
}

type marketRowClass struct {
	Class              string  `json:"class"`
	Devices            int     `json:"devices"`
	CostDollars        float64 `json:"cost_dollars"`
	Tokens             uint64  `json:"tokens"`
	DollarsPer1KTokens float64 `json:"dollars_per_1k_tokens"`
	Preemptions        int     `json:"preemptions"`
}

// marketBench declares the spot-market bench (BENCH_market.json): one
// byte-identical trace on three arms:
//
//   - reliable: a homogeneous on-demand pool — flat (expensive) rates, no
//     reclaims. The dependable baseline spot economics are measured against.
//   - spot_naive: heterogeneous spot devices with reclaim notices ignored —
//     everything GPU-resident at each revocation is lost to the crash path.
//   - spot_aware: the same devices, prices, and reclaim schedule, with
//     preemption-aware placement and KV evacuation ahead of each deadline.
//
// Reclaims land mid-run on decode instances (where KV accumulates), at the
// same virtual instants in both spot arms. Under -assert spot_aware must lose
// at least 50% fewer KV bytes than spot_naive, must not regress attainment
// against spot_naive, and must not cost more per 1k tokens.
func marketBench(e benchEnv, classes string) bench[marketRow] {
	if classes == "" {
		classes = "H800,A10"
	}
	// SmallModels fits every built-in class, including 24 GB devices, so the
	// heterogeneous arms never outgrow their smallest card.
	models := aegaeon.SmallModels(e.base.NumModels)
	trace := workload.PoissonTrace(e.traceRand(), modelNames(models), e.rps, e.horizon, e.dataset)

	// Reclaim schedule for the spot arms: two mid-run preemptions of distinct
	// decode instances with a 5s grace each, identical across arms. Decode KV
	// is what evacuation protects, so that is where the notices land: on
	// decode1, then on the last instance (decode0 when there are only two).
	// The pool needs at least two decode instances (checked at flag parsing).
	decode := e.base.DecodeGPUs
	second := decode - 1
	if second == 1 {
		second = 0
	}
	faults := fmt.Sprintf("reclaim@%ds+5s:decode1,reclaim@%ds+5s:decode%d",
		int(e.horizon.Seconds()*0.4), int(e.horizon.Seconds()*0.7), second)
	market := func(classes string, spot, naive bool) func(*aegaeon.Config) {
		return func(c *aegaeon.Config) {
			c.Models = models
			c.Market = true
			c.MarketClasses = classes
			c.MarketSpot = spot
			c.MarketNaive = naive
			if spot {
				c.Faults = faults
			}
		}
	}

	return bench[marketRow]{
		env:  e,
		name: "market",
		header: fmt.Sprintf("market bench      %d models on %d+%d (classes %s), %.2f req/s/model, %v horizon\nreclaim schedule  %s\n",
			e.base.NumModels, e.base.PrefillGPUs, decode, classes, e.rps, e.horizon, faults),
		traces: map[string][]aegaeon.Request{"": trace},
		arms: []arm{
			{name: "reliable", apply: market("H800", false, false)},
			{name: "spot_naive", apply: market(classes, true, true)},
			{name: "spot_aware", apply: market(classes, true, false)},
		},
		row: func(a arm, _ aegaeon.Config, rep aegaeon.Report) (marketRow, string) {
			r := marketRow{
				Arm:             a.name,
				Requests:        rep.Requests,
				Completed:       rep.Completed,
				Attainment:      rep.Attainment,
				GeneratedTokens: rep.GeneratedTokens,
				MeanTTFTMS:      float64(rep.MeanTTFT) / float64(time.Millisecond),
			}
			if m := rep.Market; m != nil {
				r.Preemptions = m.Stats.Preemptions
				r.Revocations = m.Stats.Revocations
				r.EvacuatedKVBytes = m.Stats.EvacuatedKVBytes
				r.LostKVBytes = m.Stats.LostKVBytes
				r.RehomedPrefixBytes = m.Stats.RehomedPrefixBytes
				for _, c := range m.Classes {
					r.Classes = append(r.Classes, marketRowClass{
						Class: c.Class, Devices: c.Devices,
						CostDollars: c.CostDollars, Tokens: c.Tokens,
						DollarsPer1KTokens: c.DollarsPer1KTokens,
						Preemptions:        c.Preemptions,
					})
				}
			}
			if rep.Fleet != nil {
				r.CostDollars = rep.Fleet.Fleet.CostDollars
				if rep.GeneratedTokens > 0 {
					r.DollarsPer1KTokens = r.CostDollars / float64(rep.GeneratedTokens) * 1000
				}
			}
			return r, fmt.Sprintf("%-10s  %5d req  attainment %6.2f%%  lost %8.1fMB  evac %8.1fMB  $%.4f  $%.4f/1k",
				a.name, r.Requests, 100*r.Attainment,
				float64(r.LostKVBytes)/(1<<20), float64(r.EvacuatedKVBytes)/(1<<20),
				r.CostDollars, r.DollarsPer1KTokens)
		},
		fields: func(rows []marketRow) map[string]any {
			return map[string]any{
				"classes":  classes,
				"rps":      e.rps,
				"reclaims": faults,
				"arms": map[string]marketRow{
					"reliable":   rows[0],
					"spot_naive": rows[1],
					"spot_aware": rows[2],
				},
			}
		},
		check: func(rows []marketRow) ([]floor, string) {
			reliable, naive, aware := rows[0], rows[1], rows[2]
			floors := []floor{
				floorf(naive.Preemptions == 2 && aware.Preemptions == 2,
					"both spot arms must see 2 preemptions (naive %d, aware %d)",
					naive.Preemptions, aware.Preemptions),
				floorf(naive.LostKVBytes > 0,
					"spot_naive lost no KV — reclaims landed on idle instances, bench proves nothing"),
				floorf(aware.EvacuatedKVBytes > 0,
					"spot_aware evacuated no KV ahead of its deadlines"),
				floorf(aware.LostKVBytes*2 <= naive.LostKVBytes,
					"spot_aware lost %d KV bytes, more than half of spot_naive's %d",
					aware.LostKVBytes, naive.LostKVBytes),
				floorf(aware.Attainment >= naive.Attainment,
					"spot_aware attainment %.2f%% regressed below spot_naive %.2f%%",
					100*aware.Attainment, 100*naive.Attainment),
				floorf(aware.DollarsPer1KTokens <= naive.DollarsPer1KTokens,
					"spot_aware $%.4f/1k costs more than spot_naive $%.4f/1k",
					aware.DollarsPer1KTokens, naive.DollarsPer1KTokens),
				floorf(len(aware.Classes) > 0 && len(naive.Classes) > 0,
					"per-class economics missing from the spot arms"),
			}
			for _, c := range aware.Classes {
				floors = append(floors, floorf(c.DollarsPer1KTokens > 0,
					"spot_aware class %s has no $-per-1k-tokens (tokens %d, cost $%.4f)",
					c.Class, c.Tokens, c.CostDollars))
			}
			floors = append(floors, floorf(reliable.Preemptions == 0 && reliable.LostKVBytes == 0,
				"reliable arm saw preemptions"))
			return floors, fmt.Sprintf("spot_aware lost %.1fMB vs spot_naive %.1fMB (>=50%% fewer), attainment %.2f%% >= %.2f%%, $%.4f/1k <= $%.4f/1k",
				float64(aware.LostKVBytes)/(1<<20), float64(naive.LostKVBytes)/(1<<20),
				100*aware.Attainment, 100*naive.Attainment,
				aware.DollarsPer1KTokens, naive.DollarsPer1KTokens)
		},
	}
}
