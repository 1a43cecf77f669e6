package main

import (
	"fmt"
	"strconv"
	"strings"

	"aegaeon"
	"aegaeon/internal/workload"
)

// parsePriorityMix parses "high,low" fractions (e.g. "0.2,0.3"). Empty means
// an all-normal trace.
func parsePriorityMix(s string) (high, low float64, err error) {
	if s == "" {
		return 0, 0, nil
	}
	parts := strings.Split(s, ",")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf(`-priority-mix wants "high,low" fractions, got %q`, s)
	}
	if high, err = strconv.ParseFloat(strings.TrimSpace(parts[0]), 64); err != nil {
		return 0, 0, fmt.Errorf("-priority-mix high fraction: %v", err)
	}
	if low, err = strconv.ParseFloat(strings.TrimSpace(parts[1]), 64); err != nil {
		return 0, 0, fmt.Errorf("-priority-mix low fraction: %v", err)
	}
	if high < 0 || low < 0 || high+low > 1 {
		return 0, 0, fmt.Errorf("-priority-mix fractions must be non-negative and sum to <= 1, got %v+%v", high, low)
	}
	return high, low, nil
}

const (
	overloadFactor = 3.0 // load multiplier of the overloaded arms
	overloadFloor  = 0.9 // high-priority attainment the controlled arm must hold
)

// overloadRow is one arm's row of BENCH_overload.json.
type overloadRow struct {
	Overload          bool               `json:"overload"`
	LoadFactor        float64            `json:"load_factor"`
	Requests          int                `json:"requests"`
	Completed         int                `json:"completed"`
	Attainment        float64            `json:"attainment"`
	HiPriAttainment   float64            `json:"hi_pri_attainment"`
	ByPriority        map[string]float64 `json:"attainment_by_priority,omitempty"`
	ThroughputTokPerS float64            `json:"throughput_tok_per_s"`
	GeneratedTokens   int                `json:"generated_tokens"`
	OverloadLevel     string             `json:"overload_level,omitempty"`
	Transitions       int                `json:"overload_transitions,omitempty"`
	Sheds             map[string]int     `json:"sheds,omitempty"`
}

// overloadBench declares the three-arm overload bench (BENCH_overload.json):
//
//   - capacity: the configured load at 1x, no overload control — the
//     throughput and attainment baseline the fleet can actually sustain.
//   - uncontrolled: the same fleet at 3x load, still no control — every tier
//     degrades together.
//   - controlled: the identical 3x trace with overload control on —
//     high-priority attainment must hold while low tiers absorb the sheds,
//     and goodput must stay within 10% of capacity.
//
// The two overloaded arms serve byte-identical traces (same requests, same
// priorities), so any difference between them is the control plane. Under
// -assert, controlled high-priority attainment must reach the floor while
// uncontrolled stays below it.
func overloadBench(e benchEnv, highFrac, lowFrac float64) bench[overloadRow] {
	if highFrac == 0 && lowFrac == 0 {
		// The bench is about tier differentiation; default to the canonical
		// 20/30 mix rather than silently measuring an all-normal trace.
		highFrac, lowFrac = 0.2, 0.3
	}
	names := modelNames(aegaeon.MarketModels(e.base.NumModels))
	loads := map[string]float64{"1x": 1, "3x": overloadFactor}
	traces := map[string][]aegaeon.Request{}
	for name, factor := range loads {
		rng := e.traceRand()
		traces[name] = workload.PoissonTrace(rng, names, e.rps*factor, e.horizon, e.dataset)
		workload.AssignPriorities(rng, traces[name], highFrac, lowFrac)
	}

	row := func(a arm, cfg aegaeon.Config, rep aegaeon.Report) (overloadRow, string) {
		r := overloadRow{
			Overload:        cfg.Overload,
			LoadFactor:      loads[a.trace],
			Requests:        rep.Requests,
			Completed:       rep.Completed,
			Attainment:      rep.Attainment,
			GeneratedTokens: rep.GeneratedTokens,
			OverloadLevel:   rep.OverloadLevel,
			Sheds:           rep.Sheds,
			Transitions:     rep.OverloadTransitions,
			ByPriority:      rep.AttainmentByPriority,
		}
		if e.horizon > 0 {
			r.ThroughputTokPerS = float64(rep.GeneratedTokens) / e.horizon.Seconds()
		}
		if att, ok := rep.AttainmentByPriority["high"]; ok {
			r.HiPriAttainment = att
		} else {
			// Without overload control there are no per-tier trackers; the
			// fleet number stands in for every tier, including high.
			r.HiPriAttainment = rep.Attainment
		}
		line := fmt.Sprintf("%-12s  %5.1fx load  %5d req  attainment %6.2f%%  hi-pri %6.2f%%  %8.1f tok/s",
			a.name, r.LoadFactor, r.Requests, 100*r.Attainment, 100*r.HiPriAttainment, r.ThroughputTokPerS)
		if cfg.Overload {
			total := 0
			for _, n := range r.Sheds {
				total += n
			}
			line += fmt.Sprintf("  level %s, %d sheds", r.OverloadLevel, total)
		}
		return r, line
	}

	return bench[overloadRow]{
		env:   e,
		name:  "overload",
		floor: overloadFloor,
		header: fmt.Sprintf("overload bench    %d models on %d+%d %s, %.2f req/s/model base, %v horizon, %.0f/%.0f%% high/low tiers\n",
			e.base.NumModels, e.base.PrefillGPUs, e.base.DecodeGPUs, e.base.GPU, e.rps, e.horizon, 100*highFrac, 100*lowFrac),
		traces: traces,
		arms: []arm{
			{name: "capacity", trace: "1x"},
			{name: "uncontrolled", trace: "3x"},
			{name: "controlled", trace: "3x", apply: func(c *aegaeon.Config) { c.Overload = true }},
		},
		row: row,
		fields: func(rows []overloadRow) map[string]any {
			return map[string]any{
				"rps_per_model": e.rps,
				"factor":        overloadFactor,
				"high_frac":     highFrac,
				"low_frac":      lowFrac,
				"capacity":      rows[0],
				"uncontrolled":  rows[1],
				"controlled":    rows[2],
			}
		},
		check: func(rows []overloadRow) ([]floor, string) {
			capacity, uncontrolled, controlled := rows[0], rows[1], rows[2]
			floors := []floor{
				floorf(controlled.HiPriAttainment >= overloadFloor,
					"controlled hi-pri attainment %.2f%% below floor %.2f%%",
					100*controlled.HiPriAttainment, 100*overloadFloor),
				floorf(uncontrolled.HiPriAttainment < overloadFloor,
					"uncontrolled hi-pri attainment %.2f%% already above floor %.2f%% — the overload is not overloading",
					100*uncontrolled.HiPriAttainment, 100*overloadFloor),
				floorf(controlled.ThroughputTokPerS >= 0.9*capacity.ThroughputTokPerS,
					"controlled throughput %.1f tok/s below 90%% of capacity %.1f tok/s",
					controlled.ThroughputTokPerS, capacity.ThroughputTokPerS),
			}
			return floors, fmt.Sprintf("hi-pri %.2f%% >= %.2f%% under control (vs %.2f%% uncontrolled), throughput %.1f/%.1f tok/s",
				100*controlled.HiPriAttainment, 100*overloadFloor, 100*uncontrolled.HiPriAttainment,
				controlled.ThroughputTokPerS, capacity.ThroughputTokPerS)
		},
	}
}
