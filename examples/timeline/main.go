// Timeline: reproduces the spirit of Fig. 2 — the difference between
// request-level and token-level auto-scaling, shown as an actual event
// timeline from the scheduler's trace. Three models share one decoding GPU;
// under token-level scaling their turns interleave (every model makes
// progress every round), where request-level scaling would serialize whole
// requests.
package main

import (
	"fmt"
	"log"
	"time"

	"aegaeon/internal/core"
	"aegaeon/internal/engine"
	"aegaeon/internal/latency"
	"aegaeon/internal/model"
	"aegaeon/internal/obs"
	"aegaeon/internal/sim"
	"aegaeon/internal/slo"
	"aegaeon/internal/workload"
)

func main() {
	models := model.SmallMix(3)
	col := obs.New(obs.Options{})

	se := sim.NewEngine(1)
	sys := core.NewSystem(se, core.Config{
		Prof:       latency.H800(),
		Opts:       engine.AllOptimizations(),
		NumPrefill: 1,
		NumDecode:  1, // a single decoding GPU shared by all three models
		Models:     models,
		SLO:        slo.Default(),
		Obs:        col,
	})

	// One long request per model, arriving a second apart — the Fig. 2
	// scenario: A, then B, then C, all wanting the same GPU.
	var reqs []workload.Request
	for i, m := range models {
		reqs = append(reqs, workload.Request{
			ID:           fmt.Sprintf("req-%c", 'A'+i),
			Model:        m.Name,
			Arrival:      time.Duration(i) * time.Second,
			InputTokens:  512,
			OutputTokens: 400,
		})
	}
	if err := sys.Submit(reqs); err != nil {
		log.Fatal(err)
	}
	se.Run()
	sys.Finalize(se.Now())

	fmt.Println("token-level auto-scaling timeline (decode GPU, first 40 turn events):")
	n := 0
	for _, e := range col.Events() {
		switch e.Kind {
		case obs.KindTurnStart, obs.KindSwitchStart, obs.KindSwitchDone:
			fmt.Printf("  %s\n", e)
			n++
		}
		if n >= 40 {
			break
		}
	}
	fmt.Printf("\n%s\n\n", col.EventSummary())

	fmt.Println("per-request first and last token (all three interleave on one GPU):")
	for _, r := range sys.Requests() {
		fmt.Printf("  %s (%s): TTFT %7v, last token at %7v, %d tokens\n",
			r.ID, r.Model.Name,
			(r.TokenTimes[0] - r.Arrival).Round(time.Millisecond),
			(r.TokenTimes[len(r.TokenTimes)-1] - r.Arrival).Round(time.Millisecond),
			len(r.TokenTimes))
	}
	fmt.Printf("\ntoken SLO attainment: %.1f%% — request-level scaling would serve\n", 100*sys.Attainment())
	fmt.Println("B and C only after A's ~400-token decode finished (Fig. 2a's HOL blocking)")
}
