package main

import (
	"fmt"
	"os"
	"time"

	"aegaeon/internal/chaos"
)

// chaosRunJSON is one chaos run in the -chaos-json artifact.
type chaosRunJSON struct {
	Seed          int64    `json:"seed"`
	Spec          string   `json:"spec"`
	Requests      int      `json:"requests"`
	Completed     int      `json:"completed"`
	Failed        int      `json:"failed"`
	Injected      int      `json:"injected"`
	Failovers     int      `json:"failovers"`
	Attainment    float64  `json:"attainment"`
	LeaderChanges int      `json:"leader_changes"`
	Term          uint64   `json:"term"`
	CommitIndex   uint64   `json:"commit_index"`
	StoreOpsAcked int      `json:"store_ops_acked"`
	OpP50Ms       float64  `json:"op_p50_ms"`
	OpP99Ms       float64  `json:"op_p99_ms"`
	UnavailWins   int      `json:"unavail_windows"`
	UnavailS      float64  `json:"unavail_total_s"`
	Violations    []string `json:"violations"`
}

// chaosBenchJSON is the BENCH_controlplane.json artifact: every run plus the
// sweep rollup, asserted violation-free by CI.
type chaosBenchJSON struct {
	SchemaVersion int            `json:"schema_version"`
	StoreReplicas int            `json:"store_replicas"`
	HorizonS      float64        `json:"horizon_s"`
	Runs          []chaosRunJSON `json:"runs"`
	TotalRuns     int            `json:"total_runs"`
	TotalViolns   int            `json:"total_violations"`
	TotalFailover int            `json:"total_failovers"`
	WorstOpP99Ms  float64        `json:"worst_op_p99_ms"`
}

type chaosOpts struct {
	seed     int64
	horizon  time.Duration
	spec     string
	replicas int
	sweep    int
	out      string
}

// runChaos executes -chaos mode: one seeded chaos run (explicit -faults spec
// or a random schedule), or a -chaos-sweep of consecutive seeds, printing a
// per-run summary and writing the -chaos-json artifact. Exits non-zero if
// any run breaks an invariant — the recovery audit and, with -store-replicas
// > 1, the control-plane linearizability audit.
func runChaos(o chaosOpts) {
	bench := chaosBenchJSON{
		SchemaVersion: 1,
		StoreReplicas: o.replicas,
		HorizonS:      o.horizon.Seconds(),
	}
	runs := o.sweep
	if runs <= 0 {
		runs = 1
	}
	for i := 0; i < runs; i++ {
		seed := o.seed + int64(i)
		spec := o.spec
		if o.sweep > 0 {
			spec = "" // sweep runs draw random schedules per seed
		}
		res, err := chaos.Run(chaos.Config{
			Seed:          seed,
			Horizon:       o.horizon,
			Spec:          spec,
			StoreReplicas: o.replicas,
			RandomFaults:  5,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "chaos seed %d: %v\n", seed, err)
			os.Exit(1)
		}
		run := chaosRunJSON{
			Seed:       seed,
			Spec:       res.Spec,
			Requests:   res.Requests,
			Completed:  res.Completed,
			Failed:     res.Failed,
			Injected:   res.Injected,
			Failovers:  res.Failovers,
			Attainment: res.Attainment,
			Violations: res.Violations,
		}
		if run.Violations == nil {
			run.Violations = []string{}
		}
		if res.Store != nil {
			run.LeaderChanges = res.Store.LeaderChanges
			run.Term = res.Store.Term
			run.CommitIndex = res.Store.CommitIndex
			run.StoreOpsAcked = res.StoreOpsAcked
			run.OpP50Ms = float64(res.StoreOpP50) / float64(time.Millisecond)
			run.OpP99Ms = float64(res.StoreOpP99) / float64(time.Millisecond)
			run.UnavailWins = res.UnavailWindows
			run.UnavailS = res.UnavailTotal.Seconds()
		}
		bench.Runs = append(bench.Runs, run)
		bench.TotalRuns++
		bench.TotalViolns += len(res.Violations)
		bench.TotalFailover += res.Failovers
		if run.OpP99Ms > bench.WorstOpP99Ms {
			bench.WorstOpP99Ms = run.OpP99Ms
		}

		fmt.Printf("chaos seed %-4d   %d/%d completed, %d failed, %d faults, %d failovers\n",
			seed, res.Completed, res.Requests, res.Failed, res.Injected, res.Failovers)
		fmt.Printf("chaos schedule    %s\n", res.Spec)
		if res.Store != nil {
			fmt.Printf("control plane     %d replicas, leader %s, term %d, %d leader changes, commit %d\n",
				len(res.Store.Replicas), res.Store.Leader, res.Store.Term,
				res.Store.LeaderChanges, res.Store.CommitIndex)
			fmt.Printf("store ops         %d acked (p50 %v, p99 %v), unavailability %d windows / %v\n",
				res.StoreOpsAcked, res.StoreOpP50.Round(time.Microsecond),
				res.StoreOpP99.Round(time.Microsecond), res.UnavailWindows,
				res.UnavailTotal.Round(time.Millisecond))
		}
		for _, v := range res.Violations {
			fmt.Fprintf(os.Stderr, "chaos VIOLATION   seed %d: %s\n", seed, v)
		}
	}

	if o.out != "" {
		writeJSON(o.out, bench)
		fmt.Printf("chaos bench       %s (schema v%d, %d runs)\n", o.out, bench.SchemaVersion, bench.TotalRuns)
	}
	if bench.TotalViolns > 0 {
		fmt.Fprintf(os.Stderr, "chaos: %d invariant violations across %d runs\n", bench.TotalViolns, bench.TotalRuns)
		os.Exit(1)
	}
	fmt.Printf("chaos invariants  clean across %d run(s)\n", bench.TotalRuns)
}
