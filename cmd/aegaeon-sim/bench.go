package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"aegaeon"
)

// benchEnv is what a comparative bench reads from the flags: the base config
// every arm modifies and the shape of the traces the arms serve.
type benchEnv struct {
	base        aegaeon.Config
	rps         float64
	horizon     time.Duration
	dataset     aegaeon.Dataset
	datasetName string
	assert      bool // check the bench's floors
}

// traceRand is the stream a bench draws each trace from. It is seeded apart
// from the systems, so every arm serving a trace sees the same requests.
func (e benchEnv) traceRand() *rand.Rand { return rand.New(rand.NewSource(e.base.Seed + 100)) }

func modelNames(models []*aegaeon.Model) []string {
	names := make([]string, len(models))
	for i, m := range models {
		names[i] = m.Name
	}
	return names
}

// arm is one configuration of a bench: the Config changes applied to the
// base, and the trace it serves.
type arm struct {
	name  string
	trace string
	apply func(*aegaeon.Config) // nil serves the base config
}

// floor is one named assertion over a bench's rows; msg names it when it
// fails.
type floor struct {
	ok  bool
	msg string
}

func floorf(ok bool, format string, args ...any) floor {
	return floor{ok: ok, msg: fmt.Sprintf(format, args...)}
}

// bench declares a comparative benchmark: arms served on shared,
// byte-identical traces, the JSON row and printed line of each arm, the
// bench-specific JSON fields, and the floors asserted under -assert. R is the
// JSON row type; rows are passed in arm order.
type bench[R any] struct {
	env    benchEnv
	name   string
	header string
	// floor is the headline floor the JSON reports under "floor" — 0
	// without -assert; a bench without one writes no such field.
	floor  float64
	traces map[string][]aegaeon.Request
	arms   []arm
	row    func(a arm, cfg aegaeon.Config, rep aegaeon.Report) (R, string)
	fields func(rows []R) map[string]any
	// check returns the floors and the line printed when all of them hold.
	check func(rows []R) (floors []floor, pass string)
}

// runBench serves every arm of b, prints one line per arm and writes the
// BENCH JSON to out. Under -assert it then checks b's floors, printing each
// failure, and returns the ones that failed.
func runBench[R any](b bench[R], out string) []string {
	e := b.env
	fmt.Print(b.header)
	rows := make([]R, len(b.arms))
	for i, a := range b.arms {
		label := a.name
		if a.trace != "" {
			label = a.trace + "/" + a.name
		}
		cfg := e.base
		if a.apply != nil {
			a.apply(&cfg)
		}
		sys, err := aegaeon.New(cfg)
		if err != nil {
			log.Fatalf("%s arm: %v", label, err)
		}
		rep, err := sys.Serve(b.traces[a.trace])
		if err != nil {
			log.Fatalf("%s arm: %v", label, err)
		}
		var line string
		rows[i], line = b.row(a, cfg, rep)
		fmt.Println(line)
	}

	result := b.fields(rows)
	result["bench"] = b.name
	result["gpu"] = e.base.GPU
	result["models"] = e.base.NumModels
	result["prefill_gpus"] = e.base.PrefillGPUs
	result["decode_gpus"] = e.base.DecodeGPUs
	result["horizon_s"] = e.horizon.Seconds()
	result["dataset"] = e.datasetName
	result["seed"] = e.base.Seed
	if b.floor > 0 {
		result["floor"] = 0.0
		if e.assert {
			result["floor"] = b.floor
		}
	}
	writeJSON(out, result)
	fmt.Printf("bench json        %s\n", out)

	if !e.assert {
		return nil
	}
	floors, pass := b.check(rows)
	var failed []string
	for _, f := range floors {
		if !f.ok {
			fmt.Println("FAIL: " + f.msg)
			failed = append(failed, f.msg)
		}
	}
	if len(failed) == 0 {
		fmt.Println("PASS: " + pass)
	}
	return failed
}
