package core

import (
	"math/rand"
	"testing"
	"time"

	"aegaeon/internal/engine"
	"aegaeon/internal/fleetobs"
	"aegaeon/internal/gpu"
	"aegaeon/internal/model"
	"aegaeon/internal/sim"
	"aegaeon/internal/workload"
)

// TestFleetLedgerMatchesGPUUtilization is the cross-check regression: on a
// switch-heavy run (8 models over 1+1 instances, so nearly every group forces
// a model switch), the fleet ledger's accounting must agree with the gpu
// package's own busy-time integrals — exactly for the raw per-engine mirror,
// and within ε for the classified compute states, whose only divergence from
// the compute engine's busy time is masking by the (short) host-side switch
// stages. Run under -race in CI, this also shakes out unsynchronized ledger
// access.
func TestFleetLedgerMatchesGPUUtilization(t *testing.T) {
	models := model.MarketMix(8)
	var names []string
	for _, m := range models {
		names = append(names, m.Name)
	}
	rng := rand.New(rand.NewSource(7))
	trace := workload.PoissonTrace(rng, names, 0.08, 150*time.Second, workload.ShareGPT())

	se := sim.NewEngine(1)
	cfg := testConfig(models, engine.AllOptimizations(), 1, 1)
	fleet := fleetobs.New(se)
	cfg.Fleet = fleet
	sys := NewSystem(se, cfg)
	if err := sys.Submit(trace); err != nil {
		t.Fatal(err)
	}
	se.Run()
	sys.Finalize(se.Now())
	now := se.Now()

	if sys.Completed() == 0 {
		t.Fatal("nothing completed — the run exercised nothing")
	}
	var switches uint64
	for _, e := range sys.Engines() {
		switches += e.Stats().Switches
	}
	if switches < 20 {
		t.Fatalf("only %d switches — not the switch-heavy run this test needs", switches)
	}
	if errs := fleet.CheckConservation(now); len(errs) > 0 {
		t.Fatalf("conservation violated: %v", errs)
	}

	const eps = 0.02 // fraction of wall time
	wall := time.Duration(now).Seconds()
	snap := fleet.Snapshot(now)
	for i, e := range sys.Engines() {
		dev := e.Device()
		// The snapshot's raw busy fields are the device's own counters, so
		// they agree exactly, not approximately.
		ds := snap.Devices[i]
		if ds.Device != e.Name {
			t.Fatalf("snapshot device %d is %s, want %s", i, ds.Device, e.Name)
		}
		for k, got := range map[gpu.EngineKind]float64{
			gpu.Compute: ds.RawComputeBusyS, gpu.H2D: ds.RawH2DBusyS, gpu.D2H: ds.RawD2HBusyS,
		} {
			if want := dev.BusyTime(k).Seconds(); got != want {
				t.Errorf("%s: snapshot raw busy[%v] %vs != gpu.BusyTime %vs", e.Name, k, got, want)
			}
		}
		// Classified compute states vs the compute engine: masking by host
		// switch stages only subtracts, and those stages are short.
		computeS := fleet.StateSeconds(e.Name, fleetobs.Prefill, now) +
			fleet.StateSeconds(e.Name, fleetobs.Decode, now) +
			fleet.StateSeconds(e.Name, fleetobs.Compact, now)
		gpuComputeS := dev.BusyTime(gpu.Compute).Seconds()
		if computeS > gpuComputeS+1e-9 {
			t.Errorf("%s: classified compute %.6fs exceeds gpu compute busy %.6fs",
				e.Name, computeS, gpuComputeS)
		}
		if gpuComputeS-computeS > eps*wall {
			t.Errorf("%s: classified compute %.3fs vs gpu compute busy %.3fs — off by more than %.0f%% of wall",
				e.Name, computeS, gpuComputeS, 100*eps)
		}
		// The ledger's busy integral covers every engine's busy time: a
		// busy nanosecond can be reclassified by masking but never lands in
		// idle, so per-engine utilization bounds the busy fraction below.
		var busyS float64
		for _, s := range fleetobs.States() {
			if s != fleetobs.Idle && s != fleetobs.Faulted {
				busyS += fleet.StateSeconds(e.Name, s, now)
			}
		}
		for k := gpu.Compute; k <= gpu.D2H; k++ {
			if util := dev.Utilization(k, 0, 0); busyS/wall < util-1e-9 {
				t.Errorf("%s: ledger busy fraction %.4f below %v utilization %.4f",
					e.Name, busyS/wall, k, util)
			}
		}
	}
}
