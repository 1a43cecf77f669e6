package cluster

import (
	"math/rand"
	"testing"
	"time"

	"aegaeon/internal/latency"
	"aegaeon/internal/model"
	"aegaeon/internal/sim"
	"aegaeon/internal/slo"
	"aegaeon/internal/slomon"
	"aegaeon/internal/workload"
)

func testCluster(t *testing.T) (*Cluster, *sim.Engine, []*model.Model, []*model.Model) {
	t.Helper()
	small := model.SmallMix(4)
	large := model.LargeMix(2)
	se := sim.NewEngine(1)
	c, err := New(se, Config{
		Prof: latency.H800(),
		SLO:  slo.Default(),
		Deployments: []DeploymentConfig{
			{Name: "tp1", TP: 1, NumPrefill: 1, NumDecode: 2, Models: small},
			{Name: "tp4", TP: 4, NumPrefill: 1, NumDecode: 1, Models: large},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, se, small, large
}

func TestMixedParallelismRouting(t *testing.T) {
	c, se, small, large := testCluster(t)
	rng := rand.New(rand.NewSource(1))
	traces := workload.Merge(
		workload.PoissonTrace(rng, []string{small[0].Name, small[1].Name}, 0.1, 60*time.Second, workload.ShareGPT()),
		workload.PoissonTrace(rng, []string{large[0].Name}, 0.05, 60*time.Second, workload.ShareGPT()),
	)
	if err := c.Submit(traces); err != nil {
		t.Fatal(err)
	}
	se.Run()
	c.Finalize(se.Now())
	if c.Completed() != len(traces) {
		t.Fatalf("completed %d/%d", c.Completed(), len(traces))
	}
	if att := c.Attainment(); att < 0.9 {
		t.Fatalf("cluster attainment = %.3f", att)
	}
	// Routing metadata was recorded for every request.
	if got := len(c.Store().Keys("req/")); got != len(traces) {
		t.Fatalf("metadata for %d of %d requests", got, len(traces))
	}
	// Route table maps every model to its deployment.
	if v, ok := c.Store().GetNow("route/" + large[0].Name); !ok || v != "tp4" {
		t.Fatalf("route for %s = (%q,%v)", large[0].Name, v, ok)
	}
}

// TestAttachCumulativeAcrossDeployments checks the SLO snapshot's cumulative
// blocks on a two-deployment cluster: each model block is its owning
// deployment's ledger view, and the fleet block merges both ledgers.
func TestAttachCumulativeAcrossDeployments(t *testing.T) {
	c, se, small, large := testCluster(t)
	rng := rand.New(rand.NewSource(2))
	traces := workload.Merge(
		workload.PoissonTrace(rng, []string{small[0].Name}, 0.1, 60*time.Second, workload.ShareGPT()),
		workload.PoissonTrace(rng, []string{large[0].Name}, 0.05, 60*time.Second, workload.ShareGPT()),
	)
	if err := c.Submit(traces); err != nil {
		t.Fatal(err)
	}
	se.Run()
	c.Finalize(se.Now())
	snap := &slomon.Snapshot{Models: []slomon.ScopeSnapshot{
		{Model: small[0].Name}, {Model: large[0].Name}, {Model: small[1].Name},
	}}
	c.AttachCumulative(snap)
	fleet := snap.Fleet.Cumulative
	if fleet == nil || fleet.Requests != uint64(len(traces)) {
		t.Fatalf("fleet block %+v, want %d requests", fleet, len(traces))
	}
	if fleet.Attainment != c.Attainment() {
		t.Fatalf("fleet block attainment %v, cluster %v", fleet.Attainment, c.Attainment())
	}
	var met, missed, reqs uint64
	for i, d := range []*Deployment{c.deps[0], c.deps[1]} {
		mb := snap.Models[i].Cumulative
		view := d.System.Ledger().Model(snap.Models[i].Model)
		if mb == nil || view == nil || mb.Requests != view.Requests() || mb.Attainment != view.Attainment() {
			t.Fatalf("%s block %+v does not match deployment %s's ledger", snap.Models[i].Model, mb, d.Name)
		}
		met, missed, reqs = met+mb.TokensMet, missed+mb.TokensMissed, reqs+mb.Requests
	}
	if met != fleet.TokensMet || missed != fleet.TokensMissed || reqs != fleet.Requests {
		t.Fatalf("model blocks sum to %d/%d over %d, fleet %d/%d over %d",
			met, missed, reqs, fleet.TokensMet, fleet.TokensMissed, fleet.Requests)
	}
	if snap.Models[2].Cumulative != nil {
		t.Fatalf("idle model %s has block %+v", small[1].Name, snap.Models[2].Cumulative)
	}
}

func TestUnknownModelRejected(t *testing.T) {
	c, _, _, _ := testCluster(t)
	err := c.Submit([]workload.Request{{ID: "r0", Model: "ghost", OutputTokens: 1}})
	if err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestDuplicateModelAcrossDeployments(t *testing.T) {
	small := model.SmallMix(2)
	se := sim.NewEngine(1)
	_, err := New(se, Config{
		Prof: latency.H800(),
		SLO:  slo.Default(),
		Deployments: []DeploymentConfig{
			{Name: "a", TP: 1, NumPrefill: 1, NumDecode: 1, Models: small},
			{Name: "b", TP: 1, NumPrefill: 1, NumDecode: 1, Models: small[:1]},
		},
	})
	if err == nil {
		t.Fatal("duplicate model placement accepted")
	}
}

func TestEmptyClusterRejected(t *testing.T) {
	if _, err := New(sim.NewEngine(1), Config{Prof: latency.H800(), SLO: slo.Default()}); err == nil {
		t.Fatal("empty cluster accepted")
	}
}

func TestDeploymentGPUs(t *testing.T) {
	c, _, _, _ := testCluster(t)
	for _, d := range c.Deployments() {
		var cfgs = map[string]DeploymentConfig{
			"tp1": {TP: 1, NumPrefill: 1, NumDecode: 2},
			"tp4": {TP: 4, NumPrefill: 1, NumDecode: 1},
		}
		cfg := cfgs[d.Name]
		want := (cfg.NumPrefill + cfg.NumDecode) * cfg.TP
		if got := d.GPUs(cfg); got != want {
			t.Fatalf("%s GPUs = %d, want %d", d.Name, got, want)
		}
	}
}
