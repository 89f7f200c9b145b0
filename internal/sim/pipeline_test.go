package sim

import (
	"reflect"
	"testing"

	"iaclan/internal/obs"
	"iaclan/internal/phy"
)

// pipelineCfg is the heaviest campus shape the equivalence suite runs:
// dynamics (fading + mobility + retraining), the SNR-aware link plane
// with residual cancellation and the discrete MCS table, and inter-cell
// leakage — every subsystem whose state could conceivably leak between
// trials through a pinned workspace arena.
func pipelineCfg(kind WorkloadKind) Config {
	cfg := Default()
	cfg.Clients = 6
	cfg.APs = 4
	cfg.Cycles = 12
	cfg.Trials = 2
	cfg.Workload = Workload{Kind: kind, PacketsPerSlot: 0.25}
	cfg.Cells = Cells{Count: 3, Leak: 0.2}
	cfg.Dynamics = Dynamics{
		Eps:             0.3,
		CoherenceCycles: 2,
		RetrainCycles:   4,
		TrainSlots:      2,
		Mobility:        true,
	}
	cfg.Link = Link{NoiseDB: 8, ResidualCancel: true, MCS: true}
	return cfg
}

// TestPipelineMatchesSharded pins the pipelined campus runner's
// headline claim: bit-identical CampusResults versus the sharded
// reference runner (and hence versus a serial run, which the sharded
// runner is already pinned against), across every workload kind with
// dynamics, leakage, and the full link plane on. A workspace-reuse bug
// in the pinned arenas, a mis-scattered ring item, or any scheduling
// sensitivity would show up as a DeepEqual mismatch.
func TestPipelineMatchesSharded(t *testing.T) {
	for _, kind := range []WorkloadKind{Saturated, CBR, Poisson, Bursty} {
		t.Run(string(kind), func(t *testing.T) {
			cfg := pipelineCfg(kind)
			cfg.Workers = 4
			want, err := RunCampus(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Pipeline = true
			got, err := RunCampus(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("pipelined campus diverged from sharded:\n%+v\nvs\n%+v", got, want)
			}
		})
	}
}

// TestPipelineSingleWorker pins the degenerate pipeline — one worker,
// one ring, merge still separate — against the serial sharded run.
func TestPipelineSingleWorker(t *testing.T) {
	cfg := pipelineCfg(Poisson)
	cfg.Workers = 1
	want, err := RunCampus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Pipeline = true
	got, err := RunCampus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("single-worker pipeline diverged from serial sharded run")
	}
}

// TestPipelineSingleCell pins the degenerate campus: Cells off, where
// RunCampus runs one cell's sweep. The pipeline must stay bit-identical
// on that path too.
func TestPipelineSingleCell(t *testing.T) {
	cfg := pipelineCfg(CBR)
	cfg.Cells = Cells{}
	want, err := RunCampus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Pipeline = true
	got, err := RunCampus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("single-cell pipeline diverged from sharded run")
	}
}

// TestPipelineRecyclesWorkspaces pins the pinned-arena claim: a
// pipelined campus of many trials recycles workspaces in place between
// jobs instead of round-tripping the pool per trial, and the pool's
// gets/puts stay balanced afterwards.
func TestPipelineRecyclesWorkspaces(t *testing.T) {
	cfg := pipelineCfg(Poisson)
	cfg.Pipeline = true
	cfg.Workers = 2
	g0, p0, r0 := phy.PoolCounters()
	if _, err := RunCampus(cfg); err != nil {
		t.Fatal(err)
	}
	g1, p1, r1 := phy.PoolCounters()
	if g1-g0 != p1-p0 {
		t.Fatalf("pool gets/puts unbalanced: %d gets vs %d puts", g1-g0, p1-p0)
	}
	jobs := uint64(cfg.Cells.Count * cfg.Trials)
	if r1-r0 < jobs {
		t.Fatalf("recorded %d recycles, want >= %d (one per trial)", r1-r0, jobs)
	}
}

// TestPipelineObservability checks the pipeline's metrics surface: the
// stage busy counters tick, the pinned-recycle gauge counts the workers'
// in-place workspace reuse, and an Obs-attached run still matches the
// unobserved one bit for bit.
func TestPipelineObservability(t *testing.T) {
	cfg := pipelineCfg(Poisson)
	cfg.Pipeline = true
	want, err := RunCampus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cfg.Obs = reg
	got, err := RunCampus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Obs = nil
	if !reflect.DeepEqual(got, want) {
		t.Fatal("observability perturbed the pipelined campus result")
	}
	snap := reg.Snapshot()
	if snap.Counters[metricPipelineWorkerBusy] == 0 {
		t.Fatal("worker busy counter never ticked")
	}
	if snap.Counters[metricPipelineMergeBusy] == 0 {
		t.Fatal("merge busy counter never ticked")
	}
	if snap.Gauges[metricPoolReuses] == 0 {
		t.Fatal("pool reuses gauge never moved: the pipeline's pinned recycles went unreported")
	}
}
