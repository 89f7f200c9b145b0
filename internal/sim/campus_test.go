package sim

import (
	"reflect"
	"strings"
	"testing"
)

func campusCfg() Config {
	cfg := Default()
	cfg.Clients = 6
	cfg.APs = 4
	cfg.Cycles = 15
	cfg.Trials = 2
	// Poisson arrivals: the per-cell seed streams show up in offered
	// load and latency, not just PHY rates (saturated trials deliver the
	// same packet counts whatever the channel draws).
	cfg.Workload = Workload{Kind: Poisson, PacketsPerSlot: 0.25}
	cfg.Cells = Cells{Count: 3, Leak: 0.2}
	return cfg
}

// heavyCampusCfg is the heaviest campus shape the equivalence tests
// run: dynamics (fading + mobility + retraining), the SNR-aware link
// plane with residual cancellation and the discrete MCS table, and
// inter-cell leakage — every subsystem whose state could leak between
// (cell, trial) units sharing a worker.
func heavyCampusCfg(kind WorkloadKind) Config {
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

// TestCampusSerialMatchesSharded pins the headline determinism claim:
// a campus sweep returns bit-identical results whether the (cell,
// trial) units run on one worker or many — for every workload kind on
// the heavy shape, and for streaming under the closed-loop transport.
func TestCampusSerialMatchesSharded(t *testing.T) {
	type campusCase struct {
		name string
		cfg  Config
	}
	var cases []campusCase
	for _, kind := range []WorkloadKind{Saturated, CBR, Poisson, Bursty} {
		cases = append(cases, campusCase{string(kind), heavyCampusCfg(kind)})
	}
	stream := streamCfg()
	stream.Cycles = 60
	stream.Trials = 3
	stream.Cells = Cells{Count: 2, Leak: 0.1}
	cases = append(cases, campusCase{"streaming-transport", stream})
	for _, c := range cases {
		cfg := c.cfg
		t.Run(c.name, func(t *testing.T) {
			cfg.Workers = 1
			serial, err := RunCampus(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Workers = 4
			sharded, err := RunCampus(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Workers is bookkeeping, not physics; normalize before comparing.
			for i := range serial.PerCell {
				serial.PerCell[i].Workers = 0
				sharded.PerCell[i].Workers = 0
			}
			serial.Campus.Workers = 0
			sharded.Campus.Workers = 0
			if !reflect.DeepEqual(serial, sharded) {
				t.Fatalf("sharded campus diverged from serial:\n%+v\nvs\n%+v", serial, sharded)
			}
		})
	}
}

// TestCampusSingleCellMatchesSweep pins the degenerate campus RunCampus
// documents: a Count of 0 or 1 (leakage then has no neighbours to come
// from) runs exactly the single-cell trial sweep, so its one cell and
// the campus aggregate both equal RunSweep on the same config.
func TestCampusSingleCellMatchesSweep(t *testing.T) {
	for _, cells := range []Cells{{}, {Count: 1, Leak: 0.2}} {
		cfg := heavyCampusCfg(CBR)
		cfg.Cells = cells
		res, err := RunCampus(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Cells = Cells{}
		want, err := RunSweep(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.PerCell) != 1 {
			t.Fatalf("%+v: %d cells, want 1", cells, len(res.PerCell))
		}
		if !reflect.DeepEqual(res.PerCell[0], want) {
			t.Fatalf("%+v: cell 0 diverged from RunSweep:\n%+v\nvs\n%+v", cells, res.PerCell[0], want)
		}
		if !reflect.DeepEqual(res.Campus, want) {
			t.Fatalf("%+v: campus aggregate diverged from RunSweep:\n%+v\nvs\n%+v", cells, res.Campus, want)
		}
	}
}

// TestCampusCellsAreIndependentPopulations checks each cell is its own
// world: distinct seeds produce distinct outcomes, and the campus
// aggregate sums the cells' capacity metrics.
func TestCampusCellsAreIndependentPopulations(t *testing.T) {
	cfg := campusCfg()
	res, err := RunCampus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerCell) != 3 {
		t.Fatalf("%d cells", len(res.PerCell))
	}
	if reflect.DeepEqual(res.PerCell[0], res.PerCell[1]) {
		t.Fatal("cells 0 and 1 identical; per-cell seeding broken")
	}
	var thr float64
	var delivered int
	for _, c := range res.PerCell {
		thr += c.SumThroughputBitsPerSlot
		delivered += c.DeliveredPackets
		if len(c.PerClientThroughput) != cfg.Clients {
			t.Fatalf("cell has %d clients want %d", len(c.PerClientThroughput), cfg.Clients)
		}
	}
	if diff := res.Campus.SumThroughputBitsPerSlot - thr; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("campus throughput %v != cell sum %v", res.Campus.SumThroughputBitsPerSlot, thr)
	}
	if res.Campus.DeliveredPackets != delivered {
		t.Fatalf("campus delivered %d != cell sum %d", res.Campus.DeliveredPackets, delivered)
	}
	if got, want := len(res.Campus.PerClientThroughput), 3*cfg.Clients; got != want {
		t.Fatalf("campus client population %d want %d", got, want)
	}
}

// TestCampusLeakageLowersThroughput: inter-cell leakage raises every
// cell's noise floor, so a leaky campus must carry less traffic per
// cell than an isolated one. The discrete MCS link plane is what turns
// the lower SINR into delivered-packet losses (in the continuous model
// every scheduled packet lands, just at a lower PHY rate).
func TestCampusLeakageLowersThroughput(t *testing.T) {
	iso := campusCfg()
	iso.Workload = Workload{Kind: Saturated}
	iso.Link = Link{NoiseDB: 12, MCS: true}
	iso.Cells.Leak = 0
	isolated, err := RunCampus(iso)
	if err != nil {
		t.Fatal(err)
	}
	leaky := campusCfg()
	leaky.Workload = Workload{Kind: Saturated}
	leaky.Link = Link{NoiseDB: 12, MCS: true}
	leaky.Cells.Leak = 1
	interfered, err := RunCampus(leaky)
	if err != nil {
		t.Fatal(err)
	}
	if interfered.Campus.SumThroughputBitsPerSlot >= isolated.Campus.SumThroughputBitsPerSlot {
		t.Fatalf("leakage did not cost throughput: %v vs %v",
			interfered.Campus.SumThroughputBitsPerSlot, isolated.Campus.SumThroughputBitsPerSlot)
	}
	// And an isolated campus's cell 0 is exactly the single-cell run of
	// the same seed (the degenerate path shares the code).
	single := iso
	single.Cells = Cells{}
	sres, err := RunCampus(single)
	if err != nil {
		t.Fatal(err)
	}
	one := sres.PerCell[0]
	one.Workers = isolated.PerCell[0].Workers
	if !reflect.DeepEqual(isolated.PerCell[0], one) {
		t.Fatal("cell 0 of an isolated campus differs from the single-cell run")
	}
}

// TestRunRejectsMultiCell keeps the single-trial entry points honest.
func TestRunRejectsMultiCell(t *testing.T) {
	cfg := campusCfg()
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "RunCampus") {
		t.Fatalf("Run accepted a multi-cell config (err %v)", err)
	}
	if _, err := RunSweep(cfg); err == nil {
		t.Fatal("RunSweep accepted a multi-cell config")
	}
}

func TestCellsValidation(t *testing.T) {
	cfg := campusCfg()
	cfg.Cells.Leak = 1.5
	if _, err := RunCampus(cfg); err == nil {
		t.Fatal("Leak > 1 accepted")
	}
	cfg = campusCfg()
	cfg.Cells.Count = -1
	if _, err := RunCampus(cfg); err == nil {
		t.Fatal("negative cell count accepted")
	}
}

// TestNAPChainRaisesUplinkThroughput is the engine-level DoF story: the
// same client population served by a denser AP cluster (4 APs engage
// the full M+2 chain and add role diversity) must not lose throughput
// against the 3-AP cluster, and the 3-AP IAC cluster must beat 2 APs
// (4 concurrent packets vs 3).
func TestNAPChainRaisesUplinkThroughput(t *testing.T) {
	base := Default()
	base.Clients = 6
	base.Cycles = 25
	base.Trials = 2
	base.Workload = Workload{Kind: Saturated}

	run := func(aps, group int) float64 {
		cfg := base
		cfg.APs = aps
		cfg.GroupSize = group
		s, err := RunSweep(cfg)
		if err != nil {
			t.Fatalf("%d APs: %v", aps, err)
		}
		return s.SumThroughputBitsPerSlot
	}
	thr2 := run(2, 2)
	thr3 := run(3, 3)
	thr4 := run(4, 3)
	if thr3 <= thr2 {
		t.Fatalf("3-AP chain (4 packets) did not beat 2 APs (3 packets): %v vs %v", thr3, thr2)
	}
	// The 4th AP splits the A-set decode and adds role diversity; allow
	// a small wobble but no real regression.
	if thr4 < 0.9*thr3 {
		t.Fatalf("4-AP chain regressed vs 3 APs: %v vs %v", thr4, thr3)
	}
}
