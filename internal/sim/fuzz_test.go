package sim

import (
	"math"
	"testing"
)

// fuzzBound folds a fuzzed int8 into [-limit, limit], keeping its sign, so
// negative values still reach validation while every accepted config
// stays tiny enough to run.
func fuzzBound(v int8, limit int) int { return int(v) % (limit + 1) }

// FuzzConfig drives arbitrary configurations through Validate and then
// RunCampus at tiny sizes (Cycles <= 3, Trials <= 2, Cells <= 3,
// Clients <= 12). Each must end in an error or a result, never a panic
// or a hang, and RunCampus must reject exactly what Validate rejects,
// with the same text.
func FuzzConfig(f *testing.F) {
	add := func(c Config) {
		f.Add(c.Seed, int8(c.Clients), int8(c.APs), int8(c.GroupSize), int8(c.Cycles),
			int8(c.Trials), int8(c.Cells.Count), int8(c.Workers), int8(c.MaxRetries), int8(c.MaxQueue),
			c.Uplink, c.Picker, c.Engine, string(c.Workload.Kind), c.Workload.PacketsPerSlot,
			c.Workload.Duty, c.Workload.MeanBurstSlots, c.Dynamics.Eps, int8(c.Dynamics.RetrainCycles),
			c.Dynamics.Mobility, c.Link.NoiseDB, c.Link.MCS, c.Cells.Leak, c.Transport.Enabled,
			int8(c.Transport.Stripes))
	}
	tiny := func(mod func(*Config)) Config {
		c := Default()
		c.Clients, c.Cycles, c.Trials, c.Workers, c.MaxQueue = 6, 3, 2, 2, 8
		mod(&c)
		return c
	}
	add(tiny(func(c *Config) {}))
	add(tiny(func(c *Config) { c.Trials = -1 }))
	add(tiny(func(c *Config) { c.Clients = -1 }))
	add(tiny(func(c *Config) { c.Cycles = -1 }))
	add(tiny(func(c *Config) { c.GroupSize = 4 }))
	add(tiny(func(c *Config) { c.Uplink = false; c.GroupSize = 2 }))
	add(tiny(func(c *Config) { c.MaxRetries = -1 }))
	add(tiny(func(c *Config) { c.Picker = "psychic" }))
	add(tiny(func(c *Config) { c.Engine = "bogus" }))
	add(tiny(func(c *Config) { c.Workload = Workload{Kind: "bogus"} }))
	add(tiny(func(c *Config) { c.Workload.PacketsPerSlot = -0.1 }))
	add(tiny(func(c *Config) { c.Workload.PacketsPerSlot = math.Inf(1) }))
	add(tiny(func(c *Config) { c.Workload = Workload{Kind: CBR, PacketsPerSlot: 9} }))
	add(tiny(func(c *Config) { c.Workload = Workload{Kind: Bursty, PacketsPerSlot: 0.2, Duty: 1e-300} }))
	add(tiny(func(c *Config) { c.Workload = Workload{Kind: Bursty, PacketsPerSlot: 0.2, MeanBurstSlots: math.NaN()} }))
	add(tiny(func(c *Config) { c.Workload = Workload{Kind: Bursty, PacketsPerSlot: 0.2, Duty: 1.5} }))
	add(tiny(func(c *Config) { c.Workload = Workload{Kind: Streaming, PacketsPerSlot: 2} }))
	add(tiny(func(c *Config) { c.Dynamics.Eps = 1.5 }))
	add(tiny(func(c *Config) { c.Dynamics.Eps = math.NaN() }))
	add(tiny(func(c *Config) { c.Dynamics = Dynamics{Eps: 0.3, RetrainCycles: 2, Mobility: true} }))
	add(tiny(func(c *Config) { c.Link.NoiseDB = 70 }))
	add(tiny(func(c *Config) { c.Cells = Cells{Count: -1} }))
	add(tiny(func(c *Config) { c.Cells = Cells{Count: 3, Leak: 1.5} }))
	add(tiny(func(c *Config) { c.Cells = Cells{Count: 3, Leak: 1}; c.Link = Link{NoiseDB: 59, MCS: true} }))
	add(tiny(func(c *Config) { c.Transport.Stripes = 2 }))
	add(tiny(func(c *Config) { c.Transport = Transport{Enabled: true}; c.Workload = Workload{Kind: Saturated} }))
	add(tiny(func(c *Config) { c.Transport = Transport{Enabled: true, Stripes: 4} }))
	add(tiny(func(c *Config) {
		c.APs, c.Cells = 4, Cells{Count: 2, Leak: 0.2}
		c.Workload = Workload{Kind: Streaming, PacketsPerSlot: 0.1}
		c.Transport = Transport{Enabled: true, Stripes: 2}
		c.Link = Link{NoiseDB: 8, MCS: true}
	}))
	f.Fuzz(func(t *testing.T, seed int64, clients, aps, group, cycles, trials, cells, workers, retries, queue int8,
		uplink bool, picker, engine, kind string, load, duty, burst, eps float64, retrain int8,
		mobility bool, noiseDB float64, mcs bool, leak float64, transport bool, stripes int8) {
		nCycles := fuzzBound(cycles, 3)
		if nCycles == 0 {
			nCycles = 1 // zero would mean Default's 1000 cycles
		}
		cfg := Config{
			Seed:       seed,
			Clients:    fuzzBound(clients, 12),
			APs:        fuzzBound(aps, 5),
			Uplink:     uplink,
			Cycles:     nCycles,
			GroupSize:  fuzzBound(group, 4),
			MaxRetries: fuzzBound(retries, 3),
			MaxQueue:   fuzzBound(queue, 8),
			Picker:     picker,
			Engine:     engine,
			Workload:   Workload{Kind: WorkloadKind(kind), PacketsPerSlot: load, Duty: duty, MeanBurstSlots: burst},
			Dynamics:   Dynamics{Eps: eps, RetrainCycles: fuzzBound(retrain, 4), TrainSlots: 1, Mobility: mobility},
			Link:       Link{NoiseDB: noiseDB, ResidualCancel: mcs, MCS: mcs},
			Cells:      Cells{Count: fuzzBound(cells, 3), Leak: leak},
			Trials:     fuzzBound(trials, 2),
			Workers:    fuzzBound(workers, 4),
			Transport:  Transport{Enabled: transport, Stripes: fuzzBound(stripes, 5)},
		}
		verr := cfg.Validate()
		res, err := RunCampus(cfg)
		if verr != nil {
			if err == nil || err.Error() != verr.Error() {
				t.Fatalf("Validate: %v, but RunCampus: %v", verr, err)
			}
			return
		}
		if err != nil {
			return // per-cell checks (the leakage raise on NoiseDB) may still reject
		}
		if want := max(cfg.Cells.Count, 1); len(res.PerCell) != want {
			t.Fatalf("%d cells in the result, want %d", len(res.PerCell), want)
		}
	})
}
