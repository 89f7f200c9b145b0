package main

import (
	"errors"
	"fmt"
	"time"

	"iaclan/internal/exp"
	"iaclan/internal/obs"
	"iaclan/internal/sim"
)

// workload is one benchmark workload: a fixed job generated from the
// seed. The simulator sees only the generated configs.
type workload struct {
	name string
	// run executes the job once on the given number of workers. A non-nil
	// tracer and registry are attached to every simulation the job runs;
	// figure timings are recorded into figs when it is non-nil.
	run func(workers int, tr sim.Tracer, reg *obs.Registry, figs map[string]float64) outcome
	// setup executes the job's set-up alone: every config is cut to one
	// CFP cycle (figures to one trial of one slot).
	setup func(workers int) error
}

// outcome is one job's checked result. It crosses from a job process to
// the benchmark as JSON.
type outcome struct {
	Ops    int      `json:"ops"`    // simulated (cell, trial)s plus figures
	Failed int      `json:"failed"` // ops whose call errored or whose output failed a check
	Errs   []string `json:"errs"`   // what failed, for the report
	// Digest is the hex SHA-256 of every simulated output (see digest).
	Digest string `json:"digest"`
	// User-visible simulated outputs.
	Goodput float64 `json:"goodput"` // campus-wide sum throughput, bits/slot
	P95     float64 `json:"p95"`     // pooled arrival-to-ack p95, slots
	GapPct  float64 `json:"gap_pct"` // mean relative distance from the paper's gains, %
	// Fig14FracAbove1 is fig14's share of draws in which IAC beats the
	// baseline, at the workload seed.
	Fig14FracAbove1 float64 `json:"fig14_frac_above_1"`

	dig digest
}

func (o *outcome) fail(n int, format string, args ...any) {
	o.Failed += n
	o.Errs = append(o.Errs, fmt.Sprintf(format, args...))
}

// figures are the paper-figures workload's experiments, in paper order.
var figures = []string{"fig12", "fig13a", "fig13b", "fig14", "fig15a", "fig15b", "fig16"}

// simSeedStride spreads the workload seeds over the simulator's seed
// space: trial i of a sweep runs at Seed+i, so without a stride
// neighbouring workload seeds would share all but one of their trials.
const simSeedStride = 1_000

func workloads(seed int64) []workload {
	simSeed := seed * simSeedStride

	// lan-warm: the paper's acceptance cell on a static channel. After the
	// first few hundred cycles every group the picker meets is planned, so
	// the cycle layer does the work and the planner is idle.
	warm := sim.Default()
	warm.Seed = simSeed
	warm.Cycles = 100_000
	warm.Trials = 2

	// lan-fading: the same cell on the downlink under block fading every
	// two cycles, waypoint mobility and a re-training round per coherence
	// interval. Each epoch bump clears the plan cache, so nearly every
	// candidate group is planned again by the downlink triangle.
	fading := sim.Default()
	fading.Seed = simSeed
	fading.Uplink = false
	fading.Cycles = 300
	fading.Trials = 8
	fading.Dynamics = sim.Dynamics{Eps: 0.1, CoherenceCycles: 2, TrainSlots: 1, Mobility: true}
	fading.Link = sim.Link{MCS: true}

	// campus: four large cells behind four APs each, sparse load. Groups
	// rarely repeat in a roster this size, so 4-AP uplink chains are
	// planned cold; world set-up and the traffic and transport planes run
	// over a large roster.
	campus := sim.Default()
	campus.Seed = simSeed
	campus.Clients = 2_500
	campus.APs = 4
	// Long enough that the closed loop's start-up transient does not set
	// the latency p95, which then jumped by whole slots between seeds.
	campus.Cycles = 1_600
	campus.Trials = 1
	campus.Workload = sim.Workload{Kind: sim.Poisson, PacketsPerSlot: 0.0002}
	campus.Transport = sim.Transport{Enabled: true}
	campus.Link = sim.Link{MCS: true, ResidualCancel: true}
	campus.Cells = sim.Cells{Count: 4, Leak: 0.05}

	// paper-figures: the paper's evaluation at its own sizes, plus the
	// acceptance cell at the paper's Poisson load for the LAN outputs.
	figCfg := exp.DefaultConfig()
	figCfg.Seed = seed
	accept := sim.Default()
	accept.Seed = simSeed
	accept.Cycles = 10_000
	accept.Trials = 2

	return []workload{
		simWorkload("lan-warm", warm),
		simWorkload("lan-fading", fading),
		simWorkload("campus", campus),
		figuresWorkload(figCfg, accept),
	}
}

func simWorkload(name string, cfg sim.Config) workload {
	return workload{
		name: name,
		run: func(workers int, tr sim.Tracer, reg *obs.Registry, _ map[string]float64) outcome {
			c := cfg
			c.Workers, c.Trace, c.Obs = workers, tr, reg
			var o outcome
			simulate(c, true, &o)
			o.GapPct = noFigureGapPct
			o.Digest = o.dig.String()
			return o
		},
		setup: func(workers int) error {
			c := cfg
			c.Workers, c.Cycles = workers, 1
			var o outcome
			simulate(c, false, &o)
			return o.err()
		},
	}
}

func figuresWorkload(cfg exp.Config, accept sim.Config) workload {
	return workload{
		name: "paper-figures",
		run: func(workers int, tr sim.Tracer, reg *obs.Registry, figs map[string]float64) outcome {
			// The cell runs first so that the tracer's stream starts at it.
			var o outcome
			c := accept
			c.Workers, c.Trace, c.Obs = workers, tr, reg
			simulate(c, true, &o)
			results := runFigures(cfg, true, &o, figs)
			runConformance(&o)
			o.GapPct = paperGapPct(results)
			o.Fig14FracAbove1 = results["fig14"].Metrics["fraction_above_1"]
			o.Digest = o.dig.String()
			return o
		},
		setup: func(workers int) error {
			var o outcome
			runFigures(exp.Config{Seed: cfg.Seed, Trials: 1, Slots: 1, Runs: 1}, false, &o, nil)
			c := accept
			c.Workers, c.Cycles = workers, 1
			simulate(c, false, &o)
			return o.err()
		},
	}
}

// err reports the first failure of a set-up job.
func (o *outcome) err() error {
	if len(o.Errs) > 0 {
		return errors.New(o.Errs[0])
	}
	return nil
}

// simulate runs one sim config and folds it into o, checking its
// outputs when check is set. A single-cell config runs through
// sim.RunTrials, which returns each trial and so allows per-client
// checks; a campus runs through sim.RunCampus, which returns per-cell
// summaries.
func simulate(c sim.Config, check bool, o *outcome) {
	if c.Cells.Count > 1 {
		ops := c.Cells.Count * c.Trials
		o.Ops += ops
		res, err := sim.RunCampus(c)
		if err != nil {
			o.fail(ops, "campus: %v", err)
			return
		}
		for i, s := range res.PerCell {
			if msg := checkSummary(s); check && msg != "" {
				o.fail(c.Trials, "cell %d: %s", i, msg)
			}
		}
		if msg := checkSummary(res.Campus); check && msg != "" {
			o.fail(0, "campus: %s", msg)
		}
		o.dig.fold(res)
		o.Goodput, o.P95 = res.Campus.SumThroughputBitsPerSlot, res.Campus.P95LatencySlots
		return
	}
	o.Ops += c.Trials
	trials, err := sim.RunTrials(c, c.Trials, c.Workers)
	if err != nil {
		o.fail(c.Trials, "trials: %v", err)
		return
	}
	for i, tr := range trials {
		if msg := checkTrial(tr); check && msg != "" {
			o.fail(1, "trial %d: %s", i, msg)
		}
		o.dig.fold(tr)
	}
	s := sim.Summarize(trials)
	if msg := checkSummary(s); check && msg != "" {
		o.fail(0, "summary: %s", msg)
	}
	o.dig.fold(s)
	o.Goodput, o.P95 = s.SumThroughputBitsPerSlot, s.P95LatencySlots
}

// runFigures runs every figure and folds it into o, checking it when
// check is set. With a non-nil figs it records each figure's host
// seconds.
func runFigures(cfg exp.Config, check bool, o *outcome, figs map[string]float64) map[string]exp.Result {
	out := make(map[string]exp.Result, len(figures))
	for _, id := range figures {
		o.Ops++
		t0 := time.Now()
		r, err := exp.Run(id, cfg)
		if figs != nil {
			figs[id] = time.Since(t0).Seconds()
		}
		if err != nil {
			o.fail(1, "%s: %v", id, err)
			continue
		}
		if check {
			if msg := checkFigure(r, cfg.Trials, false); msg != "" {
				o.fail(1, "%s: %s", id, msg)
			}
		}
		o.dig.fold(r)
		out[id] = r
	}
	return out
}

// runConformance runs the banded figures at the configuration of the
// repository's conformance suite (conformance_test.go), whatever the
// workload seed, and holds them to all of the suite's assertions.
func runConformance(o *outcome) {
	cfg := exp.DefaultConfig() // the suite's: seed 1, 40 draws
	for _, id := range sortedKeys(bandFigures) {
		o.Ops++
		r, err := exp.Run(id, cfg)
		if err != nil {
			o.fail(1, "conformance %s: %v", id, err)
			continue
		}
		if msg := checkFigure(r, cfg.Trials, true); msg != "" {
			o.fail(1, "conformance %s: %s", id, msg)
		}
		o.dig.fold(r)
	}
}
