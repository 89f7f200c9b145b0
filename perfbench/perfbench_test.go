package main

import (
	"math"
	"strings"
	"testing"
	"time"

	"iaclan/internal/exp"
	"iaclan/internal/sim"
	"iaclan/internal/stats"
)

// scriptedClock returns the given readings in order, one per call.
func scriptedClock(t *testing.T, readings ...time.Duration) func() time.Duration {
	return func() time.Duration {
		if len(readings) == 0 {
			t.Fatal("clock read more often than scripted")
		}
		r := readings[0]
		readings = readings[1:]
		return r
	}
}

func TestGapAttributionSequential(t *testing.T) {
	ev := func(kind sim.EventKind, trial int, value float64) sim.Event {
		return sim.Event{Kind: kind, Trial: trial, Value: value}
	}
	events := []struct {
		at time.Duration
		ev sim.Event
	}{
		{10, ev(sim.EventTimersFired, 0, 3)},       // setup 10
		{25, ev(sim.EventSlotPlanned, 0, 0)},       // plan 15
		{27, ev(sim.EventSlotEvaluated, 0, 0)},     // slot 2
		{31, ev(sim.EventRetrain, 0, 1)},           // retrain 4
		{32, ev(sim.EventSlotEvaluated, 0, 0)},     // slot 1
		{33, ev(sim.EventChainDecodeFailed, 0, 2)}, // other 1
		{36, ev(sim.EventRetransmit, 0, 1)},        // traffic 3
		{40, ev(sim.EventTrialDone, 0, 0)},         // other 4; span 40
		{47, ev(sim.EventSlotPlanned, 1, 0)},       // setup 7, from trial 0's end
		{50, ev(sim.EventTrialDone, 1, 0)},         // other 3; span 10
		{55, ev(sim.EventCellDone, 1, 0)},          // outside any trial
	}
	readings := []time.Duration{0}
	for _, e := range events {
		readings = append(readings, e.at)
	}
	gt := newGapTracer(scriptedClock(t, readings...), 1)
	for _, e := range events {
		gt.Trace(e.ev)
	}

	want := [numBuckets]time.Duration{
		bucketSetup: 17, bucketPlan: 15, bucketSlot: 3,
		bucketTraffic: 3, bucketRetrain: 4, bucketOther: 8,
	}
	if gt.self != want {
		t.Errorf("self times %v, want %v", gt.self, want)
	}
	if got := gt.trialTotal(); got != 50 {
		t.Errorf("trial total %v, want 50", got)
	}
	if got := gt.trialMax(); got != 40 {
		t.Errorf("slowest trial %v, want 40", got)
	}
	var sum time.Duration
	for _, s := range gt.self {
		sum += s
	}
	if sum != gt.trialTotal() {
		t.Errorf("self times sum to %v, trials span %v: the gaps must partition the trials", sum, gt.trialTotal())
	}
	if gt.plans != 2 || gt.slots != 2 || gt.failures != 2 {
		t.Errorf("counts plans %d slots %d failures %d, want 2 2 2", gt.plans, gt.slots, gt.failures)
	}
	if got := gt.window(); got != 55 {
		t.Errorf("window %v, want 55", got)
	}
}

func TestGapAttributionWorkerPool(t *testing.T) {
	// Two workers: trials 0 and 1 start together at 0; trial 2 takes the
	// worker trial 1 frees at 30, and interleaves with trial 0.
	events := []struct {
		at time.Duration
		ev sim.Event
	}{
		{5, sim.Event{Kind: sim.EventSlotPlanned, Trial: 0}},    // trial 0 setup 5
		{8, sim.Event{Kind: sim.EventSlotPlanned, Trial: 1}},    // trial 1 setup 8
		{30, sim.Event{Kind: sim.EventTrialDone, Trial: 1}},     // trial 1 other 22; span 30
		{34, sim.Event{Kind: sim.EventTimersFired, Trial: 2}},   // trial 2 setup 4
		{40, sim.Event{Kind: sim.EventSlotEvaluated, Trial: 0}}, // trial 0 slot 35
		{45, sim.Event{Kind: sim.EventTrialDone, Trial: 0}},     // trial 0 other 5; span 45
		{50, sim.Event{Kind: sim.EventTrialDone, Trial: 2}},     // trial 2 other 16; span 20
	}
	readings := []time.Duration{0}
	for _, e := range events {
		readings = append(readings, e.at)
	}
	gt := newGapTracer(scriptedClock(t, readings...), 2)
	for _, e := range events {
		gt.Trace(e.ev)
	}
	want := [numBuckets]time.Duration{bucketSetup: 17, bucketSlot: 35, bucketOther: 43}
	if gt.self != want {
		t.Errorf("self times %v, want %v", gt.self, want)
	}
	if got := gt.trialTotal(); got != 95 {
		t.Errorf("trial total %v, want 95", got)
	}
	if got := gt.trialMax(); got != 45 {
		t.Errorf("slowest trial %v, want 45", got)
	}
}

func TestPaperGapPct(t *testing.T) {
	exact := map[string]exp.Result{}
	for _, g := range paperGains {
		r, ok := exact[g.id]
		if !ok {
			r = exp.Result{ID: g.id, Metrics: map[string]float64{}}
			exact[g.id] = r
		}
		r.Metrics[g.metric] = g.paper
	}
	if got := paperGapPct(exact); got != 0 {
		t.Errorf("gap of the paper's own numbers = %v, want 0", got)
	}

	// fig12 10% low and fig15a brute force 50% high: (10 + 50) / 10.
	exact["fig12"].Metrics["gain_mean"] = 1.35
	exact["fig15a"].Metrics["gain_mean_brute_force"] = 3.48
	if got := paperGapPct(exact); math.Abs(got-6) > 1e-9 {
		t.Errorf("gap = %v, want 6", got)
	}

	if got := paperGapPct(nil); got != noFigureGapPct {
		t.Errorf("gap with no figures = %v, want %v", got, noFigureGapPct)
	}
}

func fixedSummary() sim.Summary {
	lat := &stats.Sketch{}
	for _, x := range []float64{1, 2, 3, 5, 8, 13} {
		lat.Add(x)
	}
	return sim.Summary{
		Trials: 2, Cycles: 100, Workers: 2, MeanSlots: 450.5,
		PerClientThroughput:      []float64{10.25, 20.5, 30.75},
		SumThroughputBitsPerSlot: 61.5, JainFairness: 0.857,
		Latency: lat, MeanLatencySlots: lat.Mean(), P95LatencySlots: lat.Quantile(95),
		DeliveredFraction: 0.99, OfferedPackets: 100, DeliveredPackets: 99, DroppedPackets: 1,
		BackendBytes: 12345, WirelessBits: 67890, BackendBytesPerWirelessBit: 0.18,
	}
}

func digestOf(vs ...any) string {
	var d digest
	for _, v := range vs {
		d.fold(v)
	}
	return d.String()
}

func TestDigestPinned(t *testing.T) {
	// The digest's encoding is pinned on a fixed value of every kind it
	// folds, so that a change of encoding shows here and not as a
	// determinism failure.
	type inner struct {
		F float64
		I int
	}
	type fixed struct {
		Name    string
		Ok      bool
		U       uint16
		Xs      []float64
		M       map[string]float64
		P       *inner
		Nil     *inner
		Arr     [2]int8
		Workers int
		hidden  float64
	}
	v := fixed{
		Name: "fig12", Ok: true, U: 7, Xs: []float64{0.5, -1, math.Inf(1)},
		M: map[string]float64{"b": 2, "a": 1}, P: &inner{F: 0.1, I: -3},
		Arr: [2]int8{-1, 1}, Workers: 4, hidden: 2.5,
	}
	const want = "bce0cd6254922f05839ecc021f96334404c62b48820d009f8faf895e7a2980e9"
	if got := digestOf(v); got != want {
		t.Errorf("digest of the fixed value = %s, want %s", got, want)
	}
}

func TestDigestSeesEveryBitButNotWorkers(t *testing.T) {
	base := digestOf(fixedSummary())

	s := fixedSummary()
	s.Workers = 7
	if got := digestOf(s); got != base {
		t.Error("the worker count changed the digest")
	}

	s = fixedSummary()
	s.PerClientThroughput[1] = math.Nextafter(s.PerClientThroughput[1], 100)
	if got := digestOf(s); got == base {
		t.Error("a one-ulp change of a per-client throughput left the digest unchanged")
	}

	s = fixedSummary()
	s.Latency.Add(21)
	if got := digestOf(s); got == base {
		t.Error("a latency sample left the digest unchanged")
	}

	a := exp.Result{ID: "x", Metrics: map[string]float64{"a": 1, "b": 2, "c": 3}}
	b := exp.Result{ID: "x", Metrics: map[string]float64{"c": 3, "a": 1, "b": 2}}
	if digestOf(a) != digestOf(b) {
		t.Error("map insertion order changed the digest")
	}
}

func TestChecks(t *testing.T) {
	good := sim.TrialResult{
		PerClient:         []sim.ClientMetrics{{Offered: 10, Delivered: 8, Dropped: 1, BufferDropped: 1}},
		JainFairness:      1,
		DeliveredFraction: 0.8,
	}
	if msg := checkTrial(good); msg != "" {
		t.Fatalf("well-formed trial rejected: %s", msg)
	}
	cases := map[string]func(*sim.TrialResult){
		"> offered":   func(tr *sim.TrialResult) { tr.PerClient[0].Delivered = 9 },
		"is NaN":      func(tr *sim.TrialResult) { tr.PerClient[0].MeanRate = math.NaN() },
		"Jain":        func(tr *sim.TrialResult) { tr.JainFairness = 0 },
		"delivered f": func(tr *sim.TrialResult) { tr.DeliveredFraction = 1.5 },
		"is +Inf":     func(tr *sim.TrialResult) { tr.P95LatencySlots = math.Inf(1) },
	}
	for want, breakIt := range cases {
		tr := good
		tr.PerClient = append([]sim.ClientMetrics(nil), good.PerClient...)
		breakIt(&tr)
		if msg := checkTrial(tr); !strings.Contains(msg, want) {
			t.Errorf("broken trial: got %q, want a message containing %q", msg, want)
		}
	}

	if msg := checkSummary(fixedSummary()); msg != "" {
		t.Errorf("well-formed summary rejected: %s", msg)
	}
	s := fixedSummary()
	s.DeliveredPackets = 0
	if msg := checkSummary(s); msg == "" {
		t.Error("a summary that delivered nothing passed")
	}

	fig := exp.Result{
		ID:      "fig13a",
		Metrics: map[string]float64{"gain_mean": 1.8, "fraction_above_1": 0.5, "trials": 3},
		Series:  map[string][]float64{"baseline": {1, 1, 2}, "iac": {1.9, 1.7, 3.6}},
	}
	if msg := checkFigure(fig, 4, false); msg != "" {
		t.Errorf("in-band figure rejected: %s", msg)
	}
	if msg := checkFigure(fig, 4, true); !strings.Contains(msg, "fraction_above_1") {
		t.Errorf("too few gains above 1 at the conformance config: got %q", msg)
	}
	fig.Metrics["fraction_above_1"] = 0.9
	if msg := checkFigure(fig, 4, true); msg != "" {
		t.Errorf("conforming figure rejected: %s", msg)
	}
	if msg := checkFigure(fig, 7, false); !strings.Contains(msg, "feasible") {
		t.Errorf("too few feasible draws: got %q", msg)
	}
	fig.Metrics["gain_mean"] = 1.3
	if msg := checkFigure(fig, 4, false); !strings.Contains(msg, "gain_mean") {
		t.Errorf("out-of-band mean gain: got %q", msg)
	}
	fig.Metrics["gain_mean"] = 1.8
	fig.Series["iac"] = []float64{1.2, 1.2, 4.6}
	if msg := checkFigure(fig, 4, false); !strings.Contains(msg, "median") {
		t.Errorf("out-of-band median gain: got %q", msg)
	}
	fig.Metrics["frac_x"] = 1.5
	if msg := checkFigure(fig, 4, false); !strings.Contains(msg, "outside [0, 1]") {
		t.Errorf("fraction above 1: got %q", msg)
	}
}
