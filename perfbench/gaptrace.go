package main

import (
	"sync"
	"time"

	"iaclan/internal/sim"
)

// Self-time buckets of the gap attribution. Every host interval between
// two events of one (cell, trial) is charged to the event that closes
// it, so each bucket is the work the engine did on its way to emitting
// that kind of event.
const (
	bucketSetup   = iota // a trial's first gap: world, scenario, engine, first cycle up to its first event
	bucketPlan           // EventSlotPlanned: candidate search and the cold plan of a new group
	bucketSlot           // EventSlotEvaluated: MAC pick on cached plans, slot evaluation, hub publishes
	bucketTraffic        // EventTimersFired, EventRetransmit: cycle wrap-up, wheel advance, arrivals, transport
	bucketRetrain        // EventRetrain: fading/mobility step and the re-training survey
	bucketOther          // decode failures, rebuffers, trial wrap-up
	numBuckets
)

var bucketNames = [numBuckets]string{"setup", "plan", "slot", "traffic", "retrain", "other"}

// bucketOf maps an event kind to the bucket its closing gap is charged to.
func bucketOf(k sim.EventKind) int {
	switch k {
	case sim.EventSlotPlanned:
		return bucketPlan
	case sim.EventSlotEvaluated:
		return bucketSlot
	case sim.EventTimersFired, sim.EventRetransmit:
		return bucketTraffic
	case sim.EventRetrain:
		return bucketRetrain
	}
	return bucketOther
}

type trialKey struct{ cell, trial int }

// gapTracer is the benchmark's sim.Tracer. It timestamps every event and
// charges the host time since the same (cell, trial)'s previous event to
// the event that closes the gap.
//
// A trial's first gap starts when a worker took it up, which the event
// stream does not show. The tracer models the runner's pool: it starts
// with one idle worker per pool slot at the stream's start, every
// EventTrialDone frees a worker at its time, and each trial that emits
// its first event takes the earliest-freed worker. With one worker this
// is exact; with several it is exact as long as trials emit their first
// events in the order they started.
type gapTracer struct {
	mu    sync.Mutex
	now   func() time.Duration
	start time.Duration   // stream start
	last  time.Duration   // latest event
	idle  []time.Duration // times the idle workers were freed, oldest first
	open  map[trialKey]time.Duration
	begun map[trialKey]time.Duration

	self     [numBuckets]time.Duration
	spans    []time.Duration // one per finished trial, first gap to EventTrialDone
	plans    int64
	slots    int64
	failures int64 // packets lost in EventChainDecodeFailed events
}

// newGapTracer returns a tracer for a runner with the given worker pool,
// whose clock is now; the stream starts at the clock's current reading.
func newGapTracer(now func() time.Duration, workers int) *gapTracer {
	t := &gapTracer{now: now, open: map[trialKey]time.Duration{}, begun: map[trialKey]time.Duration{}}
	t.start = now()
	t.last = t.start
	for range workers {
		t.idle = append(t.idle, t.start)
	}
	return t
}

// wallClock is a monotonic clock for newGapTracer.
func wallClock() func() time.Duration {
	t0 := time.Now()
	return func() time.Duration { return time.Since(t0) }
}

// Trace implements sim.Tracer.
func (t *gapTracer) Trace(ev sim.Event) {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.last = now
	if ev.Kind == sim.EventCellDone {
		// Emitted by the campus runner after a cell's last trial, under
		// that cell's coordinates but outside any trial.
		return
	}
	k := trialKey{ev.Cell, ev.Trial}
	prev, ok := t.open[k]
	b := bucketOf(ev.Kind)
	if !ok {
		b = bucketSetup
		prev = t.start
		if len(t.idle) > 0 {
			prev, t.idle = t.idle[0], t.idle[1:]
		}
		t.begun[k] = prev
	}
	t.self[b] += now - prev
	switch ev.Kind {
	case sim.EventSlotPlanned:
		t.plans++
	case sim.EventSlotEvaluated:
		t.slots++
	case sim.EventChainDecodeFailed:
		t.failures += int64(ev.Value)
	case sim.EventTrialDone:
		t.spans = append(t.spans, now-t.begun[k])
		t.idle = append(t.idle, now)
		delete(t.open, k)
		delete(t.begun, k)
		return
	}
	t.open[k] = now
}

// window is the stream's extent, from its start to its latest event.
func (t *gapTracer) window() time.Duration { return t.last - t.start }

// trialTotal is the summed span of every finished trial.
func (t *gapTracer) trialTotal() time.Duration {
	var sum time.Duration
	for _, s := range t.spans {
		sum += s
	}
	return sum
}

// trialMax is the slowest finished trial.
func (t *gapTracer) trialMax() time.Duration {
	var m time.Duration
	for _, s := range t.spans {
		m = max(m, s)
	}
	return m
}
