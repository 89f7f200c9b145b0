package sim

import (
	"reflect"
	"testing"
)

func TestStreamingValidation(t *testing.T) {
	bad := []Workload{
		{Kind: Streaming},                                          // no rate
		{Kind: Streaming, PacketsPerSlot: 1.5},                     // burst can't fit its period
		{Kind: Streaming, PacketsPerSlot: 0.1, ChunkSlots: -1},     //
		{Kind: Streaming, PacketsPerSlot: 0.1, ChunkSlots: 0.5},    // sub-slot period
		{Kind: Streaming, PacketsPerSlot: 0.1, StartupChunks: -1},  //
		{Kind: Streaming, PacketsPerSlot: 0.1, SleepFraction: 1.5}, //
	}
	for i, w := range bad {
		cfg := Default()
		cfg.Workload = w
		if _, err := Run(cfg); err == nil {
			t.Errorf("bad streaming workload %d accepted", i)
		}
	}
}

func TestStreamingWithoutTransportRunsAndAccounts(t *testing.T) {
	// The application plane does not require the transport: a plain
	// open-loop streaming run must still produce coherent session and
	// energy accounting.
	cfg := Default()
	cfg.Clients = 6
	cfg.Cycles = 120
	cfg.Workload = Workload{Kind: Streaming, PacketsPerSlot: 0.08, ChunkSlots: 30}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stream
	if !st.Enabled {
		t.Fatal("StreamStats not enabled for a streaming workload")
	}
	if st.Streams == 0 || st.Started == 0 {
		t.Fatalf("no streams started: %+v", st)
	}
	if st.Started > st.Streams {
		t.Fatalf("started %d exceeds streams %d", st.Started, st.Streams)
	}
	if st.MeanStartupSlots <= 0 {
		t.Fatalf("startup delay %v, want > 0 (buffering takes time)", st.MeanStartupSlots)
	}
	// Awake + asleep partition each session's airtime exactly.
	total := float64(res.Slots * st.Streams)
	if st.AwakeSlots+st.SleepSlots != total {
		t.Fatalf("awake %v + sleep %v != %d slots x %d streams",
			st.AwakeSlots, st.SleepSlots, res.Slots, st.Streams)
	}
	// The chunk schedule idles most of the time, so the radios must
	// actually sleep — and energy must land between the all-asleep and
	// all-awake extremes.
	if st.SleepSlots == 0 {
		t.Fatal("radios never slept under a 30-slot chunk period")
	}
	if st.EnergyUnits <= 0 || st.EnergyUnits >= total {
		t.Fatalf("energy %v outside (0, %v)", st.EnergyUnits, total)
	}
	if st.EnergyPerBit <= 0 {
		t.Fatalf("energy per bit %v, want > 0", st.EnergyPerBit)
	}
	if st.GoodputBitsPerSlot <= 0 {
		t.Fatalf("goodput %v, want > 0", st.GoodputBitsPerSlot)
	}
}

func TestStreamingRebuffersUnderNoise(t *testing.T) {
	// A clean channel should play back smoothly; a harsh one must stall.
	// One 120-cycle trial of six clients holds too few sessions for the
	// comparison to hold at every seed, so each side pools eight trials.
	pooled := func(cfg Config) StreamStats {
		trials, err := RunTrials(cfg, 8, 2)
		if err != nil {
			t.Fatal(err)
		}
		return Summarize(trials).Stream
	}
	clean := streamCfg()
	clean.Link = Link{}
	noisy := streamCfg()
	noisy.Link.NoiseDB = 24
	cleanSt, noisySt := pooled(clean), pooled(noisy)
	if noisySt.RebufferEvents <= cleanSt.RebufferEvents {
		t.Fatalf("rebuffers did not rise with noise: %d (clean) vs %d (+24 dB)",
			cleanSt.RebufferEvents, noisySt.RebufferEvents)
	}
	if noisySt.RebufferRate <= 0 {
		t.Fatalf("rebuffer rate %v at +24 dB, want > 0", noisySt.RebufferRate)
	}
	if noisySt.RebufferRate > 1 {
		t.Fatalf("rebuffer rate %v exceeds 1: stalled time outran watch time", noisySt.RebufferRate)
	}
}

func TestStreamingSummarizePoolsSessions(t *testing.T) {
	cfg := streamCfg()
	trials, err := RunTrials(cfg, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := Summarize(trials)
	var streams, started, rebuffers int
	var energy float64
	for _, tr := range trials {
		streams += tr.Stream.Streams
		started += tr.Stream.Started
		rebuffers += tr.Stream.RebufferEvents
		energy += tr.Stream.EnergyUnits
	}
	if s.Stream.Streams != streams || s.Stream.Started != started ||
		s.Stream.RebufferEvents != rebuffers {
		t.Fatalf("summary sessions %+v do not sum the trials", s.Stream)
	}
	if s.Stream.EnergyUnits != energy {
		t.Fatalf("summary energy %v, want %v", s.Stream.EnergyUnits, energy)
	}
	if s.WirelessBits > 0 && s.Stream.EnergyPerBit != s.Stream.EnergyUnits/float64(s.WirelessBits) {
		t.Fatal("summary EnergyPerBit not recomputed from pooled numerators")
	}
	// Campus aggregation must pool the same way.
	campus := aggregateCampus([]Summary{s, s})
	if campus.Stream.Streams != 2*s.Stream.Streams || campus.Stream.EnergyUnits != 2*s.Stream.EnergyUnits {
		t.Fatalf("campus stream aggregate %+v does not sum cells", campus.Stream)
	}
}

func TestStreamingWheelMatchesScan(t *testing.T) {
	// The deterministic chunk source must behave identically on the
	// event-driven and legacy traffic planes, transport on or off.
	for _, tp := range []Transport{{}, {Enabled: true, RTOCycles: 2}} {
		cfg := streamCfg()
		cfg.Transport = tp
		cfg.Engine = EngineWheel
		wheel, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Engine = EngineScan
		scan, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wheel, scan) {
			t.Fatalf("streaming run diverged between wheel and scan engines (transport enabled=%v)", tp.Enabled)
		}
	}
}
