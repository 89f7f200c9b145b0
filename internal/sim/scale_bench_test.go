package sim

import (
	"testing"

	"iaclan/internal/phy"
)

// benchIdleCampus measures the per-cycle cost of a mostly-idle cell:
// 10^4 clients at an offered load so sparse that roughly 1% of the
// roster transmits over a multi-thousand-cycle window — the "campus at
// night" shape where almost every client is associated but silent. The
// engine is constructed once outside the timer, so ns/op is the
// steady-state cycle cost: the quantity the event-driven core changes
// from O(clients) to O(active clients). The scan variant is the
// baseline the >=5x acceptance ratio is measured against — it pays the
// full-roster sweep every cycle regardless of activity.
func benchIdleCampus(b *testing.B, engine string) {
	cfg := Default()
	cfg.Clients = 10000
	// ~1% of the roster transmits in any few-thousand-cycle window; the
	// rest are associated but silent.
	cfg.Workload = Workload{Kind: Poisson, PacketsPerSlot: 1e-6}
	cfg.Engine = engine
	cfg, err := cfg.prepare()
	if err != nil {
		b.Fatal(err)
	}
	e, err := newEngine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	e.ws = phy.GetWorkspace()
	defer phy.PutWorkspace(e.ws)
	// Warm up past construction transients (first-touch cache fills,
	// store materialization) so ns/op reads the steady-state cycle.
	for i := 0; i < 256; i++ {
		e.cycle(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.cycle(256 + i)
	}
}

func BenchmarkSimulateIdleCampus(b *testing.B)     { benchIdleCampus(b, EngineWheel) }
func BenchmarkSimulateIdleCampusScan(b *testing.B) { benchIdleCampus(b, EngineScan) }

// BenchmarkSimCFPCycleWarm measures the steady-state CFP cycle of the
// paper's acceptance cell (Default: 10 clients, 3 APs, uplink, Poisson
// 0.1 packets/slot, best-of-two) with the plan cache warm. Like
// benchIdleCampus it builds and warms the engine outside the timer, so
// ns/op and allocs/op read the cycle layer on cache hits: the MAC pick,
// the slot bookkeeping, the hub publishes and the timing wheel.
func BenchmarkSimCFPCycleWarm(b *testing.B) {
	cfg, err := Default().prepare()
	if err != nil {
		b.Fatal(err)
	}
	e, err := newEngine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	e.ws = phy.GetWorkspace()
	defer phy.PutWorkspace(e.ws)
	// By a few thousand cycles the picker has met, and the engine has
	// planned, nearly every group the cell forms.
	const warm = 4096
	for i := 0; i < warm; i++ {
		e.cycle(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.cycle(warm + i)
	}
}
