package main

import (
	"math/rand"
	"runtime"
	"slices"
	"time"

	"iaclan/internal/backend"
	"iaclan/internal/channel"
	"iaclan/internal/cmplxmat"
	"iaclan/internal/core"
	"iaclan/internal/mac"
	"iaclan/internal/phy"
	"iaclan/internal/testbed"
)

// microCall is one layer function timed directly by the benchmark.
type microCall struct {
	name string
	// calls is how many calls one fn invocation makes (fn may batch
	// calls whose set-up it must keep out of the timing).
	calls int
	fn    func()
}

// Shapes of the direct calls: the paper's 2-antenna nodes, the 3-client
// groups the MAC forms, and the campus cell's roster.
const (
	antennas    = 2
	microSNR    = 100 // linear, 20 dB
	inputPool   = 32  // distinct inputs cycled through per call site
	campusNodes = 2_504
	hubBatch    = 64 // shares published between two per-cycle DiscardAll calls
)

// microCalls builds every direct call on inputs drawn from seed.
func microCalls(seed int64) []microCall {
	rng := rand.New(rand.NewSource(seed))
	ws := cmplxmat.NewWorkspace()
	// wsCall runs f on the arena and releases what it took, so the arena
	// stays the same size however often it is called.
	wsCall := func(f func()) {
		m := ws.Mark()
		f()
		ws.Release(m)
	}

	wide := make([]*cmplxmat.Matrix, inputPool)   // the ZF step's M x k stacked interference
	herm := make([]*cmplxmat.Matrix, inputPool)   // M x M Gram matrices
	square := make([]*cmplxmat.Matrix, inputPool) // M x M channels
	rhs := make([]cmplxmat.Vector, inputPool)
	polys := make([]cmplxmat.Poly, inputPool)
	chain4 := make([]core.ChannelSet, inputPool)
	triangle := make([]core.ChannelSet, inputPool)
	for i := range inputPool {
		wide[i] = cmplxmat.RandomGaussian(rng, antennas, 2*antennas)
		herm[i] = wide[i].Mul(wide[i].H())
		square[i] = cmplxmat.RandomGaussian(rng, antennas, antennas)
		rhs[i] = cmplxmat.RandomGaussianVector(rng, antennas)
		polys[i] = square[i].CharPoly()
		chain4[i] = core.RandomChannelSet(rng, 3, 4, antennas, microSNR)
		triangle[i] = core.RandomChannelSet(rng, 3, 3, antennas, microSNR)
	}

	world := channel.DefaultTestbed(seed)
	up := testbed.PickScenario(world, 3, 4)
	down := testbed.PickScenario(world, 3, 3)
	pws := phy.NewWorkspace()

	picker := mac.NewBestOfTwoPicker(seed, 8)
	const lanClients = 10
	ring := make([]mac.ClientID, 2*lanClients)
	for i := range ring {
		ring[i] = mac.ClientID(i % lanClients)
	}
	rates := map[[3]mac.ClientID]float64{}
	est := func(g []mac.ClientID) float64 {
		var k [3]mac.ClientID
		copy(k[:], g)
		slices.Sort(k[1:len(g)])
		r, ok := rates[k]
		if !ok {
			r = rng.Float64()
			rates[k] = r
		}
		return r
	}

	hub := backend.NewMemHub(3)
	share := backend.Message{Type: backend.MsgDecodedPacket, Payload: make([]byte, 1440)}

	var i int
	next := func() int { i++; return i % inputPool }
	return []microCall{
		{"cmplxmat.svd", 1, func() { wsCall(func() { wide[next()].SVDWS(ws) }) }},
		{"cmplxmat.eigh", 1, func() { wsCall(func() { herm[next()].EigenHermitianWS(ws) }) }},
		{"cmplxmat.roots", 1, func() { _, _ = polys[next()].Roots() }},
		{"cmplxmat.solve", 1, func() { wsCall(func() { j := next(); _, _ = square[j].SolveWS(ws, rhs[j]) }) }},
		{"core.uplink_chain4", 1, func() { wsCall(func() { _, _ = core.SolveUplinkChainWS(ws, chain4[next()], rng) }) }},
		{"core.downlink_triangle", 1, func() { wsCall(func() { _, _ = core.SolveDownlinkTriangleWS(ws, triangle[next()]) }) }},
		{"testbed.uplink_slot_cold", 1, func() {
			pws.Reset()
			_, _ = testbed.RunUplinkSlotWS(pws, testbed.NewSlotCache(up), up, next()%3, rng)
		}},
		{"testbed.downlink_slot_cold", 1, func() {
			pws.Reset()
			_, _ = testbed.RunDownlinkSlotWS(pws, testbed.NewSlotCache(down), down, rng)
		}},
		{"mac.pick", 1, func() { j := next() % lanClients; picker.PickGroup(ring[j:j+lanClients], 3, est) }},
		{"backend.publish", hubBatch, func() {
			for s := range hubBatch {
				share.Seq = uint32(s)
				_ = hub.Publish(0, share)
			}
			hub.DiscardAll()
		}},
		{"channel.add_node", campusNodes, func() {
			w := channel.NewWorld(channel.DefaultParams(), seed)
			for n := range campusNodes {
				w.AddNode(float64(n%12), float64(n/12%12))
			}
		}},
	}
}

// timeCall returns the median host ns per call over batches of calls
// sized to a few milliseconds, and the heap allocations per call.
func timeCall(c microCall) (nsPerCall, allocsPerCall float64) {
	const (
		batches     = 9
		batchTarget = 4 * time.Millisecond
	)
	c.fn() // warm caches and lazily built tables
	n := 1
	for {
		t0 := time.Now()
		for range n {
			c.fn()
		}
		if d := time.Since(t0); d >= batchTarget/4 || n >= 1<<20 {
			n = max(1, int(float64(n)*float64(batchTarget)/float64(d+1)))
			break
		}
		n *= 2
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	per := make([]float64, batches)
	for b := range per {
		t0 := time.Now()
		for range n {
			c.fn()
		}
		per[b] = float64(time.Since(t0).Nanoseconds()) / float64(n*c.calls)
	}
	runtime.ReadMemStats(&ms)
	return median(per), float64(ms.Mallocs-mallocs) / float64(batches*n*c.calls)
}
