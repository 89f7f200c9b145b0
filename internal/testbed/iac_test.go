package testbed

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"iaclan/internal/channel"
	"iaclan/internal/cmplxmat"
	"iaclan/internal/core"
	"iaclan/internal/mimo"
	"iaclan/internal/phy"
)

// TestDownlinkTriangleSearchWidth pins the role-assignment search's
// attempt count per slot shape — one solve per role assignment for the
// deterministic 3x3 downlink triangle, solveCandidates for every
// construction that draws random free vectors — and proves that the
// triangle loses nothing by it: the search at one attempt and at three
// returns bit-identical winners and leaves the RNG at the same position.
func TestDownlinkTriangleSearchWidth(t *testing.T) {
	chainClients := func(m int) int { return core.UplinkChainAssignment{M: m}.NumClients() }
	shapes := []struct {
		name         string
		downlink     bool
		clients, aps int
		want         int
	}{
		{"uplink-three", false, 2, 2, 3},
		{"uplink-chain-3ap", false, chainClients(2), 3, 3},
		{"uplink-chain-5ap", false, chainClients(2), 5, 3},
		{"uplink-chain-m3", false, chainClients(3), core.UplinkAPsNeeded(3), 3},
		{"uplink-chain-m4", false, chainClients(4), core.UplinkAPsNeeded(4), 3},
		{"downlink-triangle", true, 3, 3, 1},
		{"downlink-diversity", true, 1, 2, 3},
	}
	for _, sh := range shapes {
		if got := solveAttempts(sh.downlink, sh.clients, sh.aps); got != sh.want {
			t.Errorf("%s: %d solver attempts per role assignment, want %d", sh.name, got, sh.want)
		}
	}

	world := channel.NewTestbed(channel.DefaultParams(), 21, 20, 12)
	for _, env := range []Env{{}, {ResidualCancel: true}, {MCS: mimo.DefaultRateTable()}} {
		for _, track := range []bool{false, true} {
			s := PickScenario(world, 3, 3)
			s.Env = env
			search := func(attempts int) (plannedPlan, core.ChannelSet, int64) {
				rng := rand.New(rand.NewSource(91))
				trueCS := s.DownlinkChannels()
				est := EstimateEnv(trueCS, s.Env, rng)
				solve := func(ws *cmplxmat.Workspace, est core.ChannelSet) (*core.Plan, error) {
					return core.SolveDownlinkTriangleWS(ws, est)
				}
				plan, winnerTrue, err := bestAssignment(cmplxmat.NewWorkspace(), trueCS, est, true, attempts, solve, s.Env.planOpts(), track)
				if err != nil {
					t.Fatal(err)
				}
				return plan, winnerTrue, rng.Int63()
			}
			one, oneTrue, oneDraw := search(1)
			three, threeTrue, threeDraw := search(solveCandidates)
			if oneDraw != threeDraw {
				t.Fatalf("mcs=%v track=%v: RNG position differs between one and three attempts", env.MCS != nil, track)
			}
			if !reflect.DeepEqual(one, three) || !reflect.DeepEqual(oneTrue, threeTrue) {
				t.Fatalf("mcs=%v track=%v: triangle winner differs between one and three attempts:\n one=%+v\n three=%+v", env.MCS != nil, track, one, three)
			}
		}
	}
}

// antennaScenario builds a scenario from a world with the given
// per-node antenna count, so the equivalence sweep covers chain
// constructions beyond the paper's 2-antenna testbed.
func antennaScenario(seed int64, clients, aps, antennas int) Scenario {
	p := channel.DefaultParams()
	p.Antennas = antennas
	w := channel.NewTestbed(p, seed, clients+aps+14, 12)
	return PickScenario(w, clients, aps)
}

// scalarSearch is the plain role-assignment search the slot runners must
// reproduce: every role permutation, solveCandidates attempts for every
// construction (the triangle included), each candidate solved and scored
// on a fresh workspace of its own, and the true channels permuted along
// with each new best rather than once for the final winner.
func scalarSearch(trueCS, estCS core.ChannelSet, downlink bool, solve solveFunc, opts core.EvalOptions, trackPlanned bool) (plannedPlan, core.ChannelSet, error) {
	perms := rxOrders(estCS.NumRx())
	permute := PermuteRx
	if downlink {
		perms = permutations(estCS.NumTx())
		permute = Permute
	}
	var best plannedPlan
	var bestTrue core.ChannelSet
	bestRate := -1.0
	var lastErr error
	for _, perm := range perms {
		est := permute(estCS, perm)
		for attempt := 0; attempt < solveCandidates; attempt++ {
			ws := cmplxmat.NewWorkspace()
			plan, err := solve(ws, est)
			var ev core.Evaluation
			if err == nil {
				ev, err = plan.EvaluateOptsWS(ws, est, est, opts)
			}
			if err != nil {
				lastErr = err
				continue
			}
			if ev.SumRate > bestRate {
				bestRate = ev.SumRate
				best = plannedPlan{Plan: plan.Clone(), PlannedChannels: est}
				if trackPlanned {
					best.PlannedRate = append([]float64(nil), ev.PacketRate...)
					if opts.Rate != nil {
						best.PlannedSINR = append([]float64(nil), ev.SINR...)
					}
				}
				bestTrue = permute(trueCS, perm)
			}
		}
	}
	if best.Plan == nil {
		return plannedPlan{}, nil, lastErr
	}
	return best, bestTrue, nil
}

// scalarSlot runs one slot through scalarSearch: the same channel set-up
// and RNG draws as RunUplinkSlotWS/RunDownlinkSlotWS, then the winner is
// evaluated on the true channels on a fresh workspace.
func scalarSlot(cache *SlotCache, s Scenario, downlink bool, role int, rng *rand.Rand) (SlotOutcome, error) {
	nc, na := len(s.Clients), len(s.APs)
	order := []int{role}
	for i := 0; i < nc; i++ {
		if i != role {
			order = append(order, i)
		}
	}
	var baseTrue, baseEst core.ChannelSet
	switch {
	case cache == nil && downlink:
		baseTrue = s.DownlinkChannels()
		baseEst = EstimateEnv(baseTrue, s.Env, rng)
	case cache == nil:
		baseTrue = Permute(s.UplinkChannels(), order)
		baseEst = EstimateEnv(baseTrue, s.Env, rng)
	case downlink:
		baseTrue, baseEst = core.NewChannelSet(na, nc), core.NewChannelSet(na, nc)
		for i, ap := range s.APs {
			for j, c := range s.Clients {
				baseTrue[i][j] = cache.Channel(ap, c)
				baseEst[i][j] = cache.Estimated(ap, c, rng)
			}
		}
	default:
		baseTrue, baseEst = core.NewChannelSet(nc, na), core.NewChannelSet(nc, na)
		for i, o := range order {
			for j, ap := range s.APs {
				baseTrue[i][j] = cache.Channel(s.Clients[o], ap)
				baseEst[i][j] = cache.Estimated(s.Clients[o], ap, rng)
			}
		}
	}
	solve := func(ws *cmplxmat.Workspace, est core.ChannelSet) (*core.Plan, error) {
		switch {
		case downlink && nc == 3 && na == 3:
			return core.SolveDownlinkTriangleWS(ws, est)
		case downlink && nc == 1 && na == 2:
			return core.SolveDownlinkDiversity(est, rng, NodePower, s.Env.Noise())
		case !downlink && nc == 2 && na == 2:
			return core.SolveUplinkThreeWS(ws, est, rng)
		case !downlink && na >= 3 && nc == (core.UplinkChainAssignment{M: est.Antennas()}).NumClients():
			return core.SolveUplinkChainWS(ws, est, rng)
		}
		return nil, fmt.Errorf("unsupported %dx%d slot", nc, na)
	}
	track := (cache != nil && cache.trackPlanned) || s.Env.MCS != nil
	plan, trueCS, err := scalarSearch(baseTrue, baseEst, downlink, solve, s.Env.planOpts(), track)
	if err != nil {
		return SlotOutcome{}, err
	}
	ev, err := plan.EvaluateOptsWS(cmplxmat.NewWorkspace(), trueCS, plan.PlannedChannels, s.Env.trueOptsFor(plan.PlannedSINR))
	if err != nil {
		return SlotOutcome{}, err
	}
	if downlink {
		return downlinkOutcome(plan, ev, s.Env), nil
	}
	return uplinkOutcome(plan, ev, s.Env, order), nil
}

// TestBatchedSlotRunnerMatchesScalar pins the production slot runners
// bitwise against scalarSearch across every supported slot shape —
// uplink three, N-AP chains at M = 2..4, downlink triangle and diversity
// — crossed with the link-plane variants (residual-cancel leakage, the
// discrete MCS table) and both channel paths (fresh per-slot training
// and the epoch cache). The runners' search reuses one workspace arena
// with mark/release per candidate, permutes the true channels once for
// the winner, and solves the deterministic triangle once per role
// assignment; none of that may show. Identically seeded runs must
// produce identical outcomes AND identical RNG streams afterwards: a
// re-ordered or extra draw would desynchronize every later slot of a
// trial. The name dates from when the production planner batched its
// candidate scoring; the property it pins is unchanged.
func TestBatchedSlotRunnerMatchesScalar(t *testing.T) {
	chainClients := func(m int) int { return core.UplinkChainAssignment{M: m}.NumClients() }
	shapes := []struct {
		name         string
		clients, aps int
		antennas     int
		downlink     bool
		role         int
	}{
		{"uplink-three", 2, 2, 2, false, 1},
		{"uplink-chain-3ap", chainClients(2), 3, 2, false, 0},
		{"uplink-chain-5ap", chainClients(2), 5, 2, false, 2},
		{"uplink-chain-m3", chainClients(3), core.UplinkAPsNeeded(3), 3, false, 0},
		{"uplink-chain-m4", chainClients(4), core.UplinkAPsNeeded(4), 4, false, 0},
		{"downlink-triangle", 3, 3, 2, true, 0},
		{"downlink-diversity", 1, 2, 2, true, 0},
	}
	envs := []struct {
		name string
		env  Env
	}{
		{"default", Env{}},
		{"residual", Env{ResidualCancel: true}},
		{"mcs", Env{MCS: mimo.DefaultRateTable()}},
		{"mcs-residual", Env{ResidualCancel: true, MCS: mimo.DefaultRateTable()}},
	}
	for _, sh := range shapes {
		for _, ec := range envs {
			for _, cached := range []bool{false, true} {
				name := sh.name + "/" + ec.name
				if cached {
					name += "/cached"
				}
				t.Run(name, func(t *testing.T) {
					s := antennaScenario(21, sh.clients, sh.aps, sh.antennas)
					s.Env = ec.env
					seed := int64(91)

					run := func(production bool) (SlotOutcome, error, int64) {
						var cache *SlotCache
						if cached {
							cache = NewSlotCache(s)
							cache.TrackPlannedRates(true)
						}
						rng := rand.New(rand.NewSource(seed))
						var out SlotOutcome
						var err error
						switch {
						case !production:
							out, err = scalarSlot(cache, s, sh.downlink, sh.role, rng)
						case sh.downlink:
							ws := phy.GetWorkspace()
							out, err = RunDownlinkSlotWS(ws, cache, s, rng)
							phy.PutWorkspace(ws)
						default:
							ws := phy.GetWorkspace()
							out, err = RunUplinkSlotWS(ws, cache, s, sh.role, rng)
							phy.PutWorkspace(ws)
						}
						// The post-run draw witnesses the RNG stream position.
						return out, err, rng.Int63()
					}

					want, wantErr, wantDraw := run(false)
					got, gotErr, gotDraw := run(true)

					if (gotErr == nil) != (wantErr == nil) {
						t.Fatalf("error behavior diverged: runner=%v scalar=%v", gotErr, wantErr)
					}
					if gotDraw != wantDraw {
						t.Fatal("RNG stream diverged: the slot runner drew differently than the scalar search")
					}
					if wantErr != nil {
						if gotErr.Error() != wantErr.Error() {
							t.Fatalf("error text diverged: runner=%q scalar=%q", gotErr, wantErr)
						}
						return
					}
					if math.Float64bits(got.SumRate) != math.Float64bits(want.SumRate) {
						t.Fatalf("SumRate diverged: runner=%v scalar=%v", got.SumRate, want.SumRate)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("outcome diverged:\n runner=%+v\n scalar=%+v", got, want)
					}
				})
			}
		}
	}
}
