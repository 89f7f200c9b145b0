package testbed

import (
	"fmt"
	"math/rand"

	"iaclan/internal/cmplxmat"
	"iaclan/internal/core"
	"iaclan/internal/phy"
)

// SlotOutcome is one concurrent-transmission slot's result.
type SlotOutcome struct {
	// SumRate is the slot's total achievable rate (Eq. 9).
	SumRate float64
	// PerClient maps scenario client index to the rate its packets
	// achieved this slot.
	PerClient map[int]float64
	// PlannedPerClient maps scenario client index to the rate the leader
	// planned the client's packets at — the estimate-derived rate the MAC
	// selects its modulation from. Under stale CSI it can exceed what the
	// drifted channel actually carries (PerClient), which is how the
	// traffic engine detects outages. Filled only when planning through a
	// SlotCache with TrackPlannedRates on; nil otherwise.
	PlannedPerClient map[int]float64
	// Plan is the IAC plan that produced the outcome.
	Plan *core.Plan
}

// RunUplinkSlot plans and evaluates one IAC uplink slot for the scenario.
// twoPacketRole selects which client transmits two packets this slot
// (the paper rotates this role round-robin, Section 10.1). Supported
// shapes: 2 clients x 2 APs (three packets, Fig. 4b) and the N-AP chain
// — the chain assignment's client count with 3 or more APs (2M packets,
// Fig. 5/Fig. 8, successive cancellation spread across up to M+2 APs).
//
// Planning runs on estimated channels; SINRs are measured on the true
// ones. All intermediate math runs on a pooled workspace.
func RunUplinkSlot(s Scenario, twoPacketRole int, rng *rand.Rand) (SlotOutcome, error) {
	ws := phy.GetWorkspace()
	defer phy.PutWorkspace(ws)
	return RunUplinkSlotWS(ws, nil, s, twoPacketRole, rng)
}

// RunUplinkSlotWS is RunUplinkSlot with an explicit workspace and an
// optional channel memo. A nil cache draws fresh channel estimates for
// the slot (the paper's per-slot training); a non-nil cache reuses the
// epoch's per-pair estimates and skips re-deriving channel matrices.
func RunUplinkSlotWS(ws *phy.Workspace, cache *SlotCache, s Scenario, twoPacketRole int, rng *rand.Rand) (SlotOutcome, error) {
	nc, na := len(s.Clients), len(s.APs)
	if twoPacketRole < 0 || twoPacketRole >= nc {
		return SlotOutcome{}, fmt.Errorf("testbed: role %d out of range", twoPacketRole)
	}
	mark := ws.Mat.Mark()
	defer ws.Mat.Release(mark)
	// Order clients so the two-packet client sits at transmitter 0.
	order := ws.Mat.Ints(nc)
	order[0] = twoPacketRole
	for i, k := 0, 1; i < nc; i++ {
		if i != twoPacketRole {
			order[k] = i
			k++
		}
	}
	var baseTrue, baseEst core.ChannelSet
	if cache == nil {
		baseTrue = Permute(s.UplinkChannels(), order)
		baseEst = EstimateEnv(baseTrue, s.Env, rng)
	} else {
		baseTrue = core.NewChannelSet(nc, na)
		baseEst = core.NewChannelSet(nc, na)
		for i, o := range order {
			c := s.Clients[o]
			for j, ap := range s.APs {
				baseTrue[i][j] = cache.Channel(c, ap)
				baseEst[i][j] = cache.Estimated(c, ap, rng)
			}
		}
	}

	solve := func(ws *cmplxmat.Workspace, est core.ChannelSet) (*core.Plan, error) {
		m := est.Antennas()
		switch {
		case nc == 2 && na == 2:
			return core.SolveUplinkThreeWS(ws, est, rng)
		case na >= 3 && nc == (core.UplinkChainAssignment{M: m}).NumClients():
			return core.SolveUplinkChainWS(ws, est, rng)
		default:
			return nil, fmt.Errorf("testbed: unsupported uplink shape %dx%d", nc, na)
		}
	}
	track := (cache != nil && cache.trackPlanned) || s.Env.MCS != nil
	plan, trueCS, err := bestAssignment(ws.Mat, baseTrue, baseEst, false, solveAttempts(false, nc, na), solve, s.Env.planOpts(), track)
	if err != nil {
		return SlotOutcome{}, err
	}
	ev, err := plan.EvaluateOptsWS(ws.Mat, trueCS, plan.PlannedChannels, s.Env.trueOptsFor(plan.PlannedSINR))
	if err != nil {
		return SlotOutcome{}, err
	}
	return uplinkOutcome(plan, ev, s.Env, order), nil
}

// solveCandidates is how many solver attempts the leader evaluates per
// role assignment for a randomized construction: uplink three, the N-AP
// chain and downlink diversity draw random free vectors, so each
// attempt is a fresh candidate.
const solveCandidates = 3

// solveAttempts is the per-shape attempt count of the role-assignment
// search. The downlink triangle's closed form (Eqs. 5-7) draws no
// randomness: a repeat attempt reproduces the first bit for bit and
// cannot strictly beat it, so it is solved once per role assignment.
// Every other construction gets solveCandidates attempts.
func solveAttempts(downlink bool, clients, aps int) int {
	if downlink && clients == 3 && aps == 3 {
		return 1
	}
	return solveCandidates
}

// plannedPlan bundles a solved plan with the channel estimates it was
// planned against (in the plan's receiver order) and, when requested,
// the per-packet rates the planner scored it at on those estimates.
type plannedPlan struct {
	*core.Plan
	PlannedChannels core.ChannelSet
	// PlannedRate is the winner's estimated per-packet rate, copied out
	// of the workspace before its scratch is released. Nil unless the
	// assignment search ran with trackPlanned. In MCS mode the rates
	// are already quantized to the shared table.
	PlannedRate []float64
	// PlannedSINR is the winner's estimated per-packet SINR, tracked
	// alongside PlannedRate — the quantity the MCS outage rule compares
	// the realized SINR against.
	PlannedSINR []float64
}

// solveFunc is one construction solver bound to a slot shape, running its
// intermediate math on the given workspace.
type solveFunc func(ws *cmplxmat.Workspace, est core.ChannelSet) (*core.Plan, error)

// bestAssignment is the leader's role-assignment search: the concurrency
// algorithm decides which AP plays which role along with the vectors
// (Section 7.1). The search axis is the transmitters on the downlink
// (which AP carries which client's packet, every permutation) and the
// receivers on the uplink (rxOrders). For each role permutation it runs
// attempts solves on the permuted estimates and scores each candidate
// by its estimated sum rate (Section 7.2 estimates rates without
// transmitting); each candidate's scratch is released before the next.
// The first candidate to strictly beat the best so far wins. The winner
// comes back with the true channels permuted into its role order; if no
// candidate succeeds, the last solve or scoring error is returned.
func bestAssignment(ws *cmplxmat.Workspace, trueCS, estCS core.ChannelSet, downlink bool, attempts int, solve solveFunc, opts core.EvalOptions, trackPlanned bool) (plannedPlan, core.ChannelSet, error) {
	perms := rxOrders(estCS.NumRx())
	if downlink {
		perms = permutations(estCS.NumTx())
	}
	var best plannedPlan
	var bestPerm []int
	bestRate := -1.0
	var lastErr error
	for _, perm := range perms {
		est := permuteRoles(estCS, perm, downlink)
		for attempt := 0; attempt < attempts; attempt++ {
			mark := ws.Mark()
			plan, err := solve(ws, est)
			var ev core.Evaluation
			if err == nil {
				// Score with the planner's knowledge only (estimates).
				ev, err = plan.EvaluateOptsWS(ws, est, est, opts)
			}
			if err != nil {
				lastErr = err
			} else if ev.SumRate > bestRate {
				bestRate = ev.SumRate
				// Copy the candidate out of the workspace before the
				// release below reclaims its memory. The previous
				// winner's buffers are dead, so the copy reuses them.
				if best.Plan == nil {
					best.Plan = new(core.Plan)
				}
				best.Plan.CopyFrom(plan)
				best.PlannedChannels = est
				if trackPlanned {
					best.PlannedRate = append(best.PlannedRate[:0], ev.PacketRate...)
					if opts.Rate != nil {
						// Planner SINRs feed the MCS outage rule only;
						// dynamics-mode tracking skips them.
						best.PlannedSINR = append(best.PlannedSINR[:0], ev.SINR...)
					}
				}
				bestPerm = perm
			}
			ws.Release(mark)
		}
	}
	if best.Plan == nil {
		return plannedPlan{}, nil, lastErr
	}
	return best, permuteRoles(trueCS, bestPerm, downlink), nil
}

// permuteRoles applies a role permutation along the search axis:
// transmitters on the downlink, receivers on the uplink.
func permuteRoles(cs core.ChannelSet, perm []int, downlink bool) core.ChannelSet {
	if downlink {
		return Permute(cs, perm)
	}
	return PermuteRx(cs, perm)
}

// RunDownlinkSlot plans and evaluates one IAC downlink slot. Supported
// shapes: 3 APs x 3 clients (triangle, Fig. 6) and 2 APs x 1 client
// (diversity selection, Fig. 14).
func RunDownlinkSlot(s Scenario, rng *rand.Rand) (SlotOutcome, error) {
	ws := phy.GetWorkspace()
	defer phy.PutWorkspace(ws)
	return RunDownlinkSlotWS(ws, nil, s, rng)
}

// RunDownlinkSlotWS is RunDownlinkSlot with an explicit workspace and an
// optional channel memo (see RunUplinkSlotWS).
func RunDownlinkSlotWS(ws *phy.Workspace, cache *SlotCache, s Scenario, rng *rand.Rand) (SlotOutcome, error) {
	nc, na := len(s.Clients), len(s.APs)
	var baseTrue, baseEst core.ChannelSet
	if cache == nil {
		baseTrue = s.DownlinkChannels()
		baseEst = EstimateEnv(baseTrue, s.Env, rng)
	} else {
		baseTrue = core.NewChannelSet(na, nc)
		baseEst = core.NewChannelSet(na, nc)
		for i, ap := range s.APs {
			for j, c := range s.Clients {
				baseTrue[i][j] = cache.Channel(ap, c)
				baseEst[i][j] = cache.Estimated(ap, c, rng)
			}
		}
	}
	solve := func(ws *cmplxmat.Workspace, est core.ChannelSet) (*core.Plan, error) {
		switch {
		case nc == 3 && na == 3:
			return core.SolveDownlinkTriangleWS(ws, est)
		case nc == 1 && na == 2:
			return core.SolveDownlinkDiversity(est, rng, NodePower, s.Env.Noise())
		default:
			return nil, fmt.Errorf("testbed: unsupported downlink shape %dx%d clients/APs", nc, na)
		}
	}
	track := (cache != nil && cache.trackPlanned) || s.Env.MCS != nil
	plan, trueCS, err := bestAssignment(ws.Mat, baseTrue, baseEst, true, solveAttempts(true, nc, na), solve, s.Env.planOpts(), track)
	if err != nil {
		return SlotOutcome{}, err
	}
	mark := ws.Mat.Mark()
	defer ws.Mat.Release(mark)
	ev, err := plan.EvaluateOptsWS(ws.Mat, trueCS, plan.PlannedChannels, s.Env.trueOptsFor(plan.PlannedSINR))
	if err != nil {
		return SlotOutcome{}, err
	}
	return downlinkOutcome(plan, ev, s.Env), nil
}

// uplinkOutcome scatters one uplink evaluation into a SlotOutcome:
// packets map to clients through the slot's role order. Under the MCS
// table (discrete rate adaptation) each packet was committed to the
// rung its planned SINR selected; it delivers that rung's bits when the
// realized SINR clears the threshold, nothing on outage.
func uplinkOutcome(plan plannedPlan, ev core.Evaluation, env Env, order []int) SlotOutcome {
	out := SlotOutcome{SumRate: ev.SumRate, PerClient: map[int]float64{}, Plan: plan.Plan}
	if mcs := env.MCS; mcs != nil {
		out.SumRate = 0
		for pkt, owner := range plan.Owner {
			r := mcs.AchievedRate(plan.PlannedSINR[pkt], ev.SINR[pkt])
			out.PerClient[order[owner]] += r
			out.SumRate += r
		}
	} else {
		for pkt, owner := range plan.Owner {
			out.PerClient[order[owner]] += ev.PacketRate[pkt]
		}
	}
	if plan.PlannedRate != nil {
		out.PlannedPerClient = make(map[int]float64, len(out.PerClient))
		for pkt, owner := range plan.Owner {
			out.PlannedPerClient[order[owner]] += plan.PlannedRate[pkt]
		}
	}
	return out
}

// downlinkOutcome scatters one downlink evaluation into a SlotOutcome:
// downlink packets are destined to the receiver that decodes them, and
// each packet is attributed to that client.
func downlinkOutcome(plan plannedPlan, ev core.Evaluation, env Env) SlotOutcome {
	out := SlotOutcome{SumRate: ev.SumRate, PerClient: map[int]float64{}, Plan: plan.Plan}
	if plan.PlannedRate != nil {
		out.PlannedPerClient = make(map[int]float64, len(out.PerClient))
	}
	mcs := env.MCS
	if mcs != nil {
		out.SumRate = 0
	}
	for pkt := range plan.Owner {
		client := downlinkDestination(plan.Plan, pkt)
		if mcs != nil {
			r := mcs.AchievedRate(plan.PlannedSINR[pkt], ev.SINR[pkt])
			out.PerClient[client] += r
			out.SumRate += r
		} else {
			out.PerClient[client] += ev.PacketRate[pkt]
		}
		if out.PlannedPerClient != nil {
			out.PlannedPerClient[client] += plan.PlannedRate[pkt]
		}
	}
	return out
}

// downlinkDestination finds which receiver decodes the packet.
func downlinkDestination(plan *core.Plan, pkt int) int {
	for _, step := range plan.Schedule {
		for _, p := range step.Packets {
			if p == pkt {
				return step.Rx
			}
		}
	}
	return -1 // unreachable for validated plans
}

// AverageUplinkIAC runs one slot per two-packet role (the paper's
// round-robin) and returns the average sum rate.
func AverageUplinkIAC(s Scenario, rng *rand.Rand) (float64, error) {
	ws := phy.GetWorkspace()
	defer phy.PutWorkspace(ws)
	var total float64
	n := 0
	for role := 0; role < len(s.Clients); role++ {
		out, err := RunUplinkSlotWS(ws, nil, s, role, rng)
		if err != nil {
			return 0, err
		}
		total += out.SumRate
		n++
	}
	return total / float64(n), nil
}
