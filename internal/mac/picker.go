package mac

import (
	"math/rand"
	"slices"
	"sync"
)

// RateEstimator predicts the sum rate of a candidate transmission group
// without transmitting, the paper's sum log(1 + ||v^T H w||^2) estimate
// (Section 7.2). The testbed wires this to the alignment solver; MAC unit
// tests use synthetic functions. The group slice is the picker's scratch:
// it is valid only for the duration of the call and must not be kept.
type RateEstimator func(group []ClientID) float64

// GroupPicker selects which queued clients transmit concurrently.
//
// PickGroup receives the queue as client ids in FIFO arrival order
// (duplicates possible when a client has several queued packets) and the
// target group size; it returns the chosen group, always including the
// head-of-queue client first ("to prevent starvation and reduce delay").
// The returned group is freshly allocated and belongs to the caller; the
// picker never reads or writes it again. The queue is only read, and only
// during the call.
type GroupPicker interface {
	Name() string
	PickGroup(queue []ClientID, size int, est RateEstimator) []ClientID
}

// clientSet is a generation-stamped set of clients: reset empties it in
// O(1) by moving to a new generation, so the pickers' per-pick
// membership passes reuse one stamp array instead of building maps.
type clientSet struct {
	gen   uint32
	stamp []uint32 // stamp[c] == gen iff c is in the set
}

// reset empties the set. It must run before the set's first use.
func (s *clientSet) reset() {
	s.gen++
	if s.gen == 0 {
		// Wrapped: stamps from 2^32 generations ago would read as
		// members of the new one.
		clear(s.stamp)
		s.gen = 1
	}
}

// add inserts c and reports whether it was absent.
func (s *clientSet) add(c ClientID) bool {
	if int(c) >= len(s.stamp) {
		s.stamp = append(s.stamp, make([]uint32, int(c)+1-len(s.stamp))...)
	}
	if s.stamp[c] == s.gen {
		return false
	}
	s.stamp[c] = s.gen
	return true
}

// dedup is a picker's distinct-client scratch: the stamp set and the
// list it fills, both reused across picks.
type dedup struct {
	seen     clientSet
	distinct []ClientID
}

// dedupPool lends dedup scratch to the value-typed pickers (FIFO, brute
// force), which have no field to keep it in.
var dedupPool = sync.Pool{New: func() any { return new(dedup) }}

// distinctAfterHead returns the distinct clients in queue order with the
// head client first, for pickers that must not group a client with
// itself (a client contributes one packet per group). The result aliases
// d's scratch and is valid until the next call on d.
func (d *dedup) distinctAfterHead(queue []ClientID) []ClientID {
	d.seen.reset()
	d.distinct = d.distinct[:0]
	for _, c := range queue {
		if d.seen.add(c) {
			d.distinct = append(d.distinct, c)
		}
	}
	return d.distinct
}

// FIFOPicker combines packets "according to their arrivals in the FIFO
// queue": simple and fair, but oblivious to channel quality.
type FIFOPicker struct{}

// Name implements GroupPicker.
func (FIFOPicker) Name() string { return "fifo" }

// PickGroup implements GroupPicker.
func (FIFOPicker) PickGroup(queue []ClientID, size int, est RateEstimator) []ClientID {
	d := dedupPool.Get().(*dedup)
	defer dedupPool.Put(d)
	distinct := d.distinctAfterHead(queue)
	if len(distinct) == 0 {
		return nil
	}
	if size > len(distinct) {
		size = len(distinct)
	}
	return append([]ClientID(nil), distinct[:size]...)
}

// BruteForcePicker tries every combination of queued clients (with the
// head pinned) and keeps the rate-maximizing one. Throughput-optimal but
// combinatorial and unfair: clients with poor channels starve.
type BruteForcePicker struct{}

// Name implements GroupPicker.
func (BruteForcePicker) Name() string { return "brute-force" }

// PickGroup implements GroupPicker.
func (BruteForcePicker) PickGroup(queue []ClientID, size int, est RateEstimator) []ClientID {
	d := dedupPool.Get().(*dedup)
	defer dedupPool.Put(d)
	distinct := d.distinctAfterHead(queue)
	if len(distinct) == 0 {
		return nil
	}
	if size > len(distinct) {
		size = len(distinct)
	}
	head, rest := distinct[0], distinct[1:]
	best := append([]ClientID(nil), distinct[:size]...)
	bestRate := est(best)
	// Enumerate subsets of `rest` of size-1 via combination indices.
	k := size - 1
	if k <= 0 {
		return []ClientID{head}
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	for {
		group := make([]ClientID, 0, size)
		group = append(group, head)
		for _, i := range idx {
			group = append(group, rest[i])
		}
		if r := est(group); r > bestRate {
			bestRate = r
			best = group
		}
		// Next combination.
		i := k - 1
		for i >= 0 && idx[i] == len(rest)-k+i {
			i--
		}
		if i < 0 {
			break
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
	return best
}

// BestOfTwoPicker is IAC's concurrency algorithm (Section 7.2a): the head
// of queue is pinned; each remaining position gets two random candidates;
// the best of the resulting candidate groups by estimated rate wins.
// Credit counters guarantee that a client passed over often enough is
// eventually forced into a group, bounding unfairness.
//
// The picker keeps its per-pick lists in scratch it owns, so a pick
// allocates only the group it returns.
type BestOfTwoPicker struct {
	// CreditThreshold forces a client into the group once its counter
	// crosses this value. The paper does not publish its constant; 8
	// keeps forced picks rare while bounding starvation.
	CreditThreshold int

	rng     *rand.Rand
	credits []int // indexed by ClientID; grown to cover each queue

	// Per-pick scratch.
	dedup      dedup
	forced     []ClientID
	candidates [][2]ClientID
	trial      []ClientID
	best       []ClientID
}

// NewBestOfTwoPicker creates the picker with deterministic randomness.
func NewBestOfTwoPicker(seed int64, creditThreshold int) *BestOfTwoPicker {
	return &BestOfTwoPicker{
		CreditThreshold: creditThreshold,
		rng:             rand.New(rand.NewSource(seed)),
	}
}

// Name implements GroupPicker.
func (*BestOfTwoPicker) Name() string { return "best-of-two" }

// Credits exposes a client's current credit counter (for tests and
// fairness diagnostics).
func (p *BestOfTwoPicker) Credits(c ClientID) int {
	if int(c) >= len(p.credits) {
		return 0
	}
	return p.credits[c]
}

// PickGroup implements GroupPicker.
func (p *BestOfTwoPicker) PickGroup(queue []ClientID, size int, est RateEstimator) []ClientID {
	distinct := p.dedup.distinctAfterHead(queue)
	if len(distinct) == 0 {
		return nil
	}
	// The dedup stamps cover every queued id, so sizing the credits
	// alike gives each queued client a counter for the rest of the pick.
	if n := len(p.dedup.seen.stamp); len(p.credits) < n {
		p.credits = append(p.credits, make([]int, n-len(p.credits))...)
	}
	if size > len(distinct) {
		size = len(distinct)
	}
	head, rest := distinct[0], distinct[1:]
	if size == 1 || len(rest) == 0 {
		return []ClientID{head}
	}

	// Clients whose credit crossed the threshold are forced in first.
	forced := p.forced[:0]
	for _, c := range rest {
		if p.credits[c] >= p.CreditThreshold && len(forced) < size-1 {
			forced = append(forced, c)
		}
	}
	p.forced = forced

	// Two random candidates per remaining position. Every considered
	// client gains one credit here, however often it was drawn; the
	// picked ones are reset below, so only the considered-but-ignored
	// keep theirs. Nothing reads a credit between the two passes. The
	// dedup stamps are free for reuse: distinct is already built.
	slots := size - 1 - len(forced)
	candidates := p.candidates[:0]
	considered := &p.dedup.seen
	considered.reset()
	for s := 0; s < slots; s++ {
		a := rest[p.rng.Intn(len(rest))]
		b := rest[p.rng.Intn(len(rest))]
		candidates = append(candidates, [2]ClientID{a, b})
		for _, c := range [2]ClientID{a, b} {
			if considered.add(c) {
				p.credits[c]++
			}
		}
	}
	p.candidates = candidates

	// Evaluate the 2^slots combinations (4 for the paper's 3-client
	// groups) and keep the best by estimated rate, skipping combinations
	// with duplicate members.
	best := p.best[:0]
	found := false
	bestRate := -1.0
	for mask := 0; mask < 1<<uint(slots); mask++ {
		group := append(append(p.trial[:0], head), forced...)
		ok := true
		for s := 0; s < slots; s++ {
			c := candidates[s][(mask>>uint(s))&1]
			if slices.Contains(group, c) {
				ok = false
				break
			}
			group = append(group, c)
		}
		p.trial = group
		if !ok {
			continue
		}
		if r := est(group); r > bestRate {
			bestRate = r
			best = append(best[:0], group...)
			found = true
		}
	}
	if !found {
		// All combinations collided (tiny rest set): fall back to FIFO.
		best = append(append(best[:0], head), forced...)
		for _, c := range rest {
			if len(best) >= size {
				break
			}
			if !slices.Contains(best, c) {
				best = append(best, c)
			}
		}
	}
	p.best = best

	for _, c := range best {
		p.credits[c] = 0
	}
	return slices.Clone(best)
}
