package mac

import "math/rand"

// mapBestOfTwo is the map-based best-of-two picker BestOfTwoPicker
// replaced, kept verbatim as the oracle FuzzBestOfTwoPicker holds the
// scratch-buffer picker to: same groups, same estimator calls, same RNG
// position and same credits.
type mapBestOfTwo struct {
	CreditThreshold int

	rng     *rand.Rand
	credits map[ClientID]int
}

func newMapBestOfTwo(seed int64, creditThreshold int) *mapBestOfTwo {
	return &mapBestOfTwo{
		CreditThreshold: creditThreshold,
		rng:             rand.New(rand.NewSource(seed)),
		credits:         make(map[ClientID]int),
	}
}

func (p *mapBestOfTwo) Credits(c ClientID) int { return p.credits[c] }

// mapDistinctAfterHead is the map-based dedup the pickers used.
func mapDistinctAfterHead(queue []ClientID) []ClientID {
	seen := map[ClientID]bool{}
	var out []ClientID
	for _, c := range queue {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

func (p *mapBestOfTwo) PickGroup(queue []ClientID, size int, est RateEstimator) []ClientID {
	distinct := mapDistinctAfterHead(queue)
	if len(distinct) == 0 {
		return nil
	}
	if size > len(distinct) {
		size = len(distinct)
	}
	head, rest := distinct[0], distinct[1:]
	if size == 1 || len(rest) == 0 {
		return []ClientID{head}
	}

	forced := make([]ClientID, 0, size-1)
	for _, c := range rest {
		if p.credits[c] >= p.CreditThreshold && len(forced) < size-1 {
			forced = append(forced, c)
		}
	}

	slots := size - 1 - len(forced)
	candidates := make([][2]ClientID, slots)
	considered := map[ClientID]bool{}
	for s := 0; s < slots; s++ {
		a := rest[p.rng.Intn(len(rest))]
		b := rest[p.rng.Intn(len(rest))]
		candidates[s] = [2]ClientID{a, b}
		considered[a] = true
		considered[b] = true
	}

	var best []ClientID
	bestRate := -1.0
	for mask := 0; mask < 1<<uint(slots); mask++ {
		group := make([]ClientID, 0, size)
		group = append(group, head)
		group = append(group, forced...)
		ok := true
		for s := 0; s < slots; s++ {
			c := candidates[s][(mask>>uint(s))&1]
			for _, g := range group {
				if g == c {
					ok = false
					break
				}
			}
			if !ok {
				break
			}
			group = append(group, c)
		}
		if !ok {
			continue
		}
		if r := est(group); r > bestRate {
			bestRate = r
			best = group
		}
	}
	if best == nil {
		best = append([]ClientID{head}, forced...)
		for _, c := range rest {
			if len(best) >= size {
				break
			}
			dup := false
			for _, g := range best {
				if g == c {
					dup = true
					break
				}
			}
			if !dup {
				best = append(best, c)
			}
		}
	}

	inGroup := map[ClientID]bool{}
	for _, c := range best {
		inGroup[c] = true
	}
	//iacvet:allow maprange independent per-key credit increments; no visit-order-dependent state or RNG draws
	for c := range considered {
		if !inGroup[c] {
			p.credits[c]++
		}
	}
	for _, c := range best {
		p.credits[c] = 0
	}
	return best
}
