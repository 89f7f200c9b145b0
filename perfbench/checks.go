package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"reflect"
	"sort"
	"strings"

	"iaclan/internal/exp"
	"iaclan/internal/sim"
	"iaclan/internal/stats"
)

// paperGains are the paper's ten headline gains the reproduction is
// measured against: figure id, metric name, the paper's number.
var paperGains = []struct {
	id, metric string
	paper      float64
}{
	{"fig12", "gain_mean", 1.5},
	{"fig13a", "gain_mean", 1.8},
	{"fig13b", "gain_mean", 1.4},
	{"fig14", "gain_mean", 1.2},
	{"fig15a", "gain_mean_brute_force", 2.32},
	{"fig15a", "gain_mean_fifo", 1.90},
	{"fig15a", "gain_mean_best_of_two", 2.08},
	{"fig15b", "gain_mean_brute_force", 1.58},
	{"fig15b", "gain_mean_fifo", 1.23},
	{"fig15b", "gain_mean_best_of_two", 1.52},
}

// noFigureGapPct is paper_gap_pct for a run that reproduces none of the
// paper's gains: every gain counts as 0, which is 100% away from it.
const noFigureGapPct = 100

// paperGapPct is the mean relative distance, in percent, of the ten
// reproduced headline gains from the paper's numbers. A gain the
// results lack counts as 0.
func paperGapPct(results map[string]exp.Result) float64 {
	var sum float64
	for _, g := range paperGains {
		v := results[g.id].Metrics[g.metric]
		sum += math.Abs(v-g.paper) / g.paper
	}
	return 100 * sum / float64(len(paperGains))
}

// bandFigures are the figures held to the repository's conformance
// bands (conformance_test.go): the paper's mean gain, which the mean
// and the median per-draw gain must stay within ±25% of.
var bandFigures = map[string]float64{"fig12": 1.5, "fig13a": 1.8, "fig13b": 1.4, "fig14": 1.2}

const (
	bandTol      = 0.25
	minFracAbove = 0.6
)

// checkFigure returns what is wrong with one figure's result, or "".
// Metrics must be finite, fractions in [0, 1] and fairness in (0, 1].
// A banded figure run with the given number of draws must also keep at
// least half of them feasible and its mean and median gain inside the
// band. With conformance set, it must also beat the baseline in at
// least 60% of the draws, as the conformance suite asserts at its own
// configuration. That share is not held at other seeds: over 40 draws
// it is a sample of a fraction that sits between 0.58 and 0.70 in
// fig14's worlds, and it falls below 0.6 at about one seed in five.
func checkFigure(r exp.Result, trials int, conformance bool) string {
	for _, name := range sortedKeys(r.Metrics) {
		v := r.Metrics[name]
		switch {
		case math.IsNaN(v) || math.IsInf(v, 0):
			return fmt.Sprintf("metric %s is %v", name, v)
		case strings.HasPrefix(name, "frac") && (v < 0 || v > 1):
			return fmt.Sprintf("fraction %s = %v outside [0, 1]", name, v)
		case strings.HasPrefix(name, "jain") && (v <= 0 || v > 1):
			return fmt.Sprintf("fairness %s = %v outside (0, 1]", name, v)
		}
	}
	paper, banded := bandFigures[r.ID]
	if !banded {
		return ""
	}
	if n := r.Metrics["trials"]; n < float64(trials)/2 {
		return fmt.Sprintf("only %.0f of %d draws feasible", n, trials)
	}
	inBand := func(g float64) bool { return g >= paper*(1-bandTol) && g <= paper*(1+bandTol) }
	if g := r.Metrics["gain_mean"]; !inBand(g) {
		return fmt.Sprintf("gain_mean %.4f outside the band %.2f±%.0f%%", g, paper, 100*bandTol)
	}
	base, iac := r.Series["baseline"], r.Series["iac"]
	if len(base) != len(iac) {
		return fmt.Sprintf("malformed gain series: %d baseline vs %d iac", len(base), len(iac))
	}
	var gains []float64
	for i := range base {
		if base[i] > 0 {
			gains = append(gains, iac[i]/base[i])
		}
	}
	if g := stats.Median(gains); !inBand(g) {
		return fmt.Sprintf("median gain %.4f outside the band %.2f±%.0f%%", g, paper, 100*bandTol)
	}
	if f := r.Metrics["fraction_above_1"]; conformance && f < minFracAbove {
		return fmt.Sprintf("fraction_above_1 %.3f below %.1f", f, minFracAbove)
	}
	return ""
}

// checkTrial returns what is wrong with one trial, or "": every client
// conserves packets, fractions lie in [0, 1], fairness in (0, 1], and no
// reported number is NaN or infinite.
func checkTrial(tr sim.TrialResult) string {
	for i, c := range tr.PerClient {
		if c.Offered < 0 || c.Delivered < 0 || c.Dropped < 0 || c.BufferDropped < 0 {
			return fmt.Sprintf("client %d has a negative packet count", i)
		}
		if c.Delivered+c.Dropped+c.BufferDropped > c.Offered {
			return fmt.Sprintf("client %d: delivered %d + dropped %d + buffer-dropped %d > offered %d",
				i, c.Delivered, c.Dropped, c.BufferDropped, c.Offered)
		}
		if msg := nonFinite(c); msg != "" {
			return fmt.Sprintf("client %d: %s", i, msg)
		}
	}
	if msg := nonFinite(tr); msg != "" {
		return msg
	}
	return checkShares(tr.DeliveredFraction, tr.JainFairness)
}

// checkSummary returns what is wrong with an aggregate, or "": the
// totals conserve packets, something was delivered, and the shares and
// numbers are well formed as in checkTrial.
func checkSummary(s sim.Summary) string {
	if s.DeliveredPackets+s.DroppedPackets+s.BufferDroppedPackets > s.OfferedPackets {
		return fmt.Sprintf("delivered %d + dropped %d + buffer-dropped %d > offered %d",
			s.DeliveredPackets, s.DroppedPackets, s.BufferDroppedPackets, s.OfferedPackets)
	}
	if s.DeliveredPackets <= 0 {
		return "no packet delivered"
	}
	if msg := nonFinite(s); msg != "" {
		return msg
	}
	return checkShares(s.DeliveredFraction, s.JainFairness)
}

func checkShares(delivered, jain float64) string {
	if delivered < 0 || delivered > 1 {
		return fmt.Sprintf("delivered fraction %v outside [0, 1]", delivered)
	}
	if jain <= 0 || jain > 1 {
		return fmt.Sprintf("Jain fairness %v outside (0, 1]", jain)
	}
	return ""
}

// nonFinite names the first NaN or infinite float among v's exported
// fields, following nested structs and slices but not pointers.
func nonFinite(v any) string {
	return nonFiniteValue(reflect.ValueOf(v), reflect.TypeOf(v).Name())
}

func nonFiniteValue(v reflect.Value, path string) string {
	switch v.Kind() {
	case reflect.Float32, reflect.Float64:
		if f := v.Float(); math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Sprintf("%s is %v", path, f)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.IsExported() {
				if msg := nonFiniteValue(v.Field(i), path+"."+f.Name); msg != "" {
					return msg
				}
			}
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if msg := nonFiniteValue(v.Index(i), fmt.Sprintf("%s[%d]", path, i)); msg != "" {
				return msg
			}
		}
	}
	return ""
}

// digest is a SHA-256 over every simulated output a job produced: each
// float as its math.Float64bits, each integer, bool and string as is,
// following structs (unexported fields too), pointers, slices and maps
// in sorted key order. It skips fields named Workers, which record the
// worker-pool size the runner used rather than anything simulated, so
// equal digests mean bit-identical results.
type digest struct{ h hash.Hash }

func (d *digest) fold(v any) {
	if d.h == nil {
		d.h = sha256.New()
	}
	foldValue(d.h, reflect.ValueOf(v))
}

func (d *digest) String() string {
	if d.h == nil {
		return "empty"
	}
	return hex.EncodeToString(d.h.Sum(nil))
}

func foldValue(h hash.Hash, v reflect.Value) {
	var b [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	switch v.Kind() {
	case reflect.Float32, reflect.Float64:
		put(math.Float64bits(v.Float()))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		put(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		put(v.Uint())
	case reflect.Bool:
		if v.Bool() {
			put(1)
		} else {
			put(0)
		}
	case reflect.String:
		put(uint64(v.Len()))
		h.Write([]byte(v.String()))
	case reflect.Pointer:
		if v.IsNil() {
			put(0)
			return
		}
		put(1)
		foldValue(h, v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).Name != "Workers" {
				foldValue(h, v.Field(i))
			}
		}
	case reflect.Slice, reflect.Array:
		put(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			foldValue(h, v.Index(i))
		}
	case reflect.Map:
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
		put(uint64(len(keys)))
		for _, k := range keys {
			foldValue(h, k)
			foldValue(h, v.MapIndex(k))
		}
	default:
		panic(fmt.Sprintf("digest: unsupported kind %s", v.Kind()))
	}
}

// sortedKeys returns a map's keys in order, for deterministic walks.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
