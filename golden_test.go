package iaclan

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"iaclan/internal/channel"
	"iaclan/internal/core"
	"iaclan/internal/exp"
	"iaclan/internal/mimo"
	"iaclan/internal/phy"
	"iaclan/internal/testbed"
)

// The golden table pins what the simulator outputs from one commit to
// the next: a SHA-256 per case of a canonical encoding of the case's
// result, and for the paper figures their headline metrics in print.
// Refactors that must not change behaviour leave the table
// byte-identical. Regenerate it only for a deliberate behaviour change,
// with `go test -run TestGolden -update .`, and record which cases moved
// and why.

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.txt from the current outputs")

const goldenPath = "testdata/golden.txt"

// canonical appends a type-directed, field-order encoding of v to buf:
// floats and complex parts as math.Float64bits, map entries sorted by
// their encoded keys, nil-ness of pointers, slices and maps recorded.
// Field names are not encoded, so the digest depends only on values.
func canonical(buf []byte, v reflect.Value) []byte {
	u64 := func(x uint64) { buf = binary.LittleEndian.AppendUint64(buf, x) }
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			u64(1)
		} else {
			u64(0)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		u64(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		u64(v.Uint())
	case reflect.Float32, reflect.Float64:
		u64(math.Float64bits(v.Float()))
	case reflect.Complex64, reflect.Complex128:
		c := v.Complex()
		u64(math.Float64bits(real(c)))
		u64(math.Float64bits(imag(c)))
	case reflect.String:
		u64(uint64(v.Len()))
		buf = append(buf, v.String()...)
	case reflect.Slice:
		if v.IsNil() {
			u64(math.MaxUint64)
			break
		}
		fallthrough
	case reflect.Array:
		u64(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			buf = canonical(buf, v.Index(i))
		}
	case reflect.Map:
		if v.IsNil() {
			u64(math.MaxUint64)
			break
		}
		type entry struct{ k, v []byte }
		entries := make([]entry, 0, v.Len())
		for it := v.MapRange(); it.Next(); {
			entries = append(entries, entry{canonical(nil, it.Key()), canonical(nil, it.Value())})
		}
		sort.Slice(entries, func(i, j int) bool { return bytes.Compare(entries[i].k, entries[j].k) < 0 })
		u64(uint64(len(entries)))
		for _, e := range entries {
			buf = append(append(buf, e.k...), e.v...)
		}
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			u64(0)
			break
		}
		u64(1)
		buf = canonical(buf, v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			buf = canonical(buf, v.Field(i))
		}
	default:
		panic(fmt.Sprintf("canonical: unsupported kind %v", v.Kind()))
	}
	return buf
}

// digest hashes the canonical encodings of vals in order.
func digest(vals ...any) string {
	var buf []byte
	for _, v := range vals {
		buf = canonical(buf, reflect.ValueOf(&v).Elem())
	}
	return fmt.Sprintf("%x", sha256.Sum256(buf))
}

type goldenCase struct {
	name string
	run  func(t *testing.T) string
}

// goldenSlotCases sweeps every supported slot shape — uplink three, N-AP
// chains at M = 2..4, downlink triangle and diversity — across the link
// variants (residual-cancel leakage, the discrete MCS table) and both
// channel paths (fresh per-slot training and the epoch cache with
// planned-rate tracking). Each case records the outcome, the error text
// and the RNG position after the slot.
func goldenSlotCases() []goldenCase {
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
		env  testbed.Env
	}{
		{"default", testbed.Env{}},
		{"residual", testbed.Env{ResidualCancel: true}},
		{"mcs", testbed.Env{MCS: mimo.DefaultRateTable()}},
		{"mcs-residual", testbed.Env{ResidualCancel: true, MCS: mimo.DefaultRateTable()}},
	}
	var cases []goldenCase
	for _, sh := range shapes {
		for _, ec := range envs {
			for _, cached := range []bool{false, true} {
				name := "slot/" + sh.name + "/" + ec.name
				if cached {
					name += "/cached"
				}
				cases = append(cases, goldenCase{name, func(t *testing.T) string {
					p := channel.DefaultParams()
					p.Antennas = sh.antennas
					w := channel.NewTestbed(p, 21, sh.clients+sh.aps+14, 12)
					s := testbed.PickScenario(w, sh.clients, sh.aps)
					s.Env = ec.env
					var cache *testbed.SlotCache
					if cached {
						cache = testbed.NewSlotCache(s)
						cache.TrackPlannedRates(true)
					}
					ws := phy.GetWorkspace()
					defer phy.PutWorkspace(ws)
					rng := rand.New(rand.NewSource(91))
					var out testbed.SlotOutcome
					var err error
					if sh.downlink {
						out, err = testbed.RunDownlinkSlotWS(ws, cache, s, rng)
					} else {
						out, err = testbed.RunUplinkSlotWS(ws, cache, s, sh.role, rng)
					}
					errText := ""
					if err != nil {
						errText = err.Error()
					}
					return digest(out.SumRate, out.PerClient, out.PlannedPerClient, out.Plan, errText, rng.Int63())
				}})
			}
		}
	}
	return cases
}

// goldenSimCases runs the public simulation entry points over a small
// matrix of planes: both link directions, channel dynamics with the
// SNR-aware link plane, the closed-loop transport under streaming, and
// multi-cell campuses, one per workload kind with dynamics and the full
// link plane on.
func goldenSimCases() []goldenCase {
	base := func() SimConfig {
		cfg := DefaultSimConfig()
		cfg.Seed = 5
		cfg.Clients = 6
		cfg.APs = 3
		cfg.Cycles = 60
		cfg.Trials = 2
		cfg.Workers = 2
		cfg.Workload = SimWorkload{Kind: WorkloadPoisson, PacketsPerSlot: 0.15}
		return cfg
	}
	single := func(cfg SimConfig) func(t *testing.T) string {
		return func(t *testing.T) string {
			res, err := Simulate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return digest(res)
		}
	}
	uplink := base()
	downlink := base()
	downlink.Uplink = false
	dyn := base()
	dyn.Dynamics = SimDynamics{Eps: 0.3, CoherenceCycles: 2, RetrainCycles: 8, TrainSlots: 2, Mobility: true}
	dyn.Link = SimLink{NoiseDB: 8, ResidualCancel: true, MCS: true}
	stream := base()
	stream.MaxRetries = 0
	stream.Workload = SimWorkload{Kind: WorkloadStreaming, PacketsPerSlot: 0.1, ChunkSlots: 30}
	stream.Transport = SimTransport{Enabled: true, RTOCycles: 2}
	campus := base()
	campus.APs = 4
	campus.Trials = 1
	campus.Cells = SimCells{Count: 3, Leak: 0.15}
	campusCase := func(cfg SimConfig) func(t *testing.T) string {
		return func(t *testing.T) string {
			res, err := SimulateCampus(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return digest(res)
		}
	}
	cases := []goldenCase{
		{"sim/uplink", single(uplink)},
		{"sim/downlink", single(downlink)},
		{"sim/dynamics-mcs-residual", single(dyn)},
		{"sim/transport-streaming", single(stream)},
		{"campus/3-cell", campusCase(campus)},
	}
	for _, kind := range []SimWorkloadKind{WorkloadSaturated, WorkloadCBR, WorkloadPoisson, WorkloadBursty} {
		cfg := base()
		cfg.Clients = 6
		cfg.APs = 4
		cfg.Cycles = 12
		cfg.Workers = 4
		cfg.Workload = SimWorkload{Kind: kind, PacketsPerSlot: 0.25}
		cfg.Cells = SimCells{Count: 3, Leak: 0.2}
		cfg.Dynamics = SimDynamics{Eps: 0.3, CoherenceCycles: 2, RetrainCycles: 4, TrainSlots: 2, Mobility: true}
		cfg.Link = SimLink{NoiseDB: 8, ResidualCancel: true, MCS: true}
		cases = append(cases, goldenCase{"campus/" + string(kind) + "-dynamics-mcs-residual", campusCase(cfg)})
	}
	return cases
}

// goldenExpCases pins the headline metrics of each paper figure at the
// quick experiment size. Unlike the digests above, each line spells its
// metrics out (name=value, sorted by name, 6 significant digits), so a
// deliberate change that moves a figure shows its delta in the diff, and
// last-bit rounding that leaves every figure where it was does not.
func goldenExpCases() []goldenCase {
	var cases []goldenCase
	for _, id := range []string{"fig12", "fig13a", "fig13b", "fig14", "fig15a", "fig15b", "fig16"} {
		cases = append(cases, goldenCase{"exp/" + id, func(t *testing.T) string {
			r, err := exp.Run(id, exp.QuickConfig())
			if err != nil {
				t.Fatal(err)
			}
			names := make([]string, 0, len(r.Metrics))
			for n := range r.Metrics {
				names = append(names, n)
			}
			sort.Strings(names)
			fields := make([]string, len(names))
			for i, n := range names {
				fields[i] = fmt.Sprintf("%s=%.6g", n, r.Metrics[n])
			}
			return strings.Join(fields, " ")
		}})
	}
	return cases
}

// TestGolden compares every case's line against the checked-in table.
func TestGolden(t *testing.T) {
	cases := append(append(goldenSlotCases(), goldenSimCases()...), goldenExpCases()...)
	var table strings.Builder
	got := make(map[string]string, len(cases))
	for _, c := range cases {
		got[c.name] = c.run(t)
		fmt.Fprintf(&table, "%s %s\n", c.name, got[c.name])
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(table.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, sum, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		want[name] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		switch w, ok := want[c.name]; {
		case !ok:
			t.Errorf("%s: missing from %s", c.name, goldenPath)
		case w != got[c.name]:
			t.Errorf("%s: digest %s, golden %s", c.name, got[c.name], w)
		}
		delete(want, c.name)
	}
	for name := range want {
		t.Errorf("%s: in %s but no longer run", name, goldenPath)
	}
}
