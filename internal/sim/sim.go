// Package sim is a discrete-event LAN traffic engine that drives the
// whole IAC stack end-to-end over simulated time: pluggable per-client
// traffic generators feed the leader AP's FIFO queue, the PCF MAC
// (internal/mac) forms transmission groups cycle by cycle, the testbed
// layer (internal/testbed) plans and evaluates each concurrent slot on
// the simulated PHY, and the wired coordination plane (internal/backend)
// accounts every byte the APs exchange for cancellation.
//
// Time is measured in transmission slots. Each simulated CFP cycle is
// beacon -> contention-free period (one slot per transmission group,
// every client with pending traffic served once) -> CF-End -> a
// constant contention period, matching the paper's Section 7 MAC.
//
// Everything is deterministic given Config.Seed: a fixed seed replays
// the exact same run bit for bit, and the parallel trial runner
// (RunTrials) returns results identical to a serial sweep because each
// trial owns its world, RNG, and caches.
package sim

import (
	"fmt"
	"runtime"

	"iaclan/internal/obs"
)

// Picker names for Config.Picker.
const (
	PickerFIFO       = "fifo"
	PickerBestOfTwo  = "best-of-two"
	PickerBruteForce = "brute-force"
)

// Engine names for Config.Engine.
const (
	// EngineWheel is the default event-driven traffic plane: per-client
	// arrival timers on a hierarchical timing wheel (saturated workloads
	// use a MAC-drained dirty set instead), so a cycle costs the clients
	// with work, not the roster. The empty string selects it.
	EngineWheel = "wheel"
	// EngineScan is the legacy traffic plane that sweeps every client
	// every cycle. Bit-identical to EngineWheel by construction; kept as
	// the reference the equivalence tests and fuzzers pin the wheel
	// against, and as an escape hatch.
	EngineScan = "scan"
)

// maxClients is the hard cap on clients per cell: the MAC's wire format
// addresses clients with 16 bits (mac.ClientID), so one cell holds at
// most 65536 clients. Larger populations shard across Cells — a campus
// of 10 cells carries 10^5+ clients with per-cell ids staying in range.
const maxClients = 1 << 16

// Config parametrizes one simulation trial (and, via Trials/Workers,
// a trial sweep).
type Config struct {
	// Seed drives the world, the traffic, and the planner; equal seeds
	// reproduce runs exactly. Trial i of a sweep uses Seed+i.
	Seed int64
	// Clients and APs are drawn at random from a testbed world of
	// max(20, Clients+APs) nodes in a 12x12 m room.
	Clients int
	APs     int
	// Uplink selects the traffic direction (clients->APs or APs->clients).
	Uplink bool
	// Cycles is the number of CFP cycles to simulate.
	Cycles int
	// GroupSize is the transmission group size: 3 is the paper's IAC
	// testbed (3x3 slots), 2 uses the 2x2 uplink construction, and 1
	// degenerates to the 802.11-MIMO TDMA-style PCF baseline.
	GroupSize int
	// CPSlots is the constant contention-period length after each CFP.
	CPSlots int
	// MaxRetries bounds how often a lost packet is rescheduled. The
	// zero value is meaningful (drop on first loss) and is NOT filled
	// from Default; start from Default() for the paper-like 1-retry
	// behavior.
	MaxRetries int
	// MaxQueue caps each client's buffer; arrivals beyond it are dropped
	// at the client (counted as BufferDropped).
	MaxQueue int
	// Picker selects the concurrency algorithm (PickerFIFO,
	// PickerBestOfTwo, PickerBruteForce).
	Picker string
	// Engine selects the traffic plane: EngineWheel (the default; the
	// empty string means it too) runs the event-driven timing-wheel core
	// whose per-cycle cost scales with active clients, EngineScan the
	// legacy every-client-every-cycle sweep. The two are bit-identical —
	// EngineScan exists as the differential-testing reference and escape
	// hatch, not as a different model.
	Engine string
	// Workload is the per-client offered-load model.
	Workload Workload
	// Transport configures the per-client windowed transport above the
	// MAC: AIMD congestion windows clocked off the beacon ack map,
	// timeout-driven retransmission of final MAC drops, and optional
	// multi-AP striping of the uplink chain. The zero value is the
	// legacy open-loop model, bit for bit.
	Transport Transport
	// Dynamics configures time-varying channel state: block fading per
	// coherence interval, random-waypoint client mobility, and the
	// re-training schedule with its airtime cost. The zero value runs
	// the static channel of earlier revisions.
	Dynamics Dynamics
	// Link configures the SNR-aware link plane: the receiver-noise
	// operating point, imperfect-cancellation residuals, and the shared
	// discrete MCS rate/outage model. The zero value runs the legacy
	// link model (unit noise, exact cancellation, Shannon rates).
	Link Link
	// Cells configures the multi-cell campus plane: Count cells, each an
	// independent Clients x APs cluster, with inter-cell interference
	// leakage raising every cell's noise floor. Multi-cell configs run
	// through RunCampus; the single-trial Run rejects them. The zero
	// value is the single-cell LAN.
	Cells Cells
	// PacketBytes is the payload size of every data packet.
	PacketBytes int
	// Trials and Workers configure RunTrials-based sweeps: Trials
	// independent repetitions with seeds Seed..Seed+Trials-1, spread
	// over Workers goroutines (0 means all cores).
	Trials  int
	Workers int
	// Obs, when set, receives live metrics while the simulation runs:
	// counters, gauges, and latency quantile sketches a status server
	// or test can snapshot mid-sweep. Observability never perturbs
	// results — the engine only writes scalars into the registry, so a
	// run with Obs set is bit-identical to one without.
	Obs *obs.Registry
	// Trace, when set, receives structured lifecycle events (slots
	// planned and evaluated, decode failures, retraining, trial and
	// cell completion). Sweep workers emit concurrently, so a Tracer
	// must be safe for concurrent use. nil adds a single predicted
	// branch per would-be event and no allocation.
	Trace Tracer
	// cell and trial locate a derived single-trial config inside its
	// sweep, purely for tagging metrics and trace events; the runners
	// set them. They never feed into seeds or results.
	cell  int
	trial int
}

// Default returns the engine defaults: the acceptance scenario of a
// 10-client, 3-AP uplink under Poisson load.
func Default() Config {
	return Config{
		Seed:        1,
		Clients:     10,
		APs:         3,
		Uplink:      true,
		Cycles:      1000,
		GroupSize:   3,
		CPSlots:     2,
		MaxRetries:  1,
		MaxQueue:    64,
		Picker:      PickerBestOfTwo,
		Workload:    Workload{Kind: Poisson, PacketsPerSlot: 0.1},
		PacketBytes: 1440,
		Trials:      1,
	}
}

// withDefaults fills zero-valued fields from Default. Booleans, Seed,
// and MaxRetries are taken as given (their zero values are meaningful).
func (c Config) withDefaults() Config {
	d := Default()
	if c.Clients == 0 {
		c.Clients = d.Clients
	}
	if c.APs == 0 {
		c.APs = d.APs
	}
	if c.Cycles == 0 {
		c.Cycles = d.Cycles
	}
	if c.GroupSize == 0 {
		c.GroupSize = d.GroupSize
	}
	if c.CPSlots == 0 {
		c.CPSlots = d.CPSlots
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = d.MaxQueue
	}
	if c.Picker == "" {
		c.Picker = d.Picker
	}
	if c.Workload.Kind == "" {
		c.Workload = d.Workload
	}
	if c.PacketBytes == 0 {
		c.PacketBytes = d.PacketBytes
	}
	if c.Trials == 0 {
		c.Trials = 1
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	c.Transport = c.Transport.normalized()
	return c
}

// iacMode reports whether the MAC runs IAC transmission groups
// (GroupSize > 1) rather than the one-packet-per-slot 802.11-MIMO TDMA
// baseline (GroupSize == 1). This is the gate DESIGN.md's slot-shape
// rule refers to: the 1x2 downlink AP-diversity shape serves a lone
// group member in IAC mode only, while the baseline serves a lone
// downlink client at its best-AP 802.11-MIMO rate. On the downlink,
// validate restricts IAC mode to GroupSize 3.
func (c Config) iacMode() bool { return c.GroupSize > 1 }

// Validate reports whether the configuration, after zero-value fields
// are filled from Default, names a runnable simulation. It is the one
// validation gate every entry point (Run, RunTrials, RunSweep,
// RunCampus) applies, so callers can pre-flight a Config and rely on
// getting the same answer — and the same error text — the runners
// would give.
func (c Config) Validate() error {
	return c.withDefaults().validate()
}

// prepare is the runners' shared admission step: fill defaults, then
// validate. Keeping it one helper is what keeps every entry point's
// error text identical for the same bad Config.
func (c Config) prepare() (Config, error) {
	c = c.withDefaults()
	if err := c.validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}

// validate rejects configurations the slot shapes cannot serve.
func (c Config) validate() error {
	if c.Clients < 1 {
		return fmt.Errorf("sim: need at least one client")
	}
	if c.Clients > maxClients {
		return fmt.Errorf("sim: %d clients exceed the %d-per-cell MAC address space; shard across Cells", c.Clients, maxClients)
	}
	if c.APs < 1 {
		return fmt.Errorf("sim: need at least one AP")
	}
	if c.Cycles < 1 {
		return fmt.Errorf("sim: need at least one cycle")
	}
	if c.Trials < 0 {
		return fmt.Errorf("sim: Trials must be >= 0")
	}
	if c.GroupSize < 1 || c.GroupSize > 3 {
		return fmt.Errorf("sim: GroupSize %d unsupported (1..3)", c.GroupSize)
	}
	if c.GroupSize > 1 && c.APs < c.GroupSize {
		return fmt.Errorf("sim: GroupSize %d needs at least %d APs, have %d", c.GroupSize, c.GroupSize, c.APs)
	}
	if c.GroupSize > 1 && !c.Uplink && c.GroupSize != 3 {
		return fmt.Errorf("sim: downlink IAC supports GroupSize 3 (or 1 for the baseline), got %d", c.GroupSize)
	}
	if c.CPSlots < 1 {
		// Idle cycles must still advance time, or a silent network would
		// spin without progress.
		return fmt.Errorf("sim: CPSlots must be >= 1")
	}
	if c.MaxRetries < 0 {
		return fmt.Errorf("sim: MaxRetries must be >= 0")
	}
	if c.MaxQueue < 1 {
		return fmt.Errorf("sim: MaxQueue must be >= 1")
	}
	switch c.Picker {
	case PickerFIFO, PickerBestOfTwo, PickerBruteForce:
	default:
		return fmt.Errorf("sim: unknown picker %q", c.Picker)
	}
	switch c.Engine {
	case "", EngineWheel, EngineScan:
	default:
		return fmt.Errorf("sim: unknown engine %q", c.Engine)
	}
	if c.PacketBytes < 1 {
		return fmt.Errorf("sim: PacketBytes must be >= 1")
	}
	if err := c.Dynamics.validate(); err != nil {
		return err
	}
	if err := c.Link.validate(); err != nil {
		return err
	}
	if err := c.Cells.validate(); err != nil {
		return err
	}
	if err := c.Transport.validate(); err != nil {
		return err
	}
	if c.Transport.Enabled {
		if c.Workload.Kind == Saturated {
			// Saturated sources have no arrival process to window: the
			// engine tops queues up to a fixed depth, which is already a
			// (degenerate) closed loop.
			return fmt.Errorf("sim: Transport does not apply to the saturated workload")
		}
		if c.Transport.Stripes > 1 {
			if !c.Uplink {
				return fmt.Errorf("sim: Transport.Stripes needs an uplink (striping rotates the uplink chain's AP anchor)")
			}
			if c.Transport.Stripes > c.APs {
				return fmt.Errorf("sim: Transport.Stripes %d exceeds %d APs", c.Transport.Stripes, c.APs)
			}
		}
	}
	if err := c.Workload.validate(); err != nil {
		return err
	}
	if peak := c.Workload.peakPacketsPerSlot(); peak > float64(c.MaxQueue) {
		// Arrivals are generated one by one, so an unbounded rate is
		// unbounded work — and past MaxQueue per slot every slot's
		// arrivals overflow the whole buffer anyway.
		return fmt.Errorf("sim: %s peak arrival rate %v packets/slot exceeds MaxQueue %d", c.Workload.Kind, peak, c.MaxQueue)
	}
	return nil
}
