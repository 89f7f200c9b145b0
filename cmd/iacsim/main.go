// Command iacsim sustains traffic through the IAC stack over simulated
// time: traffic generators feed the PCF MAC, transmission groups run on
// the simulated PHY, and the wired backend bytes are metered. It prints
// per-client throughput/latency, Jain fairness, and the backend load,
// optionally against the TDMA-style one-packet-per-slot baseline.
//
// Usage:
//
//	iacsim -clients 10 -aps 3 -cycles 1000 -workload poisson -load 0.1
//	iacsim -workload bursty -load 0.15 -duty 0.25 -trials 8 -compare
//	iacsim -dir down -workload saturated -picker brute-force
//	iacsim -workload saturated -eps 0.35 -retrain 8 -mobility -compare
//	iacsim -workload saturated -noise-db 12 -residual -mcs -compare
//	iacsim -workload streaming -load 0.1 -chunk 30 -transport -noise-db 6 -mcs -residual
//	iacsim -aps 4 -cells 4 -leak 0.15 -workload saturated -mcs
//	iacsim -cells 4 -trials 8 -status-addr localhost:8080   # live metrics at /status
//	iacsim -cells 4 -trials 16 -pprof-addr localhost:6060   # live profiles
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"iaclan"
)

func main() {
	var (
		dir      = flag.String("dir", "up", "direction: up or down")
		clients  = flag.Int("clients", 10, "number of clients")
		aps      = flag.Int("aps", 3, "number of APs")
		cycles   = flag.Int("cycles", 1000, "CFP cycles to simulate")
		group    = flag.Int("group", 3, "transmission group size (1 = TDMA baseline)")
		picker   = flag.String("picker", "best-of-two", "concurrency algorithm: fifo, best-of-two, brute-force")
		workload = flag.String("workload", "poisson", "traffic model: saturated, cbr, poisson, bursty, streaming")
		load     = flag.Float64("load", 0.1, "offered load per client in packets/slot")
		duty     = flag.Float64("duty", 0.2, "bursty on-fraction")
		burst    = flag.Float64("burst", 20, "bursty mean on-period in slots")

		chunk         = flag.Float64("chunk", 0, "streaming chunk period in slots (0 = default)")
		startupChunks = flag.Int("startup-chunks", 0, "streaming chunks buffered before playback starts (0 = default)")
		sleepFrac     = flag.Float64("sleep-frac", 0, "streaming radio sleep power as a fraction of awake (0 = default)")

		transport = flag.Bool("transport", false, "closed-loop transport: AIMD windows clocked off the beacon, RTO retransmits of MAC-dropped packets")
		window    = flag.Int("window", 0, "transport initial congestion window in packets (0 = default)")
		rto       = flag.Int("rto", 0, "transport retransmission timeout in CFP cycles (0 = default)")
		retx      = flag.Int("retx", 0, "transport max retransmissions per packet (0 = default)")
		stripes   = flag.Int("stripes", 0, "rotate the uplink chain's AP anchor across this many APs (0/1 = off)")
		trials    = flag.Int("trials", 1, "independent trials (seeds seed..seed+trials-1)")
		workers   = flag.Int("workers", 0, "parallel trial workers (0 = all cores)")
		seed      = flag.Int64("seed", 1, "random seed")
		compare   = flag.Bool("compare", false, "also run the TDMA-style GroupSize=1 baseline and report the gain")

		eps        = flag.Float64("eps", 0, "block-fading innovation per coherence interval in [0,1] (0 = static channel)")
		coherence  = flag.Int("coherence", 1, "coherence interval in CFP cycles")
		retrain    = flag.Int("retrain", 0, "re-training period in CFP cycles (0 = every coherence interval)")
		trainSlots = flag.Int("train-slots", 2, "airtime slots charged per re-training round")
		mobility   = flag.Bool("mobility", false, "random-waypoint client mobility")
		speed      = flag.Float64("speed", 0.5, "mobile client speed in meters per coherence interval")

		noiseDB  = flag.Float64("noise-db", 0, "receiver noise power in dB over the unit-noise convention (lowers every link's SNR by this much)")
		residual = flag.Bool("residual", false, "imperfect cancellation: residues scale with the decoded packet's error")
		mcs      = flag.Bool("mcs", false, "discrete MCS rate adaptation with per-packet outage for both schemes")

		cells = flag.Int("cells", 1, "multi-cell campus: number of cells (each -clients x -aps)")
		leak  = flag.Float64("leak", 0.1, "inter-cell interference leakage per neighbour cell in [0,1]")

		statusAddr = flag.String("status-addr", "", "serve live metrics on this host:port while the simulation runs (GET /status for JSON, /debug/vars for expvar); empty disables")
		pprofAddr  = flag.String("pprof-addr", "", "serve net/http/pprof on this host:port while the simulation runs (profiles at /debug/pprof/); empty disables")
	)
	flag.Parse()
	if *dir != "up" && *dir != "down" {
		log.Fatalf("iacsim: -dir must be 'up' or 'down', got %q", *dir)
	}

	cfg := iaclan.DefaultSimConfig()
	cfg.Seed = *seed
	cfg.Clients = *clients
	cfg.APs = *aps
	cfg.Uplink = *dir == "up"
	cfg.Cycles = *cycles
	cfg.GroupSize = *group
	cfg.Picker = *picker
	// The flag strings are the sim.WorkloadKind names; Simulate
	// validates unknown kinds.
	cfg.Workload = iaclan.SimWorkload{
		Kind:           iaclan.SimWorkloadKind(*workload),
		PacketsPerSlot: *load,
		Duty:           *duty,
		MeanBurstSlots: *burst,
		ChunkSlots:     *chunk,
		StartupChunks:  *startupChunks,
		SleepFraction:  *sleepFrac,
	}
	if *transport {
		cfg.Transport = iaclan.SimTransport{
			Enabled:        true,
			Window:         *window,
			RTOCycles:      *rto,
			MaxRetransmits: *retx,
			Stripes:        *stripes,
		}
	} else if *window != 0 || *rto != 0 || *retx != 0 || *stripes != 0 {
		log.Fatal("iacsim: -window/-rto/-retx/-stripes need -transport")
	}
	cfg.Trials = *trials
	cfg.Workers = *workers
	if *eps > 0 || *mobility {
		cfg.Dynamics = iaclan.SimDynamics{
			Eps:                    *eps,
			CoherenceCycles:        *coherence,
			RetrainCycles:          *retrain,
			TrainSlots:             *trainSlots,
			Mobility:               *mobility,
			SpeedMetersPerInterval: *speed,
		}
	}
	cfg.Link = iaclan.SimLink{NoiseDB: *noiseDB, ResidualCancel: *residual, MCS: *mcs}
	if *statusAddr != "" {
		// The live metrics plane: the engine publishes counters and the
		// pooled latency sketch into the registry while trials run, and
		// the status server snapshots it on demand. Attaching it never
		// perturbs results (runs are bit-identical with and without).
		cfg.Obs = iaclan.NewObsRegistry()
		srv, err := iaclan.ServeObs(*statusAddr, cfg.Obs)
		if err != nil {
			log.Fatalf("iacsim: status server: %v", err)
		}
		defer srv.Close()
		fmt.Printf("status server: http://%s/status\n", srv.Addr())
	}
	if *pprofAddr != "" {
		// The profiling plane: registering net/http/pprof's handlers on
		// their own mux (not DefaultServeMux) keeps the endpoint opt-in
		// and separate from the metrics server. Like -status-addr it
		// never perturbs results.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		ln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			log.Fatalf("iacsim: pprof server: %v", err)
		}
		defer ln.Close()
		go func() {
			if err := http.Serve(ln, mux); err != nil && !errors.Is(err, net.ErrClosed) {
				log.Printf("iacsim: pprof server: %v", err)
			}
		}()
		fmt.Printf("pprof server: http://%s/debug/pprof/\n", ln.Addr())
	}
	if *cells != 1 {
		// Pass non-default values through even when invalid (negative
		// counts, leak out of range) so the engine's validation reports
		// them instead of silently running a single cell.
		cfg.Cells = iaclan.SimCells{Count: *cells, Leak: *leak}
	}

	fmt.Printf("IAC traffic simulation: %d clients, %d APs, %s-link, %s load %.3g pkt/slot, %d cycles x %d trials\n",
		cfg.Clients, cfg.APs, *dir, *workload, *load, cfg.Cycles, cfg.Trials)
	if *eps > 0 || *mobility {
		// RetrainCycles 0 defaults to the coherence interval (see
		// SimDynamics); any explicit value is taken as given.
		period := *retrain
		if period == 0 {
			period = *coherence
		}
		fmt.Printf("channel dynamics: eps %.3g every %d cycles, mobility %v, re-train every %d cycles (%d slots each)\n",
			*eps, *coherence, *mobility, period, *trainSlots)
	}
	if *noiseDB != 0 || *residual || *mcs {
		fmt.Printf("link plane: noise %+.3g dB, residual cancellation %v, discrete MCS %v\n",
			*noiseDB, *residual, *mcs)
	}
	if *transport {
		fmt.Printf("transport: AIMD windows + RTO retransmits (window %d, rto %d cycles, retx %d, stripes %d; 0 = engine default)\n",
			*window, *rto, *retx, *stripes)
	}
	if *cells > 1 {
		fmt.Printf("campus: %d cells x (%d clients, %d APs), leakage %.2g per neighbour\n",
			*cells, cfg.Clients, cfg.APs, *leak)
		start := time.Now()
		res, err := iaclan.SimulateCampus(cfg)
		if err != nil {
			log.Fatal(err)
		}
		wall := time.Since(start)
		fmt.Printf("\n%-6s %-18s %-12s %-10s\n", "cell", "thr [bits/slot]", "delivered", "p95 lat")
		for i, c := range res.PerCell {
			fmt.Printf("%-6d %-18.1f %-12s %-10.1f\n",
				i, c.SumThroughputBitsPerSlot,
				fmt.Sprintf("%.1f%%", 100*c.DeliveredFraction), c.P95LatencySlots)
		}
		fmt.Println("\ncampus aggregate:")
		fmt.Print(res.Campus)
		fmt.Printf("wall time %v (%d workers)\n", wall.Round(time.Millisecond), res.Campus.Workers)
		if *compare && cfg.GroupSize > 1 {
			base := cfg
			base.GroupSize = 1
			base.Picker = iaclan.PickerFIFO
			bres, err := iaclan.SimulateCampus(base)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("\nTDMA baseline campus: %.1f bits/slot, latency mean %.1f slots\n",
				bres.Campus.SumThroughputBitsPerSlot, bres.Campus.MeanLatencySlots)
			if bres.Campus.SumThroughputBitsPerSlot > 0 {
				fmt.Printf("IAC throughput gain: %.2fx\n",
					res.Campus.SumThroughputBitsPerSlot/bres.Campus.SumThroughputBitsPerSlot)
			}
		}
		return
	}

	start := time.Now()
	res, err := iaclan.Simulate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	wall := time.Since(start)

	fmt.Printf("\n%-7s %-16s\n", "client", "thr [bits/slot]")
	for i, thr := range res.PerClientThroughput {
		fmt.Printf("%-7d %-16.1f\n", i, thr)
	}
	fmt.Println()
	fmt.Print(res)
	fmt.Printf("wall time %v (%d workers)\n", wall.Round(time.Millisecond), res.Workers)

	if *compare && cfg.GroupSize > 1 {
		base := cfg
		base.GroupSize = 1
		base.Picker = iaclan.PickerFIFO
		bres, err := iaclan.Simulate(base)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nTDMA baseline: %.1f bits/slot, latency mean %.1f slots\n",
			bres.SumThroughputBitsPerSlot, bres.MeanLatencySlots)
		if bres.SumThroughputBitsPerSlot > 0 {
			fmt.Printf("IAC throughput gain: %.2fx\n", res.SumThroughputBitsPerSlot/bres.SumThroughputBitsPerSlot)
		}
		if res.MeanLatencySlots > 0 {
			fmt.Printf("IAC latency speedup: %.2fx\n", bres.MeanLatencySlots/res.MeanLatencySlots)
		}
	}
}
