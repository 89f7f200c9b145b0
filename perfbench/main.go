// Command perfbench is the repository's end-to-end benchmark. It drives
// the IAC simulator from outside, through sim.RunTrials, sim.RunCampus,
// exp.Run and the layer packages' exported functions, on four workloads
// that each load a different layer. It checks every output it reports
// and prints one JSON result as its last line.
//
// Build and run it from the repository root with run.sh:
//
//	bash perfbench/run.sh --workload lan-warm --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it repeats the workload's job for --seconds and reports
// the end-to-end metrics; with --trace 1 it runs the job untraced and
// then traced, and reports the per-layer metrics. README.md describes
// the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"syscall"
	"time"

	"iaclan/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// jobWorkers is the worker count, and the GOMAXPROCS, of every timed
// untraced job. On a small shared host a job spread over every CPU, or
// one whose GC runs on a second CPU, reads several times noisier than a
// job confined to one CPU (measured on a 2-vCPU VM: 19% against 7%
// run-to-run spread of wall_s at one seed). The parallel runner is
// measured by the traced run instead (campus.busy_frac).
const jobWorkers = 1

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: lan-warm, lan-fading, campus or paper-figures")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "measuring time of an untraced run, in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	once := fs.Bool("rep", false, "run the job once and print its outcome (the untraced run starts one process per job)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench: need --seconds > 0, --trace 0|1 and no positional arguments")
		return 2
	}
	var w *workload
	all := workloads(*seed)
	for i := range all {
		if all[i].name == *name {
			w = &all[i]
		}
	}
	if w == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *once {
		return runRep(w, stdout, stderr)
	}

	var (
		res = result{Metrics: map[string]metric{}}
		rep report
		err error
	)
	if *trace == 0 {
		err = measure(w, *seed, time.Duration(*seconds*float64(time.Second)), &res, &rep)
	} else {
		err = traced(w, *seed, &res, &rep)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			rep.errs = append(rep.errs, fmt.Sprintf("metric %s is %v", name, m.Value))
			res.Metrics[name] = metric{0, m.Unit}
			res.Failed = max(res.Failed, 1)
		}
	}
	res.Correct = res.Failed == 0 && len(rep.errs) == 0
	fmt.Fprintf(stdout, "perfbench: workload=%s seed=%d trace=%d digest=%s\n", w.name, *seed, *trace, rep.digest)
	for _, e := range rep.errs {
		fmt.Fprintf(stdout, "perfbench: FAILED %s\n", e)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// report carries what is printed above the result line.
type report struct {
	digest string
	errs   []string
}

// add folds one job's outcome into the result, failing all its ops when
// its digest differs from want (when want is set).
func (r *report) add(res *result, o outcome, what, want string) {
	res.Attempted += o.Ops
	res.Failed += o.Failed
	for _, e := range o.Errs {
		r.errs = append(r.errs, what+": "+e)
	}
	if want != "" && o.Digest != want {
		res.Failed += o.Ops - o.Failed
		r.errs = append(r.errs, fmt.Sprintf("%s: digest %s differs from %s", what, o.Digest, want))
	}
}

// repOutcome is what a --rep process prints: its job's outcome, host
// wall time and peak resident memory.
type repOutcome struct {
	Outcome outcome `json:"outcome"`
	WallS   float64 `json:"wall_s"`
	RSSMB   float64 `json:"rss_mb"`
}

func runRep(w *workload, stdout, stderr io.Writer) int {
	runtime.GOMAXPROCS(jobWorkers)
	t0 := time.Now()
	o := w.run(jobWorkers, nil, nil, nil)
	line, err := json.Marshal(repOutcome{o, time.Since(t0).Seconds(), peakRSSMB()})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// startRep runs the job once in a fresh process, so that each job's peak
// resident memory is its own, and waits for it.
func startRep(w *workload, seed int64) (repOutcome, error) {
	cmd := exec.Command(os.Args[0], "--workload", w.name, "--seed", strconv.FormatInt(seed, 10), "--rep")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return repOutcome{}, fmt.Errorf("job process: %w", err)
	}
	var r repOutcome
	if err := json.Unmarshal(out, &r); err != nil {
		return repOutcome{}, fmt.Errorf("job process output: %w", err)
	}
	return r, nil
}

// Untraced measurement bounds. Set-up is repeated between the jobs
// until it has taken a fifth of the run's time, so that set-up and jobs
// sample the same stretches of a shared host's speed. Jobs are started
// until the next one would end after the run's time is up, each at
// least a few times, so that every reported time is a median.
const (
	setupShare   = 5 // set-up takes 1/setupShare of the run
	minSetupReps = 5
	minJobReps   = 3
)

// measure is the untraced run: it reports the end-to-end metrics.
func measure(w *workload, seed int64, budget time.Duration, res *result, rep *report) error {
	runtime.GOMAXPROCS(jobWorkers)
	var setups, walls, rss []float64
	var setupTime time.Duration
	t0 := time.Now()
	for {
		r, err := startRep(w, seed)
		if err != nil {
			return err
		}
		walls = append(walls, r.WallS)
		rss = append(rss, r.RSSMB)
		if len(walls) == 1 {
			rep.digest = r.Outcome.Digest
			rep.add(res, r.Outcome, "run 1", "")
			res.Metrics["goodput_bits_per_slot"] = metric{r.Outcome.Goodput, "bit/slot"}
			res.Metrics["latency_p95_slots"] = metric{r.Outcome.P95, "slot"}
			res.Metrics["paper_gap_pct"] = metric{r.Outcome.GapPct, "%"}
		} else {
			// Equal seeds must replay bit for bit.
			rep.add(res, r.Outcome, fmt.Sprintf("run %d", len(walls)), rep.digest)
		}

		for len(setups) < minSetupReps || setupTime < time.Since(t0)/setupShare {
			// Each set-up starts on a collected heap, so that none pays for
			// the garbage of the one before it. The collection counts
			// toward the set-up share, or a set-up cheaper than it would
			// never catch up.
			g0 := time.Now()
			runtime.GC()
			s0 := time.Now()
			if err := w.setup(jobWorkers); err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
			setups = append(setups, time.Since(s0).Seconds())
			setupTime += time.Since(g0)
		}

		// A job and its share of set-up take about job × (1 + 1/(share-1)).
		next := time.Duration(median(walls) * float64(time.Second) * setupShare / (setupShare - 1))
		if len(walls) >= minJobReps && time.Since(t0)+next > budget {
			break
		}
	}
	res.Metrics["wall_s"] = metric{median(walls), "s"}
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Metrics["peak_rss_mb"] = metric{median(rss), "MB"}
	return nil
}

// traced is the traced run. It runs the job untraced on one worker (the
// reference, as in the untraced run), untraced on every CPU, and on
// every CPU with the gap tracer and a registry attached. All three must
// produce the same digest: neither the worker count nor observing may
// change a result. It then times the direct layer calls.
func traced(w *workload, seed int64, res *result, rep *report) error {
	workers := runtime.GOMAXPROCS(0)
	if workers == jobWorkers {
		workers++ // the check needs a different worker count
	}
	ref := w.run(jobWorkers, nil, nil, nil)
	rep.digest = ref.Digest
	rep.add(res, ref, "untraced", "")

	t0 := time.Now()
	par := w.run(workers, nil, nil, nil)
	wallPar := time.Since(t0).Seconds()
	rep.add(res, par, fmt.Sprintf("untraced, %d workers", workers), rep.digest)

	gt := newGapTracer(wallClock(), workers)
	reg := obs.NewRegistry()
	figs := map[string]float64{}
	t0 = time.Now()
	tr := w.run(workers, gt, reg, figs)
	wallTr := time.Since(t0).Seconds()
	rep.add(res, tr, fmt.Sprintf("traced, %d workers", workers), rep.digest)

	m := res.Metrics
	total := gt.trialTotal().Seconds()
	for b, name := range bucketNames {
		m["sim."+name+"_self_s"] = metric{gt.self[b].Seconds(), "s"}
	}
	m["sim.trial_s"] = metric{total, "s"}
	m["sim.attributed_frac"] = metric{ratio(total-gt.self[bucketOther].Seconds(), total), "frac"}
	m["sim.plans"] = metric{float64(gt.plans), "count"}
	m["sim.slots"] = metric{float64(gt.slots), "count"}
	m["sim.plans_per_slot"] = metric{ratio(float64(gt.plans), float64(gt.slots)), "ratio"}
	m["sim.decode_failures"] = metric{float64(gt.failures), "count"}

	snap := reg.Snapshot()
	hits, misses := float64(snap.Counters["slotcache_hits"]), float64(snap.Counters["slotcache_misses"])
	m["slotcache.hit_frac"] = metric{ratio(hits, hits+misses), "frac"}
	m["sched.timers_fired"] = metric{float64(snap.Counters["sim_timers_fired"]), "count"}
	m["transport.retransmits"] = metric{float64(snap.Counters["sim_transport_retransmits"]), "count"}

	m["campus.busy_frac"] = metric{ratio(total, float64(workers)*gt.window().Seconds()), "frac"}
	m["campus.trial_s_max"] = metric{gt.trialMax().Seconds(), "s"}
	m["trace.overhead_frac"] = metric{wallTr/wallPar - 1, "frac"}

	for _, id := range figures {
		m["exp."+id+"_s"] = metric{figs[id], "s"}
	}
	m["exp.fig14_frac_above_1"] = metric{tr.Fig14FracAbove1, "frac"}
	for _, c := range microCalls(seed) {
		ns, allocs := timeCall(c)
		m[c.name+"_ns"] = metric{ns, "ns"}
		m[c.name+"_allocs"] = metric{allocs, "allocs"}
	}
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
