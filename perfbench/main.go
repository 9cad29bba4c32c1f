// Command perfbench is the repository's benchmark. It drives the hcd
// packages from outside, through their exported functions only, on one of
// four workloads:
//
//	build        cold hierarchy builds, decompositions and snapshot round trips on oct:64
//	solve-k1     warm scalar PCG on grid3d:48 (the paper's Fig. 6 weighted 3D grid)
//	solve-k8     warm block PCG, 8 right-hand sides per request, on femesh:300
//	serve-mixed  open- and closed-loop HTTP traffic against an in-process serve.Server
//
// Every answer is checked; a wrong one fails its operation and makes the
// command exit non-zero. The last line of standard output is one JSON object
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1); the lines before it are a human-readable report that also
// names the workload-specific metrics. Run it from the repository root:
//
//	bash perfbench/run.sh --workload solve-k1 --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 20
//
// registry.json next to this file records what each workload and metric
// means, which end-to-end metric each layer metric should move, the host
// the bounds were fixed on, and the counts that must repeat exactly.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"hcd/internal/obs"
)

// procStart is as close to process start as the program can observe; the
// first set-up is timed from it.
var procStart = time.Now()

const (
	// A workload sets itself up at least minSetupReps times, and more, up to
	// maxSetupReps, until set-up has taken setupBudget in all; setup_s is
	// the median, so one slow set-up does not move it, and a cheap set-up
	// gets enough repetitions for a steady median.
	minSetupReps = 3
	maxSetupReps = 15
	setupBudget  = time.Second
	// tailBeyond is how many samples the reported tail percentile must have
	// beyond it.
	tailBeyond = 10
	// maxWrong caps the failed-check messages echoed to standard error.
	maxWrong = 10
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// run is one workload invocation: its inputs, its operation counts and the
// metrics it reports.
type run struct {
	seed    int64
	seconds time.Duration
	trace   bool

	attempted, failed int
	wrong             []string

	e2e    metrics            // gated end-to-end metrics (--trace 0)
	layers map[string]float64 // per-layer metrics (--trace 1), units in perLayer
	report []string           // named workload metrics and notes, printed before the JSON line
}

func newRun(seed int64, seconds time.Duration, trace bool) *run {
	return &run{seed: seed, seconds: seconds, trace: trace, e2e: metrics{}, layers: map[string]float64{}}
}

// notef adds a line to the human-readable report.
func (r *run) notef(format string, args ...any) {
	r.report = append(r.report, fmt.Sprintf(format, args...))
}

// named reports one of the workload-specific metrics the report lists by
// name (build_ms_p50, rhs_per_s, latency_ms_p99, ...).
func (r *run) named(name, unit string, v float64) {
	r.notef("%-22s %14.4f %s", name, v, unit)
}

// record counts one operation and, when err is non-nil, its failure.
func (r *run) record(err error) {
	r.attempted++
	if err == nil {
		return
	}
	r.failed++
	if len(r.wrong) < maxWrong {
		r.wrong = append(r.wrong, err.Error())
	}
}

// setup runs rep as the set-up repetition constants say and reports the
// median duration as setup_s. The first repetition is timed from process
// start, so it also carries the runtime's own start-up; the last one's state
// is what the workload measures.
func (r *run) setup(rep func() error) error {
	var ds []float64
	total := 0.0
	for i := 0; i < minSetupReps || (total < setupBudget.Seconds() && i < maxSetupReps); i++ {
		start := procStart
		if i > 0 {
			// Free the previous set-up first, so peak memory is one set-up's.
			runtime.GC()
			start = time.Now()
		}
		if err := rep(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		ds = append(ds, time.Since(start).Seconds())
		total += ds[i]
	}
	r.e2e.set("setup_s", "s", median(ds))
	r.notef("set-up: %d repetitions", len(ds))
	return nil
}

// measure calls op until d has passed (at least once) and returns the
// durations op reports for itself, in milliseconds. op times only the work
// of the program; its correctness checks run outside that time but inside d.
func (r *run) measure(d time.Duration, op func(i int) (time.Duration, error)) []float64 {
	var ms []float64
	deadline := time.Now().Add(d)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		dt, err := op(i)
		r.record(err)
		ms = append(ms, float64(dt)/float64(time.Millisecond))
	}
	return ms
}

// latency reports op_ms_p50 and op_ms_tail from per-operation times and
// names the tail percentile with its sample count.
func (r *run) latency(what string, ms []float64) {
	p50 := median(ms)
	q := tailQuantile(len(ms))
	tail := quantile(ms, q)
	r.e2e.set("op_ms_p50", "ms", p50)
	r.e2e.set("op_ms_tail", "ms", tail)
	r.notef("%s: %d samples, tail = p%s", what, len(ms), pct(q))
}

// split divides the measuring time of a traced run: the first half runs
// untraced, the second traced, and the gap between the two is the tracing
// overhead.
func (r *run) split() (untraced, traced time.Duration) {
	if !r.trace {
		return r.seconds, 0
	}
	return r.seconds / 2, r.seconds - r.seconds/2
}

// overhead reports obs.trace_overhead_frac: how much lower the traced
// throughput is than the untraced one, as a share of the untraced.
func (r *run) overhead(untracedRate, tracedRate float64) {
	if untracedRate > 0 {
		r.layers["obs.trace_overhead_frac"] = 1 - tracedRate/untracedRate
	}
}

// workingSet reports the computed bytes the timed loop keeps live, the
// figure registry.json compares with the 2 MiB per-core L2 and the L3.
func (r *run) workingSet(bytes int64) {
	mib := float64(bytes) / (1 << 20)
	r.layers["bench.working_set_mib"] = mib
	r.notef("working set (computed) %.2f MiB", mib)
}

var workloads = []struct {
	name string
	fn   func(*run) error
}{
	{"build", runBuild},
	{"solve-k1", runSolveK1},
	{"solve-k8", runSolveK8},
	{"serve-mixed", runServe},
}

// perLayer names every per-layer metric; a run reports 0 for a layer its
// workload does not exercise.
var perLayer = []struct{ name, unit string }{
	{"hierarchy.apply_ms", "ms"}, {"hierarchy.apply_calls", "count"},
	{"hierarchy.build_ms", "ms"}, {"hierarchy.rebuild_ms", "ms"},
	{"hierarchy.bytes", "bytes"}, {"hierarchy.levels", "count"},
	{"graph.lapmul_ms", "ms"}, {"graph.lapmul_calls", "count"},
	{"graph.lapmul_cols", "count"}, {"graph.lapmul_gbps_computed", "GB/s"},
	{"graph.contract_ms", "ms"},
	{"decomp.cluster_ms", "ms"}, {"decomp.evaluate_ms", "ms"},
	{"decomp.clusters", "count"}, {"decomp.cert_subsets", "count"},
	{"decomp.phi_min", "ratio"},
	{"dense.coarse_n", "count"}, {"dense.factor_ms", "ms"}, {"dense.coarse_solve_us", "us"},
	{"solver.iterations_per_rhs", "count"}, {"solver.level1_ms", "ms"},
	{"solver.allocs_per_solve", "count"},
	{"gio.snapshot_bytes", "bytes"}, {"gio.encode_ms", "ms"}, {"gio.decode_ms", "ms"},
	{"serve.self_ms_p50", "ms"}, {"serve.queue_wait_ms_p99", "ms"},
	{"serve.submit_ms_p50", "ms"}, {"serve.cache_hit_frac", "frac"},
	{"serve.builds", "count"}, {"serve.engines_live", "count"},
	{"obs.trace_overhead_frac", "frac"},
	{"bench.gen_lag_ms_p99", "ms"}, {"bench.working_set_mib", "MiB"},
}

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "build | solve-k1 | solve-k8 | serve-mixed | all")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 20, "measuring time of one run")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics instead of the end-to-end ones")
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatal(errors.New("--seconds must be positive and --trace 0 or 1"))
	}
	if *workload == "all" {
		os.Exit(runAll(*seed, *seconds, *trace))
	}
	for _, w := range workloads {
		if w.name != *workload {
			continue
		}
		r := newRun(*seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
		fmt.Printf("workload %s seed %d: GOMAXPROCS %d, nproc %d, %s\n",
			w.name, *seed, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
		if err := w.fn(r); err != nil {
			fatal(fmt.Errorf("%s: %w", w.name, err))
		}
		os.Exit(finish(r))
	}
	fatal(fmt.Errorf("unknown workload %q", *workload))
}

// finish prints the report and the result line and returns the exit code:
// non-zero when any operation failed a check.
func finish(r *run) int {
	r.e2e.set("peak_rss_mib", "MiB", float64(obs.PeakRSS())/(1<<20))
	for _, l := range r.report {
		fmt.Println("  " + l)
	}
	for _, w := range r.wrong {
		fmt.Fprintln(os.Stderr, "wrong:", w)
	}
	out := r.e2e
	if r.trace {
		out = metrics{}
		for _, l := range perLayer {
			out.set(l.name, l.unit, r.layers[l.name])
		}
	}
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: out}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// tailQuantile is the highest quantile, to 0.1 percent, with at least
// tailBeyond of n samples beyond it; it never drops below the median.
func tailQuantile(n int) float64 {
	q := math.Floor(1000*(1-float64(tailBeyond)/float64(n))) / 1000
	return math.Max(q, 0.5)
}

func pct(q float64) string { return fmt.Sprintf("%g", math.Round(q*1000)/10) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
