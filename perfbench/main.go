// Command perfbench is the repository's benchmark: four workloads that
// drive the pz library, the serving daemon, the cluster coordinator and
// PalimpChat end to end, timing only calls into their public functions.
//
//	bash perfbench/run.sh --workload corpus-scan --seed 1 --seconds 25 --trace 0
//
// Each run sets up its inputs from --seed (several times, reporting the
// median set-up time), then repeats whole rounds of its operations until
// --seconds have passed, checks every operation's output, and prints one
// JSON object as its last line. --trace 1 replaces the end-to-end metrics
// with the per-layer ones and writes the recorded spans to --spans. See
// README.md for the workloads, metrics and reference figures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// setupRepeats is how many times a run sets the named workload up;
// setup_s is the median. chat-sessions sets up in about 15 ms, so it
// takes more samples.
func setupRepeats(name string) int {
	if name == wChat {
		return 21
	}
	return 5
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spans    string
	// rounds, when positive, caps the timed rounds; the self-tests' smoke
	// run sets it.
	rounds int
	// work is the scratch directory for corpora and folders.
	work string
}

// workload is one benchmark workload.
type workload interface {
	// setup builds everything the first timed op needs: corpora on disk,
	// registered datasets, servers, and reference outputs for the checks.
	// It is called setupRepeats times; each call replaces the last state.
	setup(e *env) error
	// round runs one fixed list of ops, timing each through r.
	round(r *runner) error
	// close releases what setup started.
	close()
}

// fixtureMaker is a workload with inputs that stand for files its users
// already have: runWorkload writes them once, untimed, before the first
// set-up, and every set-up reads them.
type fixtureMaker interface {
	fixtures(e *env) error
}

// env is what setup receives: the seed, a fresh directory, and the
// tracer (nil when untraced).
type env struct {
	seed int64
	dir  string
	tr   *tracer
}

func newWorkload(name string) (workload, error) {
	switch name {
	case wCorpusScan:
		return &scanWorkload{}, nil
	case wCluster:
		return &scanWorkload{cluster: true}, nil
	case wServe:
		return &serveWorkload{}, nil
	case wChat:
		return &chatWorkload{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s, %s, %s, %s)", name, wCorpusScan, wCluster, wServe, wChat)
}

// metricValue is one metric as printed in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: corpus-scan, cluster-scatter, serve-mix or chat-sessions")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 25, "how long the timed phase runs")
	flag.IntVar(&traceFlag, "trace", 0, "1 prints per-layer metrics from a traced run instead of end-to-end metrics")
	flag.StringVar(&o.spans, "spans", "", "span file of the traced run (default .bench_build/perfbench/spans-<workload>.json)")
	flag.Parse()
	o.trace = traceFlag == 1
	if o.spans == "" {
		o.spans = filepath.Join(".bench_build", "perfbench", "spans-"+o.workload+".json")
	}
	if err := mainErr(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(o options, stdout io.Writer) error {
	if _, err := newWorkload(o.workload); err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Join(".bench_build", "perfbench"), 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(filepath.Join(".bench_build", "perfbench"), "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	o.work = work
	res, err := run(o, stdout)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// run performs one benchmark run and returns its result line.
func run(o options, stdout io.Writer) (*result, error) {
	epoch := time.Now()
	var tr *tracer
	if o.trace {
		tr = newTracer(o.workload, epoch)
	}
	r, err := runWorkload(o, o.workload, tr, o.seconds, o.rounds)
	if err != nil {
		return nil, err
	}
	res := &result{Correct: r.correct, Attempted: r.attempted, Failed: r.failed}
	r.report(stdout)
	if !o.trace {
		res.Metrics = r.endToEnd()
		return res, nil
	}
	// Layers the traced workload does not reach are measured on a short
	// probe of the workload that owns them.
	probes := map[string]*tracer{}
	for _, owner := range layerOwners(tr) {
		pt := newTracer(owner, epoch)
		pr, err := runWorkload(o, owner, pt, 0, probeRounds(owner))
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", owner, err)
		}
		if !pr.correct {
			res.Correct = false
		}
		probes[owner] = pt
	}
	all := []*tracer{tr}
	for _, pt := range probes {
		all = append(all, pt)
	}
	if err := writeSpans(o.spans, all...); err != nil {
		return nil, err
	}
	res.Metrics, err = layerValues(tr, probes)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "%-36s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Fprintf(stdout, "spans written to %s\n", o.spans)
	return res, nil
}

// probeRounds is how many rounds a per-layer probe runs: enough for a
// few dozen ops of the owning workload.
func probeRounds(w string) int {
	switch w {
	case wServe:
		return 1
	case wChat:
		return 4
	}
	return 3
}

// runWorkload sets the named workload up setupRepeats times, runs one
// untimed warm-up round, then timed rounds until seconds have passed (or
// maxRounds rounds, when positive).
func runWorkload(o options, name string, tr *tracer, seconds float64, maxRounds int) (*runner, error) {
	w, err := newWorkload(name)
	if err != nil {
		return nil, err
	}
	r := newRunner(name, tr)
	if f, ok := w.(fixtureMaker); ok {
		dir := filepath.Join(o.work, name+"-fixtures")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := f.fixtures(&env{seed: o.seed, dir: dir, tr: tr}); err != nil {
			return nil, fmt.Errorf("%s fixtures: %w", name, err)
		}
		r.fixtureS = time.Since(t0).Seconds()
	}
	repeats := setupRepeats(name)
	for i := 0; i < repeats; i++ {
		if i > 0 {
			w.close()
		}
		// Each set-up writes into a directory of its own and starts from a
		// collected heap. Rewriting the files of the last set-up cost 3×
		// more, and far more unevenly, than creating new ones: truncating
		// a file frees its blocks. The directories are removed at exit.
		dir := filepath.Join(o.work, fmt.Sprintf("%s-%d", name, i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		runtime.GC()
		// Only the last set-up is traced: its spans describe the state the
		// timed rounds use.
		var setupTr *tracer
		if i == repeats-1 {
			setupTr = tr
		}
		t0 := time.Now()
		err := w.setup(&env{seed: o.seed, dir: dir, tr: setupTr})
		r.setups = append(r.setups, time.Since(t0).Seconds())
		if err != nil {
			w.close()
			return nil, fmt.Errorf("%s set-up: %w", name, err)
		}
	}
	defer w.close()

	warm := newRunner(name, nil)
	if err := w.round(warm); err != nil {
		return nil, fmt.Errorf("%s warm-up: %w", name, err)
	}
	// The warm-up's ops are not counted, but an op that failed there, by
	// error or by check, still makes the run incorrect.
	if warm.failed > 0 || !warm.correct {
		r.correct = false
		r.problems = append(r.problems, warm.problems...)
	}
	runtime.GC()
	debug.FreeOSMemory()

	r.rss = newRSSSampler(5 * time.Millisecond)
	defer r.rss.close()
	host := readHostCPU()
	start := time.Now()
	for rounds := 1; ; rounds++ {
		before := *r
		if err := w.round(r); err != nil {
			return nil, fmt.Errorf("%s round %d: %w", name, rounds, err)
		}
		r.endRound(&before)
		if maxRounds > 0 {
			if rounds >= maxRounds {
				break
			}
		} else if time.Since(start).Seconds() >= seconds {
			break
		}
	}
	r.steal = stealShare(host, readHostCPU())
	return r, nil
}

// runner accumulates one run's measurements.
type runner struct {
	workload string
	tr       *tracer
	rss      *rssSampler
	setups   []float64
	// fixtureS is the untimed fixture step's wall time, 0 without one.
	fixtureS float64
	ops      int

	timed     usage
	latencies []float64 // ms, one per op
	attempted int
	failed    int
	correct   bool
	problems  []string
	// roundRate and roundCPU are each round's docs per second and CPU
	// milliseconds per op, over the round's timed sections.
	roundRate, roundCPU []float64
	// steal is the machine's CPU share the hypervisor gave to other
	// guests over the timed phase: what makes host-clock figures of a
	// shared machine move between runs.
	steal float64

	docs       int
	simSec     float64
	costUSD    float64
	tp, fp, fn int
}

func newRunner(workload string, tr *tracer) *runner {
	return &runner{workload: workload, tr: tr, correct: true}
}

func (r *runner) nextOp() int {
	r.ops++
	return r.ops
}

// timedOp runs f as part of the timed phase, covering n ops: its wall,
// CPU and allocation count toward the end-to-end metrics and the
// resident set is sampled. When tracing it records an "op" span, whose
// id the op's replays name as their parent.
func (r *runner) timedOp(op, n int, f func()) (usage, int64) {
	if r.rss != nil {
		r.rss.arm()
	}
	start := time.Now()
	u := measure(f)
	if r.rss != nil {
		r.rss.disarm()
	}
	r.timed.add(u)
	var id int64
	if r.tr != nil {
		at := start.Sub(r.tr.epoch)
		id = r.tr.add(span{
			Op: op, Name: "op", StartUS: at.Microseconds(), EndUS: (at + u.wall).Microseconds(),
			CPUUS: u.cpu.Microseconds(), GCUS: u.gc.Microseconds(),
			Allocs: u.alloc.objects, Bytes: u.alloc.bytes, N: n,
		})
	}
	return u, id
}

// outcome is what one op produced, as its workload's check saw it.
type outcome struct {
	latency    time.Duration
	docs       int
	simSec     float64
	costUSD    float64
	tp, fp, fn int
	// err is the op's own failure; problem is a failed output check.
	err     error
	problem string
}

// note counts one attempted op. A failed op or a failed check counts as
// failed; a failed check also makes the run incorrect. A failed op's
// latency still counts, so failures are never dropped from the timings.
func (r *runner) note(o outcome) {
	r.attempted++
	r.latencies = append(r.latencies, float64(o.latency)/float64(time.Millisecond))
	switch {
	case o.err != nil:
		r.failed++
		r.problems = append(r.problems, o.err.Error())
		return
	case o.problem != "":
		r.failed++
		r.correct = false
		r.problems = append(r.problems, o.problem)
		return
	}
	r.docs += o.docs
	r.simSec += o.simSec
	r.costUSD += o.costUSD
	r.tp += o.tp
	r.fp += o.fp
	r.fn += o.fn
}

// endRound notes the throughput and CPU per op of the round that began
// when the runner was in state before.
func (r *runner) endRound(before *runner) {
	ops := r.attempted - before.attempted
	wall := r.timed.wall - before.timed.wall
	if ops == 0 || wall <= 0 {
		return
	}
	r.roundRate = append(r.roundRate, float64(r.docs-before.docs)/wall.Seconds())
	r.roundCPU = append(r.roundCPU, float64(r.timed.cpu-before.timed.cpu)/float64(time.Millisecond)/float64(ops))
}

// fail marks the run incorrect for a check that spans several ops.
func (r *runner) fail(format string, args ...any) {
	r.correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// endToEnd computes the untraced run's metrics. Throughput and CPU are
// medians over rounds, so a passing stall of the machine moves them
// less than a mean would.
func (r *runner) endToEnd() map[string]metricValue {
	ops := float64(r.attempted)
	var peak float64
	if r.rss != nil {
		peak = float64(r.rss.peak.Load()) / (1 << 20)
	}
	return map[string]metricValue{
		"setup_s":         {median(r.setups), "s"},
		"docs_per_s":      {median(r.roundRate), "docs/s"},
		"latency_ms_p50":  {median(r.latencies), "ms"},
		"cpu_ms_per_op":   {median(r.roundCPU), "ms"},
		"alloc_mb_per_op": {float64(r.timed.alloc.bytes) / (1 << 20) / ops, "MB"},
		"peak_rss_mb":     {peak, "MB"},
		"sim_s_per_op":    {r.simSec / ops, "sim_s"},
		"cost_usd_per_op": {r.costUSD / ops, "USD"},
		"f1":              {f1Score(r.tp, r.fp, r.fn), "ratio"},
	}
}

// report prints the run's reference figures ahead of the result line:
// counts, set-up samples, latency percentiles with their sample counts,
// and any failed checks.
func (r *runner) report(w io.Writer) {
	fmt.Fprintf(w, "workload %s: attempted %d ops, failed %d, correct %t\n", r.workload, r.attempted, r.failed, r.correct)
	fmt.Fprintf(w, "setup_s samples %s\n", fmtFloats(r.setups))
	if r.fixtureS > 0 {
		fmt.Fprintf(w, "fixtures written once, untimed, in %.4f s\n", r.fixtureS)
	}
	fmt.Fprintf(w, "host steal during the timed phase %.1f%%\n", 100*r.steal)
	n := len(r.latencies)
	fmt.Fprintf(w, "latency_ms p50 %.3f (n=%d) p90 %.3f (n=%d beyond) p99 %.3f (n=%d beyond)\n",
		median(r.latencies), n,
		quantile(r.latencies, 0.9), n-int(0.9*float64(n)),
		quantile(r.latencies, 0.99), n-int(0.99*float64(n)))
	for i, p := range r.problems {
		if i == 10 {
			fmt.Fprintf(w, "... %d more problems\n", len(r.problems)-10)
			break
		}
		fmt.Fprintf(w, "problem: %s\n", p)
	}
}

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(parts, " ")
}
