package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one traced interval or count, recorded around a call into a
// layer from the benchmark's own code. Spans of one op share Op; Parent
// names the span that caused this one (0 for a root).
type span struct {
	ID       int64   `json:"id"`
	Parent   int64   `json:"parent,omitempty"`
	Op       int     `json:"op"`
	Workload string  `json:"workload"`
	Name     string  `json:"name"`
	StartUS  int64   `json:"start_us"`
	EndUS    int64   `json:"end_us"`
	CPUUS    int64   `json:"cpu_us,omitempty"`
	GCUS     int64   `json:"gc_us,omitempty"`
	Allocs   uint64  `json:"allocs,omitempty"`
	Bytes    uint64  `json:"alloc_bytes,omitempty"`
	N        int     `json:"n"`
	Value    float64 `json:"value,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is a
// valid no-op, so untraced code paths call it unconditionally.
type tracer struct {
	workload string
	epoch    time.Time
	mu       sync.Mutex
	next     int64
	spans    []span
}

func newTracer(workload string, epoch time.Time) *tracer {
	return &tracer{workload: workload, epoch: epoch}
}

func (t *tracer) add(s span) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	s.ID = t.next
	s.Workload = t.workload
	t.spans = append(t.spans, s)
	return s.ID
}

// time runs f inside a span covering n units of work (docs, records,
// calls, queries) and returns the span's id.
func (t *tracer) time(name string, parent int64, op, n int, f func()) int64 {
	if t == nil {
		f()
		return 0
	}
	start := time.Since(t.epoch)
	u := measure(f)
	return t.add(span{
		Parent: parent, Op: op, Name: name,
		StartUS: start.Microseconds(), EndUS: (start + u.wall).Microseconds(),
		CPUUS: u.cpu.Microseconds(), GCUS: u.gc.Microseconds(),
		Allocs: u.alloc.objects, Bytes: u.alloc.bytes, N: n,
	})
}

// interval records a span measured by the caller: wall time only.
func (t *tracer) interval(name string, parent int64, op int, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	at := start.Sub(t.epoch)
	t.add(span{Parent: parent, Op: op, Name: name, StartUS: at.Microseconds(), EndUS: (at + d).Microseconds(), N: 1})
}

// count records a zero-length span carrying value over n units, for
// counts read at a layer boundary (calls, tokens, cache hits).
func (t *tracer) count(name string, parent int64, op int, value float64, n int) {
	if t == nil {
		return
	}
	at := time.Since(t.epoch).Microseconds()
	t.add(span{Parent: parent, Op: op, Name: name, StartUS: at, EndUS: at, N: n, Value: value})
}

// agg sums every span of one name.
type agg struct {
	spans               int
	n                   int
	wallUS, cpuUS, gcUS int64
	allocs              uint64
	value               float64
}

func (t *tracer) aggregate() map[string]*agg {
	out := map[string]*agg{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		a := out[s.Name]
		if a == nil {
			a = &agg{}
			out[s.Name] = a
		}
		a.n += s.N
		a.wallUS += s.EndUS - s.StartUS
		a.cpuUS += s.CPUUS
		a.gcUS += s.GCUS
		a.allocs += s.Allocs
		a.value += s.Value
	}
	return out
}

// writeSpans writes every tracer's spans to path as one JSON array.
func writeSpans(path string, tracers ...*tracer) error {
	var all []span
	for _, t := range tracers {
		if t == nil {
			continue
		}
		t.mu.Lock()
		all = append(all, t.spans...)
		t.mu.Unlock()
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(all)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// layerMetric is one per-layer metric: which workload exercises the
// layer most, and how it is computed from that workload's span sums.
type layerMetric struct {
	name, unit string
	owner      string
	// needs names the span whose presence shows a run reached the layer.
	needs   string
	compute func(a map[string]*agg) float64
}

func perUnit(a *agg, v float64) float64 {
	if a == nil || a.n == 0 {
		return math.NaN()
	}
	return v / float64(a.n)
}

func get(m map[string]*agg, name string) *agg {
	if a := m[name]; a != nil {
		return a
	}
	return &agg{}
}

// wallPer is microseconds of wall time per unit, scaled by div (1 for
// µs, 1000 for ms).
func wallPer(name string, div float64) func(map[string]*agg) float64 {
	return func(m map[string]*agg) float64 {
		a := get(m, name)
		return perUnit(a, float64(a.wallUS)/div)
	}
}

func allocsPer(name string) func(map[string]*agg) float64 {
	return func(m map[string]*agg) float64 {
		a := get(m, name)
		return perUnit(a, float64(a.allocs))
	}
}

func valuePer(name string) func(map[string]*agg) float64 {
	return func(m map[string]*agg) float64 {
		a := get(m, name)
		return perUnit(a, a.value)
	}
}

const (
	wCorpusScan = "corpus-scan"
	wCluster    = "cluster-scatter"
	wServe      = "serve-mix"
	wChat       = "chat-sessions"
)

// layerMetrics lists every per-layer metric of the traced run, in the
// order BENCHMARK.json names them.
var layerMetrics = []layerMetric{
	{"corpus.gen.us_per_doc", "us", wCorpusScan, "corpus.gen", wallPer("corpus.gen", 1)},
	{"corpus.gen.allocs_per_doc", "allocs", wCorpusScan, "corpus.gen", allocsPer("corpus.gen")},
	{"corpus.decode.us_per_doc", "us", wCorpusScan, "corpus.decode", wallPer("corpus.decode", 1)},
	{"corpus.decode.allocs_per_doc", "allocs", wCorpusScan, "corpus.decode", allocsPer("corpus.decode")},
	{"corpus.ndjson.bytes_per_doc", "B", wCorpusScan, "corpus.ndjson", valuePer("corpus.ndjson")},
	{"dataset.scan.us_per_record", "us", wCorpusScan, "dataset.scan", wallPer("dataset.scan", 1)},
	{"dataset.scan.allocs_per_record", "allocs", wCorpusScan, "dataset.scan", allocsPer("dataset.scan")},
	{"dataset.dir.us_per_file", "us", wChat, "dataset.dir", wallPer("dataset.dir", 1)},
	{"ops.filter_request.us_per_record", "us", wCorpusScan, "ops.filter_request", wallPer("ops.filter_request", 1)},
	{"llm.filter.us_per_call", "us", wCorpusScan, "llm.filter", wallPer("llm.filter", 1)},
	{"llm.filter.allocs_per_call", "allocs", wCorpusScan, "llm.filter", allocsPer("llm.filter")},
	{"llm.extract.us_per_call", "us", wChat, "llm.extract", wallPer("llm.extract", 1)},
	{"llm.extract.allocs_per_call", "allocs", wChat, "llm.extract", allocsPer("llm.extract")},
	{"llm.calls_per_doc", "calls", wCorpusScan, "llm.calls", valuePer("llm.calls")},
	{"llm.tokens_in_per_call", "tokens", wCorpusScan, "llm.tokens_in", valuePer("llm.tokens_in")},
	{"llm.cache.hit_ratio", "ratio", wServe, "llm.cache", valuePer("llm.cache")},
	{"optimizer.optimize.ms_per_query", "ms", wServe, "optimizer.optimize", wallPer("optimizer.optimize", 1000)},
	{"optimizer.optimize.allocs_per_query", "allocs", wServe, "optimizer.optimize", allocsPer("optimizer.optimize")},
	{"optimizer.candidates_per_query", "plans", wServe, "optimizer.candidates", valuePer("optimizer.candidates")},
	{"exec.run.us_per_doc", "us", wCorpusScan, "exec.run", wallPer("exec.run", 1)},
	{"exec.self.us_per_doc", "us", wCorpusScan, "exec.run", execSelf},
	{"exec.allocs_per_doc", "allocs", wCorpusScan, "exec.run", allocsPer("exec.run")},
	{"runtime.gc_cpu_ms_per_op", "ms", wCorpusScan, "op", func(m map[string]*agg) float64 {
		a := get(m, "op")
		return perUnit(a, float64(a.gcUS)/1000)
	}},
	{"serve.roundtrip.ms_per_query", "ms", wServe, "serve.roundtrip", wallPer("serve.roundtrip", 1000)},
	{"serve.parse_build.us_per_query", "us", wServe, "serve.parse_build", wallPer("serve.parse_build", 1)},
	{"serve.records_json.us_per_record", "us", wServe, "serve.records_json", wallPer("serve.records_json", 1)},
	{"serve.self.ms_per_query", "ms", wServe, "serve.self", valuePer("serve.self")},
	{"serve.plancache.hit_ratio", "ratio", wServe, "serve.plancache", valuePer("serve.plancache")},
	{"serve.jobs_retained", "jobs", wServe, "serve.jobs", valuePer("serve.jobs")},
	{"cluster.partition.ms", "ms", wCluster, "cluster.partition", wallPer("cluster.partition", 1000)},
	{"cluster.partition.skew", "ratio", wCluster, "cluster.skew", valuePer("cluster.skew")},
	{"cluster.wire.encode.us_per_record", "us", wCluster, "cluster.wire.encode", wallPer("cluster.wire.encode", 1)},
	{"cluster.wire.decode.us_per_record", "us", wCluster, "cluster.wire.decode", wallPer("cluster.wire.decode", 1)},
	{"cluster.wire.bytes_per_record", "B", wCluster, "cluster.wire.bytes", valuePer("cluster.wire.bytes")},
	{"cluster.scatter.self_ms_per_query", "ms", wCluster, "cluster.scatter.self", valuePer("cluster.scatter.self")},
	{"cluster.reissues_per_query", "partitions", wCluster, "cluster.reissues", valuePer("cluster.reissues")},
	{"palimpchat.turn.us", "us", wChat, "palimpchat.turn", wallPer("palimpchat.turn", 1)},
	{"palimpchat.execute_self.ms", "ms", wChat, "palimpchat.execute_self", valuePer("palimpchat.execute_self")},
	{"palimpchat.codegen.us", "us", wChat, "palimpchat.codegen", wallPer("palimpchat.codegen", 1)},
	{"archytas.steps_per_session", "steps", wChat, "archytas.steps", valuePer("archytas.steps")},
}

// execSelf is the engine's own CPU per document: the CPU of executing
// the chosen plan minus the CPU that replaying its scan (decode and
// record building), prompt building and oracle calls on the same inputs
// accounts for.
func execSelf(m map[string]*agg) float64 {
	run := get(m, "exec.run")
	cpu := run.cpuUS
	for _, child := range []string{"dataset.scan", "ops.filter_request", "llm.filter", "llm.extract"} {
		cpu -= get(m, child).cpuUS
	}
	return perUnit(run, float64(cpu))
}

// layerValues computes every per-layer metric. A metric comes from the
// traced workload when that run reached the layer, otherwise from the
// probe of the workload that owns it.
func layerValues(main *tracer, probes map[string]*tracer) (map[string]metricValue, error) {
	mainAgg := main.aggregate()
	probeAgg := map[string]map[string]*agg{}
	for w, t := range probes {
		probeAgg[w] = t.aggregate()
	}
	out := map[string]metricValue{}
	for _, lm := range layerMetrics {
		src := mainAgg
		if a := mainAgg[lm.needs]; a == nil || a.n == 0 {
			src = probeAgg[lm.owner]
		}
		v := lm.compute(src)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("per-layer metric %s has no spans", lm.name)
		}
		out[lm.name] = metricValue{Value: v, Unit: lm.unit}
	}
	return out, nil
}

// layerOwners lists the workloads that own a metric the traced workload
// did not reach, so the traced run knows which probes to run.
func layerOwners(main *tracer) []string {
	a := main.aggregate()
	seen := map[string]bool{}
	var out []string
	for _, lm := range layerMetrics {
		if s := a[lm.needs]; s != nil && s.n > 0 {
			continue
		}
		if lm.owner != main.workload && !seen[lm.owner] {
			seen[lm.owner] = true
			out = append(out, lm.owner)
		}
	}
	sort.Strings(out)
	return out
}
