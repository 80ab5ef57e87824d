package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/corpus"
	"repro/internal/dataset"
	"repro/internal/llm"
	"repro/internal/metrics"
	"repro/internal/ops"
	"repro/internal/schema"
	"repro/internal/serve"
	"repro/internal/workloads"
	"repro/pz"
)

const (
	// scanDocs is the support corpus size of corpus-scan and
	// cluster-scatter: one query takes about a tenth of a second.
	scanDocs = 5000
	// scanUrgentRate is the planted share of urgent tickets.
	scanUrgentRate = 0.3
	// scanParallelism is the engine's LLM concurrency per query.
	scanParallelism = 4
	// clusterWorkers and clusterFanout set the scatter: more partitions
	// than workers, so each worker runs several.
	clusterWorkers = 2
	clusterFanout  = 4
	datasetName    = "tickets"
)

// scanWorkload is corpus-scan, or cluster-scatter when cluster is set:
// the support-triage chain (filter urgent, convert routing fields, under
// max-quality) over a file-backed indexed NDJSON corpus.
type scanWorkload struct {
	cluster bool

	path   string
	labels map[string]bool // ticket_id -> planted urgent label
	route  *schema.Schema
	ref    []byte // records of the chosen plan run at Parallelism 1
	// f1Floor is the least filter F1 the chosen model may score.
	f1Floor float64

	// plan and its filter and convert models describe the chosen plan,
	// for the traced replays.
	plan        *pz.Plan
	filterModel string
	conv        *ops.LLMConvertExec

	// cluster state
	spec       *serve.Spec
	prefixSpec serve.Spec
	planSig    []string
	ranges     []corpus.Partition
	coord      *cluster.Coordinator
	counters   *metrics.Counters
	servers    []*httptest.Server
}

// labelTap passes a generator's documents through, noting each ticket's
// planted urgent label on the way to disk.
type labelTap struct {
	corpus.Generator
	labels map[string]bool
}

func (t *labelTap) Next() (*corpus.Doc, error) {
	d, err := t.Generator.Next()
	if d != nil && d.Truth != nil {
		t.labels[d.Truth.Fields["ticket_id"]] = d.Truth.Labels[corpus.UrgentLabel]
	}
	return d, err
}

func (w *scanWorkload) newContext(parallelism int) (*pz.Context, *pz.Dataset, error) {
	ctx, err := pz.NewContext(pz.Config{Parallelism: parallelism})
	if err != nil {
		return nil, nil, err
	}
	if _, err := ctx.RegisterNDJSON(datasetName, w.path); err != nil {
		return nil, nil, err
	}
	ds, err := ctx.Dataset(datasetName)
	if err != nil {
		return nil, nil, err
	}
	return ctx, ds.Filter(workloads.SupportPredicate).Convert(w.route, w.route.Doc(), pz.OneToOne), nil
}

func (w *scanWorkload) setup(e *env) error {
	w.path = filepath.Join(e.dir, "support.ndjson")
	w.labels = make(map[string]bool, scanDocs)
	cfg := corpus.SupportConfig{NumTickets: scanDocs, UrgentRate: scanUrgentRate, Seed: e.seed}
	var err error
	e.tr.time("corpus.gen", 0, 0, scanDocs, func() {
		_, err = corpus.SaveNDJSON(w.path, &labelTap{corpus.NewSupportGenerator(cfg), w.labels}, e.seed, cfg)
	})
	if err != nil {
		return err
	}
	if e.tr != nil {
		st, err := os.Stat(w.path)
		if err != nil {
			return err
		}
		e.tr.count("corpus.ndjson", 0, 0, float64(st.Size()), scanDocs)
	}
	if w.route, err = workloads.SupportRouteSchema(); err != nil {
		return err
	}

	// Reference: the plan the benchmark's own configuration chooses, run
	// by the sequential engine.
	ctx, ds, err := w.newContext(scanParallelism)
	if err != nil {
		return err
	}
	if w.plan, _, err = ctx.OptimizeOnly(ds, pz.MaxQuality()); err != nil {
		return err
	}
	for _, op := range w.plan.Ops {
		switch p := op.(type) {
		case *ops.LLMFilterExec:
			w.filterModel = p.Model
		case *ops.LLMConvertExec:
			w.conv = p
		}
	}
	if w.filterModel == "" || w.conv == nil {
		return fmt.Errorf("chosen plan %s has no plain LLM filter and convert", w.plan)
	}
	card, err := llm.Card(w.filterModel)
	if err != nil {
		return err
	}
	w.f1Floor = f1Floor(card.FilterAccuracy(), scanUrgentRate)
	seq, _, err := w.newContext(1)
	if err != nil {
		return err
	}
	res, err := seq.ExecutePlanContext(context.Background(), w.plan, "max-quality")
	if err != nil {
		return err
	}
	if w.ref, err = serve.RecordsJSON(res.Records); err != nil {
		return err
	}
	if w.cluster {
		return w.setupCluster(ds)
	}
	return nil
}

func (w *scanWorkload) setupCluster(ds *pz.Dataset) error {
	spec, err := serve.FromChain(ds.Chain(), "max-quality", 0)
	if err != nil {
		return err
	}
	spec.Partitions = clusterFanout
	w.spec = spec
	w.prefixSpec = serve.Spec{Dataset: spec.Dataset, Ops: spec.Ops, Policy: spec.Policy}
	w.planSig = cluster.PlanSignature(w.plan)
	src, err := dataset.NewNDJSONSource(datasetName, w.path)
	if err != nil {
		return err
	}
	w.ranges = src.PartitionRanges(clusterFanout)
	if len(w.ranges) != clusterFanout {
		return fmt.Errorf("corpus splits into %d partitions, want %d", len(w.ranges), clusterFanout)
	}
	w.counters = metrics.NewCounters()
	reg := cluster.NewRegistry(cluster.RegistryConfig{Counters: w.counters})
	for i := 0; i < clusterWorkers; i++ {
		name := fmt.Sprintf("w%d", i)
		wk, err := cluster.NewWorker(cluster.WorkerConfig{
			Name: name, Parallelism: scanParallelism,
			Datasets: map[string]string{datasetName: w.path},
		})
		if err != nil {
			return err
		}
		srv := httptest.NewServer(wk.Handler())
		w.servers = append(w.servers, srv)
		if err := reg.Register(name, srv.URL); err != nil {
			return err
		}
	}
	// Timeouts far above any partition's wall time: re-issues would be
	// a fault here, not jitter.
	w.coord, err = cluster.NewCoordinator(cluster.Config{
		Registry: reg, Counters: w.counters, Parallelism: scanParallelism,
		PartitionTimeout: 5 * time.Minute, StragglerAfter: 5 * time.Minute,
	})
	return err
}

func (w *scanWorkload) close() {
	for _, s := range w.servers {
		s.Close()
	}
	w.servers = nil
}

// round runs one query.
func (w *scanWorkload) round(r *runner) error {
	if w.cluster {
		return w.scatterOnce(r)
	}
	return w.scanOnce(r)
}

func (w *scanWorkload) scanOnce(r *runner) error {
	var ctx *pz.Context
	var res *pz.Result
	var err error
	op := r.nextOp()
	u, span := r.timedOp(op, 1, func() {
		var ds *pz.Dataset
		if ctx, ds, err = w.newContext(scanParallelism); err != nil {
			return
		}
		res, err = ctx.Execute(ds, pz.MaxQuality())
	})
	o := outcome{latency: u.wall, docs: scanDocs, err: err}
	if err == nil {
		o.simSec, o.costUSD = res.Elapsed.Seconds(), res.CostUSD
		o.problem = w.checkRecords(res.Records, &o)
		if o.problem == "" {
			o.problem = checkCost(res.CostUSD, ctx.TotalCost())
		}
	}
	r.note(o)
	if r.tr != nil && err == nil {
		return w.replayScan(r.tr, op, span, ctx)
	}
	return nil
}

// checkRecords compares records with the reference byte for byte and
// scores them against the planted labels.
func (w *scanWorkload) checkRecords(recs []*pz.Record, o *outcome) string {
	got, err := serve.RecordsJSON(recs)
	if err != nil {
		return err.Error()
	}
	if p := sameRecords(got, w.ref); p != "" {
		return p
	}
	o.tp, o.fp, o.fn = scoreByTicket(recs, w.labels)
	if f1 := f1Score(o.tp, o.fp, o.fn); f1 < w.f1Floor {
		return fmt.Sprintf("filter F1 %.4f is below the floor %.4f", f1, w.f1Floor)
	}
	return ""
}

// scoreByTicket counts true positives, false positives and false
// negatives of a filter's kept records against planted labels keyed by
// ticket id. Each kept record's ticket is read from the ground truth the
// record carries from its source document.
func scoreByTicket(kept []*pz.Record, labels map[string]bool) (tp, fp, fn int) {
	seen := map[string]bool{}
	for _, rec := range kept {
		id := ""
		if t := corpus.TruthOf(rec); t != nil {
			id = t.Fields["ticket_id"]
		}
		if seen[id] && id != "" {
			continue
		}
		seen[id] = true
		if labels[id] {
			tp++
		} else {
			fp++
		}
	}
	for id, urgent := range labels {
		if urgent && !seen[id] {
			fn++
		}
	}
	return tp, fp, fn
}

// replayScan re-runs, on the op's own inputs, each layer the engine
// reached inside Execute: decode, scan, prompt building, the oracle's
// filter and extract calls, the optimizer, and the engine on the chosen
// plan.
func (w *scanWorkload) replayScan(tr *tracer, op int, parent int64, ctx *pz.Context) error {
	var err error
	tr.time("corpus.decode", parent, op, scanDocs, func() {
		var rd *corpus.DocReader
		if rd, err = corpus.OpenNDJSON(w.path); err != nil {
			return
		}
		defer rd.Close()
		for {
			d, e := rd.Next()
			if e != nil || d == nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	src, err := dataset.NewNDJSONSource(datasetName, w.path)
	if err != nil {
		return err
	}
	var recs []*pz.Record
	tr.time("dataset.scan", parent, op, scanDocs, func() {
		err = src.IterateRecords(func(r *pz.Record) error {
			recs = append(recs, r)
			return nil
		})
	})
	if err != nil {
		return err
	}
	reqs := make([]llm.Request, len(recs))
	tr.time("ops.filter_request", parent, op, len(recs), func() {
		for i, rec := range recs {
			reqs[i] = ops.FilterRequest(w.filterModel, workloads.SupportPredicate, rec)
		}
	})
	svc := llm.NewService()
	var kept []*pz.Record
	tr.time("llm.filter", parent, op, len(reqs), func() {
		for i, req := range reqs {
			resp, e := svc.Complete(req)
			if e != nil {
				err = e
				return
			}
			if resp.Decision {
				kept = append(kept, recs[i])
			}
		}
	})
	if err != nil {
		return err
	}
	ereqs := extractRequests(w.conv, kept)
	tr.time("llm.extract", parent, op, len(ereqs), func() {
		err = completeAll(svc, ereqs)
	})
	if err != nil {
		return err
	}
	calls, tokens := usageTotals(ctx)
	tr.count("llm.calls", parent, op, float64(calls), scanDocs)
	tr.count("llm.tokens_in", parent, op, float64(tokens), calls)

	octx, ds, err := w.newContext(scanParallelism)
	if err != nil {
		return err
	}
	var plan *pz.Plan
	var cands []*pz.Plan
	tr.time("optimizer.optimize", parent, op, 1, func() {
		plan, cands, err = octx.OptimizeOnly(ds, pz.MaxQuality())
	})
	if err != nil {
		return err
	}
	tr.count("optimizer.candidates", parent, op, float64(len(cands)), 1)
	tr.time("exec.run", parent, op, scanDocs, func() {
		_, err = octx.ExecutePlanContext(context.Background(), plan, "max-quality")
	})
	return err
}

// extractRequests builds the extraction calls conv makes for recs, as
// LLMConvertExec does: one call per record with every new field when
// bonded, one call per new field when fieldwise, each with the prompt
// the convert operator writes.
func extractRequests(conv *ops.LLMConvertExec, recs []*pz.Record) []llm.Request {
	if len(recs) == 0 {
		return nil
	}
	c := conv.Convert
	fields := schema.NewFields(recs[0].Schema(), c.Target)
	oneToMany := c.Card == ops.OneToMany
	var out []llm.Request
	for _, rec := range recs {
		if conv.Bonded {
			out = append(out, llm.Request{Model: conv.Model, Task: llm.TaskExtract,
				Prompt: convertPrompt(c.Desc, fields, rec.Text()), Record: rec, Fields: fields, OneToMany: oneToMany})
			continue
		}
		for _, f := range fields {
			one := []schema.Field{f}
			out = append(out, llm.Request{Model: conv.Model, Task: llm.TaskExtract,
				Prompt: convertPrompt(c.Desc, one, rec.Text()), Record: rec, Fields: one, OneToMany: oneToMany,
				QualityBoost: ops.FieldwiseQualityBonus})
		}
	}
	return out
}

// convertPrompt is the extraction prompt the convert operator writes.
func convertPrompt(desc string, fields []schema.Field, text string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extract structured data. %s\nFields:\n", desc)
	for _, f := range fields {
		fmt.Fprintf(&b, "- %s (%s): %s\n", f.Name, f.Type, f.Desc)
	}
	fmt.Fprintf(&b, "Text:\n%s\nRespond with JSON.", text)
	return b.String()
}

// completeAll sends reqs to svc in order, stopping at the first error.
func completeAll(svc *llm.Service, reqs []llm.Request) error {
	for _, req := range reqs {
		if _, err := svc.Complete(req); err != nil {
			return err
		}
	}
	return nil
}

// usageTotals sums calls and input tokens over every model a context's
// service charged.
func usageTotals(ctx *pz.Context) (calls, tokensIn int) {
	for _, u := range ctx.Executor().Service().Usage() {
		calls += u.Calls
		tokensIn += u.InputTokens
	}
	return calls, tokensIn
}

func (w *scanWorkload) scatterOnce(r *runner) error {
	var dres *serve.DistResult
	var ok bool
	var err error
	before := w.counters.Snapshot()
	op := r.nextOp()
	u, span := r.timedOp(op, 1, func() {
		var ctx *pz.Context
		if ctx, _, err = w.newContext(scanParallelism); err != nil {
			return
		}
		dres, ok, err = w.coord.TryExecute(context.Background(), ctx, w.spec, clusterFanout)
	})
	if err == nil && !ok {
		err = fmt.Errorf("coordinator declined the scatter")
	}
	o := outcome{latency: u.wall, docs: scanDocs, err: err}
	after := w.counters.Snapshot()
	reissues := after["cluster_partitions_rescattered"] - before["cluster_partitions_rescattered"] +
		after["cluster_straggler_reissues"] - before["cluster_straggler_reissues"] +
		after["cluster_partitions_local"] - before["cluster_partitions_local"]
	if err == nil {
		o.simSec, o.costUSD = dres.Elapsed.Seconds(), dres.CostUSD
		o.problem = w.checkRecords(dres.Records, &o)
		if o.problem == "" && (dres.Workers != clusterWorkers || dres.Partitions != clusterFanout) {
			o.problem = fmt.Sprintf("scatter ran %d partitions on %d workers, want %d on %d",
				dres.Partitions, dres.Workers, clusterFanout, clusterWorkers)
		}
		if o.problem == "" && after["cluster_partitions_local"] != before["cluster_partitions_local"] {
			o.problem = "scatter fell back to local partition execution"
		}
	}
	r.note(o)
	if r.tr != nil && err == nil {
		return w.replayScatter(r.tr, op, span, u.wall, float64(reissues))
	}
	return nil
}

// replayScatter runs each partition in-process without HTTP, then
// encodes and decodes its records the way the wire does.
func (w *scanWorkload) replayScatter(tr *tracer, op int, parent int64, wall time.Duration, reissues float64) error {
	ctx := context.Background()
	times := make([]float64, len(w.ranges))
	var slowest float64
	for i, p := range w.ranges {
		req := &cluster.PartitionRequest{Spec: w.prefixSpec, PlanSig: w.planSig, Partition: i, Offset: p.Offset, Docs: p.Docs}
		var pres *cluster.PartitionResult
		var err error
		id := tr.time("cluster.partition", parent, op, 1, func() {
			pres, err = cluster.ExecutePartition(ctx, req, w.path, scanParallelism)
		})
		if err != nil {
			return err
		}
		times[i] = spanWallMS(tr, id)
		slowest = math.Max(slowest, times[i])
		n := len(pres.Records)
		var data []byte
		tr.time("cluster.wire.encode", id, op, n, func() {
			data, err = json.Marshal(cluster.PartitionChunk{Seq: i, Records: cluster.EncodeRecords(pres.Records)})
		})
		if err != nil {
			return err
		}
		tr.count("cluster.wire.bytes", id, op, float64(len(data)), n)
		tr.time("cluster.wire.decode", id, op, n, func() {
			var chunk cluster.PartitionChunk
			if err = json.Unmarshal(data, &chunk); err != nil {
				return
			}
			_, err = cluster.DecodeRecords(w.route, chunk.Records)
		})
		if err != nil {
			return err
		}
	}
	tr.count("cluster.skew", parent, op, slowest/median(times), 1)
	tr.count("cluster.scatter.self", parent, op, float64(wall)/float64(time.Millisecond)-slowest, 1)
	tr.count("cluster.reissues", parent, op, reissues, 1)
	return nil
}

// spanWallMS reads back one recorded span's wall time in milliseconds.
func spanWallMS(tr *tracer, id int64) float64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	s := tr.spans[id-1]
	return float64(s.EndUS-s.StartUS) / 1000
}
