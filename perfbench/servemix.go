package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"repro/internal/corpus"
	"repro/internal/serve"
	"repro/internal/workloads"
	"repro/pz"
)

const (
	// serveClients closed-loop clients post queries concurrently: one per
	// vCPU of the reference host. The count is an assumption, not taken
	// from a trace of real traffic.
	serveClients = 2
	// serveRoundQueries is one round: a fixed draw of specs, posted to
	// a fresh server, so a round's job store, plan cache and
	// LLM cache start empty however many rounds a run completes.
	serveRoundQueries = 480
	// The server runs with pzserve's default capacities: -parallelism 4,
	// -max-inflight 8, -max-queue 16, -plan-cache 128 and
	// -llm-cache-capacity 4096. The spec pool is larger than the plan
	// cache and its LLM requests outnumber the LLM cache, so hits and
	// misses of both recur all round.
	serveParallelism = 4
	serveInflight    = 8
	serveQueue       = 16
	servePlanCache   = 128
	serveLLMCache    = 4096
	// serveZipfS is the skew of spec popularity: 0.8 lies in the range
	// (0.64 to 0.83) Breslau et al. measured for web request popularity
	// ("Web Caching and Zipf-like Distributions", INFOCOM 1999). That it
	// holds for analytics queries is an assumption.
	serveZipfS = 0.8
)

// serveDomain is one in-memory corpus of serve-mix and the specs drawn
// over it: a filter whose truth is a planted label, and conversions of
// its fields.
type serveDomain struct {
	domain, name string
	docs         int
	predicate    string
	label        string
	fields       []string
}

var serveDomains = []serveDomain{
	{corpus.DomainSupport, "tickets", 150, workloads.SupportPredicate, corpus.UrgentLabel,
		[]string{"ticket_id", "category", "priority", "product"}},
	{corpus.DomainFinance, "filings", 120, workloads.FinancePredicate, corpus.ProfitableLabel,
		[]string{"company", "ticker", "sector", "revenue_musd"}},
	{corpus.DomainLegal, "contracts", 60, "The contract contains an indemnification clause", corpus.IndemnificationLabel,
		[]string{"party_a", "party_b", "effective_date", "contract_kind"}},
	{corpus.DomainRealEstate, "listings", 100, "The listing has a modern interior", corpus.ModernLabel,
		[]string{"address", "neighborhood", "price", "bedrooms"}},
	{corpus.DomainBiomed, "papers", 40, "The paper is about colorectal cancer", "colorectal",
		[]string{"title", "gene", "cohort_size", "year"}},
}

var servePolicies = []string{"max-quality", "min-cost", "min-time"}

// convertShapes are the field subsets a spec converts, as indices into
// its domain's four fields: each field alone, each neighbouring pair, and
// all four. A shape of nil is a filter alone.
var convertShapes = [][]int{nil, {0}, {1}, {2}, {3}, {0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 1, 2, 3}}

// poolSpec is one spec of the pool with its reference output.
type poolSpec struct {
	dom        *serveDomain
	body       []byte
	ref        []byte
	tp, fp, fn int
}

type serveWorkload struct {
	docs  map[string][]*corpus.Doc
	pool  []*poolSpec
	draws []int // spec index of each query of a round
}

// specPool lists every spec, most popular first: 10 shapes × 3 policies
// × 5 domains = 150 specs, filters alone first.
func specPool() []*serve.Spec {
	var out []*serve.Spec
	for _, shape := range convertShapes {
		for _, policy := range servePolicies {
			for i := range serveDomains {
				d := &serveDomains[i]
				s := &serve.Spec{Dataset: serve.DatasetSpec{Name: d.name}, Policy: policy,
					Ops: []serve.OpSpec{{Op: "filter", Predicate: d.predicate}}}
				if shape != nil {
					var fields []string
					for _, f := range shape {
						fields = append(fields, d.fields[f])
					}
					s.Ops = append(s.Ops, serve.OpSpec{Op: "convert", Schema: "Extracted", Doc: "Fields of the document.",
						Fields: fields, Descriptions: fields, Cardinality: "one_to_one"})
				}
				out = append(out, s)
			}
		}
	}
	return out
}

func (w *serveWorkload) newContext() (*pz.Context, error) {
	ctx, err := pz.NewContext(pz.Config{Parallelism: serveParallelism, EnableCache: true, CacheCapacity: serveLLMCache})
	if err != nil {
		return nil, err
	}
	for _, d := range serveDomains {
		if _, err := ctx.RegisterDocs(d.name, pz.TextFile, w.docs[d.name]); err != nil {
			return nil, err
		}
	}
	return ctx, nil
}

func (w *serveWorkload) setup(e *env) error {
	w.docs = map[string][]*corpus.Doc{}
	for i, d := range serveDomains {
		g, err := corpus.NewGenerator(d.domain, d.docs, -1, e.seed+int64(i))
		if err != nil {
			return err
		}
		if w.docs[d.name], err = corpus.Collect(g); err != nil {
			return err
		}
	}
	specs := specPool()
	w.pool = make([]*poolSpec, len(specs))
	for i, s := range specs {
		ps := &poolSpec{dom: domainOf(s.Dataset.Name)}
		var err error
		if ps.body, err = json.Marshal(s); err != nil {
			return err
		}
		// Reference: the same spec executed directly on a fresh context.
		ctx, err := w.newContext()
		if err != nil {
			return err
		}
		ds, err := s.Build(ctx)
		if err != nil {
			return err
		}
		policy, err := s.ParsePolicy()
		if err != nil {
			return err
		}
		res, err := ctx.Execute(ds, policy)
		if err != nil {
			return fmt.Errorf("reference of spec %d: %w", i, err)
		}
		if ps.ref, err = serve.RecordsJSON(res.Records); err != nil {
			return err
		}
		ps.tp, ps.fp, ps.fn = scoreByLabel(res.Records, w.docs[ps.dom.name], ps.dom.label)
		w.pool[i] = ps
	}
	w.draws = roundDraws(len(w.pool), serveRoundQueries, e.seed)
	return nil
}

// roundDraws returns a round's queries as indices into a pool of n
// specs. Spec k is drawn in proportion to (k+1)^-serveZipfS, the counts
// rounded to total queries by largest remainder, and each spec's draws
// are spread evenly over the round (smooth weighted round robin), so the
// caches see the same reuse distances on every seed. The seed rotates
// where the round starts.
func roundDraws(n, queries int, seed int64) []int {
	weights := make([]float64, n)
	var sum float64
	for k := range weights {
		weights[k] = math.Pow(float64(k+1), -serveZipfS)
		sum += weights[k]
	}
	counts := make([]int, n)
	order := make([]int, n)
	left := queries
	for k, wt := range weights {
		counts[k] = int(wt / sum * float64(queries))
		left -= counts[k]
		order[k] = k
	}
	frac := func(k int) float64 { return weights[k]/sum*float64(queries) - float64(counts[k]) }
	sort.SliceStable(order, func(i, j int) bool { return frac(order[i]) > frac(order[j]) })
	for i := 0; i < left; i++ {
		counts[order[i]]++
	}
	out := make([]int, queries)
	current := make([]int, n)
	for i := range out {
		best := -1
		for k, c := range counts {
			current[k] += c
			if c > 0 && (best < 0 || current[k] > current[best]) {
				best = k
			}
		}
		current[best] -= queries
		out[i] = best
	}
	shift := int(uint64(seed) % uint64(queries))
	return append(out[shift:], out[:shift]...)
}

func domainOf(name string) *serveDomain {
	for i := range serveDomains {
		if serveDomains[i].name == name {
			return &serveDomains[i]
		}
	}
	return nil
}

// scoreByLabel scores a filter's kept records against the planted label
// of the documents they came from.
func scoreByLabel(kept []*pz.Record, docs []*corpus.Doc, label string) (tp, fp, fn int) {
	seen := map[*corpus.Truth]bool{}
	for _, rec := range kept {
		t := corpus.TruthOf(rec)
		if t != nil && seen[t] {
			continue
		}
		seen[t] = true
		if t != nil && t.Labels[label] {
			tp++
		} else {
			fp++
		}
	}
	positives := 0
	for _, d := range docs {
		if d.Truth.Labels[label] {
			positives++
		}
	}
	return tp, fp, positives - tp
}

func (w *serveWorkload) close() {}

// response is one query's reply as a client saw it.
type response struct {
	spec    int
	start   time.Time
	latency time.Duration
	code    int
	view    serve.JobView
	err     error
}

func (w *serveWorkload) round(r *runner) error {
	ctx, err := w.newContext()
	if err != nil {
		return err
	}
	srv, err := serve.New(serve.Config{Context: ctx, MaxInflight: serveInflight, MaxQueue: serveQueue,
		PlanCacheSize: servePlanCache})
	if err != nil {
		return err
	}
	hs := httptest.NewServer(srv.Handler())
	defer func() {
		hs.Close()
		srv.Close()
	}()
	client := hs.Client()

	resps := make([]response, len(w.draws))
	op := r.nextOp()
	_, span := r.timedOp(op, len(w.draws), func() {
		var wg sync.WaitGroup
		for c := 0; c < serveClients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := c; i < len(w.draws); i += serveClients {
					resps[i] = w.post(client, hs.URL, w.draws[i])
				}
			}(c)
		}
		wg.Wait()
	})
	for i, rp := range resps {
		ps := w.pool[rp.spec]
		o := outcome{latency: rp.latency, err: rp.err, docs: ps.dom.docs}
		if o.err == nil && (rp.code != http.StatusOK || rp.view.Status != serve.StatusDone || rp.view.Result == nil) {
			o.err = fmt.Errorf("spec %d: HTTP %d status %q: %s", rp.spec, rp.code, rp.view.Status, rp.view.Error)
		}
		if o.err == nil {
			res := rp.view.Result
			o.simSec = float64(res.ElapsedSimMS) / 1000
			o.costUSD = res.CostUSD
			o.tp, o.fp, o.fn = ps.tp, ps.fp, ps.fn
			if p := sameRecords(res.Records, ps.ref); p != "" {
				o.problem = fmt.Sprintf("spec %d: %s", rp.spec, p)
			} else if res.PlanCached && !seenBefore(resps, i) {
				o.problem = fmt.Sprintf("spec %d: plan_cached, but no earlier query of it reached the server", rp.spec)
			}
		}
		r.note(o)
	}
	if r.tr != nil {
		return w.replay(r.tr, op, span, ctx, srv, client, hs.URL, resps)
	}
	return nil
}

// seenBefore reports whether another query of the same spec was sent
// before query i's reply arrived: a plan the server cached for that
// spec can only have come from such a query.
func seenBefore(resps []response, i int) bool {
	end := resps[i].start.Add(resps[i].latency)
	for j, rp := range resps {
		if j != i && rp.spec == resps[i].spec && rp.start.Before(end) {
			return true
		}
	}
	return false
}

// post sends one query and waits for its reply.
func (w *serveWorkload) post(client *http.Client, base string, spec int) response {
	rp := response{spec: spec}
	t0 := time.Now()
	rp.start = t0
	resp, err := client.Post(base+"/v1/query?wait=1", "application/json", bytes.NewReader(w.pool[spec].body))
	if err != nil {
		rp.err = err
		rp.latency = time.Since(t0)
		return rp
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rp.latency = time.Since(t0)
	rp.code = resp.StatusCode
	if err == nil {
		err = json.Unmarshal(body, &rp.view)
	}
	rp.err = err
	return rp
}

// replay records the round trip of every query of the round, then
// replays the server's steps for each on a context that sees the same
// queries in order: parse and build, optimize, execute, encode.
func (w *serveWorkload) replay(tr *tracer, op int, parent int64, sctx *pz.Context, srv *serve.Server,
	client *http.Client, base string, resps []response) error {
	rctx, err := w.newContext()
	if err != nil {
		return err
	}
	for _, rp := range resps {
		rtMS := float64(rp.latency) / float64(time.Millisecond)
		tr.interval("serve.roundtrip", parent, op, rp.start, rp.latency)
		var ds *pz.Dataset
		var policy pz.Policy
		pb := tr.time("serve.parse_build", parent, op, 1, func() {
			var s *serve.Spec
			if s, err = serve.ParseSpec(w.pool[rp.spec].body); err != nil {
				return
			}
			if ds, err = s.Build(rctx); err != nil {
				return
			}
			policy, err = s.ParsePolicy()
		})
		if err != nil {
			return err
		}
		self := rtMS - spanWallMS(tr, pb)
		var plan *pz.Plan
		var cands []*pz.Plan
		opt := tr.time("optimizer.optimize", parent, op, 1, func() {
			plan, cands, err = rctx.OptimizeOnly(ds, policy)
		})
		if err != nil {
			return err
		}
		tr.count("optimizer.candidates", parent, op, float64(len(cands)), 1)
		if rp.view.Result == nil || !rp.view.Result.PlanCached {
			self -= spanWallMS(tr, opt)
		}
		var res *pz.Result
		ex := tr.time("serve.replay.execute", parent, op, 1, func() {
			res, err = rctx.ExecutePlanContext(context.Background(), plan, policy.Describe())
		})
		if err != nil {
			return err
		}
		self -= spanWallMS(tr, ex)
		enc := tr.time("serve.records_json", parent, op, len(res.Records), func() {
			_, err = serve.RecordsJSON(res.Records)
		})
		if err != nil {
			return err
		}
		self -= spanWallMS(tr, enc)
		tr.count("serve.self", parent, op, self, 1)
	}
	cs := sctx.Executor().Cache().Stats()
	tr.count("llm.cache", parent, op, float64(cs.Hits), cs.Hits+cs.Misses)
	ps := srv.PlanCache().Stats()
	tr.count("serve.plancache", parent, op, float64(ps.Hits), ps.Hits+ps.Misses)
	resp, err := client.Get(base + "/v1/jobs")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var jobs []serve.JobView
	if err := json.NewDecoder(resp.Body).Decode(&jobs); err != nil {
		return err
	}
	tr.count("serve.jobs", parent, op, float64(len(jobs)), 1)
	return nil
}
