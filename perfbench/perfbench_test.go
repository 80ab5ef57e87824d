package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/llm"
	"repro/internal/ops"
	"repro/internal/record"
	"repro/internal/schema"
	"repro/pz"
)

func TestQuantileKnownAnswers(t *testing.T) {
	xs := []float64{7, 1, 3, 5, 9}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 3}, {0.5, 5}, {0.75, 7}, {1, 9}, {0.9, 8.2},
	} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
	if xs[0] != 7 {
		t.Error("quantile reordered its input")
	}
}

var sink []byte

func TestMeasureCountsAllocations(t *testing.T) {
	const n, size = 1000, 1 << 10
	u := measure(func() {
		for i := 0; i < n; i++ {
			sink = make([]byte, size)
		}
	})
	if u.alloc.objects < n || u.alloc.objects > n+100 {
		t.Errorf("allocated %d objects, want about %d", u.alloc.objects, n)
	}
	if u.alloc.bytes < n*size || u.alloc.bytes > n*size+64<<10 {
		t.Errorf("allocated %d bytes, want about %d", u.alloc.bytes, n*size)
	}
}

func TestMeasureCountsCPU(t *testing.T) {
	const burn = 50 * time.Millisecond
	u := measure(func() {
		start := cpuTime()
		for cpuTime()-start < burn {
		}
	})
	// getrusage ticks at the scheduler's granularity, and a loaded
	// machine stretches wall time, so only these bounds are exact.
	if u.cpu < burn || u.cpu > u.wall+20*time.Millisecond {
		t.Errorf("measured cpu %v, wall %v, over a %v CPU burn", u.cpu, u.wall, burn)
	}
}

func TestStealShareKnownAnswer(t *testing.T) {
	from := parseHostCPU([]byte("cpu  100 0 20 800 5 0 5 70 0 0\ncpu0 50 0 10 400 2 0 2 35 0 0\n"))
	to := parseHostCPU([]byte("cpu  160 0 30 900 5 0 5 100 40 0\n"))
	// 200 ticks passed (guest time is inside user time), 30 of them stolen.
	if got := stealShare(from, to); math.Abs(got-0.15) > 1e-12 {
		t.Errorf("stealShare = %v, want 0.15", got)
	}
	if got := stealShare(from, parseHostCPU([]byte("intr 1 2 3\n"))); !math.IsNaN(got) {
		t.Errorf("stealShare without a cpu line = %v, want NaN", got)
	}
}

func TestRSSSamplerSeesResidentSet(t *testing.T) {
	s := newRSSSampler(time.Millisecond)
	defer s.close()
	s.arm()
	s.disarm()
	if s.peak.Load() == 0 {
		t.Fatal("no resident set sampled")
	}
}

func TestF1Floor(t *testing.T) {
	if got := f1Floor(1, 0.3); got != 1 {
		t.Errorf("floor of a gold model = %v, want 1", got)
	}
	// acc 0.9 at rate 0.5: expected F1 = 0.9 / (0.9 + 0.1) = 0.9.
	if got := f1Floor(0.9, 0.5); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("floor(0.9, 0.5) = %v, want 0.8", got)
	}
	if got := f1Score(3, 1, 1); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("f1Score(3,1,1) = %v, want 0.75", got)
	}
}

const refJSON = `[{"id":"1","v":"a"},{"id":"2","v":"b"},{"id":"3","v":"c"}]`

func TestSameRecordsRejectsPlantedDefects(t *testing.T) {
	if p := sameRecords([]byte(refJSON), []byte(refJSON)); p != "" {
		t.Fatalf("identical records rejected: %s", p)
	}
	for name, got := range map[string]string{
		"dropped":   `[{"id":"1","v":"a"},{"id":"3","v":"c"}]`,
		"reordered": `[{"id":"2","v":"b"},{"id":"1","v":"a"},{"id":"3","v":"c"}]`,
		"changed":   `[{"id":"1","v":"a"},{"id":"2","v":"x"},{"id":"3","v":"c"}]`,
	} {
		if p := sameRecords([]byte(got), []byte(refJSON)); p == "" {
			t.Errorf("%s record accepted", name)
		}
	}
}

func TestCheckCostRejectsUnreconciledCost(t *testing.T) {
	if p := checkCost(0.3027, 0.3027); p != "" {
		t.Fatalf("reconciled cost rejected: %s", p)
	}
	if p := checkCost(0.3027, 0.3028); p == "" {
		t.Error("cost off by a hundredth of a cent accepted")
	}
}

// ticket makes a record carrying a support ticket's planted truth.
func ticket(t *testing.T, id string, urgent bool) *pz.Record {
	t.Helper()
	s, err := schema.Derive("T", "a ticket", []string{"ticket_id"}, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	r, err := record.New(s, map[string]any{"ticket_id": id})
	if err != nil {
		t.Fatal(err)
	}
	r.SetTruth(corpus.TruthKey, &corpus.Truth{
		Fields: map[string]string{"ticket_id": id},
		Labels: map[string]bool{corpus.UrgentLabel: urgent},
	})
	return r
}

func TestScoreByTicketRejectsFlippedLabel(t *testing.T) {
	labels := map[string]bool{"T1": true, "T2": true, "T3": false}
	kept := []*pz.Record{ticket(t, "T1", true), ticket(t, "T2", true)}
	tp, fp, fn := scoreByTicket(kept, labels)
	if tp != 2 || fp != 0 || fn != 0 || f1Score(tp, fp, fn) < f1Floor(1, 0.3) {
		t.Fatalf("exact filter scored tp=%d fp=%d fn=%d", tp, fp, fn)
	}
	labels["T2"] = false // flipped truth label
	tp, fp, fn = scoreByTicket(kept, labels)
	if f1Score(tp, fp, fn) >= f1Floor(1, 0.3) {
		t.Errorf("flipped label passed the F1 floor: tp=%d fp=%d fn=%d", tp, fp, fn)
	}
	labels["T2"], labels["T3"] = true, true // a missed positive
	if tp, fp, fn = scoreByTicket(kept, labels); fn != 1 {
		t.Errorf("missed positive not counted: tp=%d fp=%d fn=%d", tp, fp, fn)
	}
}

// party makes an extracted contract record whose source truth plants
// party_a.
func party(t *testing.T, got, planted string) *pz.Record {
	t.Helper()
	s, err := schema.Derive("P", "parties", []string{"party_a"}, []string{"first party"})
	if err != nil {
		t.Fatal(err)
	}
	r, err := record.New(s, map[string]any{"party_a": got})
	if err != nil {
		t.Fatal(err)
	}
	r.SetTruth(corpus.TruthKey, &corpus.Truth{Fields: map[string]string{"party_a": planted}})
	return r
}

func TestFieldCheckRejectsWrongExtraction(t *testing.T) {
	check := fieldCheck("party_a")
	code := "#Set input dataset\ndataset.filter(x)\n#Perform conversion\n#Execute workload\n"
	if p := check([]*pz.Record{party(t, "Acme", "Acme")}, code); p != "" {
		t.Fatalf("correct extraction rejected: %s", p)
	}
	if p := check([]*pz.Record{party(t, "Acme", "Apex")}, code); p == "" {
		t.Error("extraction that differs from the planted party accepted")
	}
	if p := check([]*pz.Record{party(t, "Acme", "Acme")}, "no code"); p == "" {
		t.Error("code export without the pipeline skeleton accepted")
	}
	if p := check(nil, code); p == "" {
		t.Error("empty output accepted")
	}
}

func TestCheckScienceRejectsDroppedDataset(t *testing.T) {
	if p := checkScience(make([]*pz.Record, 5), strings.Join(figure6, "\n")); p == "" {
		t.Error("five datasets accepted")
	}
}

func TestChatSetupRejectsAlteredFolder(t *testing.T) {
	w := &chatWorkload{}
	if err := w.fixtures(&env{seed: 3, dir: t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	if err := w.setup(&env{seed: 3}); err != nil {
		t.Fatalf("intact folders rejected: %v", err)
	}
	if err := w.setup(&env{seed: 4}); err == nil {
		t.Error("folders of seed 3 accepted for seed 4")
	}
	legal := w.scripts[1]
	if err := os.Remove(filepath.Join(legal.dir, legal.docs[0].Filename)); err != nil {
		t.Fatal(err)
	}
	if err := w.setup(&env{seed: 3}); err == nil {
		t.Error("folder with a dropped document accepted")
	}
}

func TestSeenBeforeRejectsUncausedPlanHit(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(spec int, startMS, latencyMS int) response {
		return response{spec: spec, start: t0.Add(time.Duration(startMS) * time.Millisecond),
			latency: time.Duration(latencyMS) * time.Millisecond}
	}
	resps := []response{at(1, 0, 5), at(2, 1, 5), at(1, 4, 5), at(3, 20, 5), at(1, 30, 5)}
	for i, want := range []bool{true, false, true, false, true} {
		if got := seenBefore(resps, i); got != want {
			t.Errorf("query %d (spec %d): seenBefore = %t, want %t", i, resps[i].spec, got, want)
		}
	}
}

// TestSmokeAllWorkloads runs one timed round of every workload, then a
// traced round, and checks the result lines hold every metric.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs all four workloads")
	}
	for _, w := range []string{wCorpusScan, wCluster, wServe, wChat} {
		for _, traced := range []bool{false, true} {
			if traced && w != wChat {
				continue // one traced run probes the other three workloads
			}
			dir := t.TempDir()
			o := options{workload: w, seed: 3, rounds: 1, trace: traced, work: dir, spans: filepath.Join(dir, "spans.json")}
			var out bytes.Buffer
			res, err := run(o, &out)
			if err != nil {
				t.Fatalf("%s (traced %t): %v\n%s", w, traced, err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s (traced %t): correct %t attempted %d failed %d\n%s",
					w, traced, res.Correct, res.Attempted, res.Failed, out.String())
			}
			want := []string{"setup_s", "docs_per_s", "latency_ms_p50", "cpu_ms_per_op", "alloc_mb_per_op",
				"peak_rss_mb", "sim_s_per_op", "cost_usd_per_op", "f1"}
			if traced {
				want = want[:0]
				for _, lm := range layerMetrics {
					want = append(want, lm.name)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s (traced %t): %d metrics, want %d", w, traced, len(res.Metrics), len(want))
			}
			for _, name := range want {
				m, ok := res.Metrics[name]
				if !ok || math.IsNaN(m.Value) || m.Unit == "" {
					t.Errorf("%s (traced %t): metric %s missing or empty: %+v", w, traced, name, m)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v", w, name, m.Value)
				}
			}
			if _, err := json.Marshal(res); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestExtractRequestsMatchConvert replays the extraction calls of a
// convert-only pipeline, on a bonded and on a fieldwise candidate plan,
// and checks that they cost the oracle exactly the calls and input tokens
// the convert operator's own calls did: the llm.extract replay sends
// what the operator sends.
func TestExtractRequestsMatchConvert(t *testing.T) {
	docs, err := corpus.Collect(mustGenerator(t, corpus.DomainLegal, 12))
	if err != nil {
		t.Fatal(err)
	}
	target, err := pz.NewSchema("Parties", "The parties of a contract.",
		schema.Field{Name: "party_a", Type: schema.String, Desc: "The first party."},
		schema.Field{Name: "party_b", Type: schema.String, Desc: "The second party."})
	if err != nil {
		t.Fatal(err)
	}
	newContext := func() (*pz.Context, pz.Source, *pz.Dataset) {
		ctx, err := pz.NewContext(pz.Config{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		src, err := ctx.RegisterDocs("contracts", pz.TextFile, docs)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := ctx.Dataset("contracts")
		if err != nil {
			t.Fatal(err)
		}
		return ctx, src, ds.Convert(target, target.Doc(), pz.OneToOne)
	}
	convertOf := func(p *pz.Plan) *ops.LLMConvertExec {
		for _, op := range p.Ops {
			if c, ok := op.(*ops.LLMConvertExec); ok {
				return c
			}
		}
		return nil
	}
	ctx, _, ds := newContext()
	_, cands, err := ctx.OptimizeOnly(ds, pz.MaxQuality())
	if err != nil {
		t.Fatal(err)
	}
	for _, bonded := range []bool{true, false} {
		var plan *pz.Plan
		for _, p := range cands {
			if c := convertOf(p); c != nil && c.Bonded == bonded {
				plan = p
				break
			}
		}
		if plan == nil {
			t.Fatalf("no candidate plan with a bonded=%t LLM convert", bonded)
		}
		ctx, src, _ := newContext()
		if _, err := ctx.ExecutePlanContext(context.Background(), plan, "max-quality"); err != nil {
			t.Fatal(err)
		}
		recs, err := src.Records()
		if err != nil {
			t.Fatal(err)
		}
		conv := convertOf(plan)
		svc := llm.NewService()
		if err := completeAll(svc, extractRequests(conv, recs)); err != nil {
			t.Fatal(err)
		}
		got, want := svc.Usage()[conv.Model], ctx.Executor().Service().Usage()[conv.Model]
		if got.Calls == 0 || got.Calls != want.Calls || got.InputTokens != want.InputTokens {
			t.Errorf("bonded %t: replay made %d calls with %d input tokens, the operator %d with %d",
				bonded, got.Calls, got.InputTokens, want.Calls, want.InputTokens)
		}
	}
}

func mustGenerator(t *testing.T, domain string, n int) corpus.Generator {
	t.Helper()
	g, err := corpus.NewGenerator(domain, n, -1, 5)
	if err != nil {
		t.Fatal(err)
	}
	return g
}
