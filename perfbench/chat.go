package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/corpus"
	"repro/internal/dataset"
	"repro/internal/llm"
	"repro/internal/ops"
	"repro/palimpchat"
	"repro/pz"
)

const (
	// chatContracts and chatListings size the seeded legal and real-estate
	// folders so a conversation over either takes tens of milliseconds.
	chatContracts = 120
	chatListings  = 160
)

// figure6 are the elements of the paper's Figure 6 code export.
var figure6 = []string{
	"#Set input dataset",
	"pz.Dataset(source=",
	"#Filter dataset",
	"dataset.filter(",
	"colorectal cancer",
	"#Create new schema",
	"pz.Field(desc=desc)",
	"type(class_name, (pz.Schema,), schema)",
	"#Perform conversion",
	"pz.Cardinality.ONE_TO_MANY",
	"#Execute workload",
	"policy = pz.MaxQuality()",
	"records, execution_stats = Execute(output, policy=policy)",
}

// chatScript is one scripted PalimpChat conversation over a folder.
type chatScript struct {
	name  string
	dir   string
	docs  []*corpus.Doc
	label string // planted label the conversation's filter targets
	// turns are the user's utterances; the one at run is the execute turn.
	turns []string
	run   int
	// check validates the outputs and the last reply (the code export).
	check func(recs []*pz.Record, code string) string
}

type chatWorkload struct {
	// folders is the directory the fixture step wrote the conversations'
	// folders into; it outlives every set-up of the run.
	folders string
	scripts []*chatScript
}

// chatScripts generates the three conversations' documents from the seed
// and lays out their scripts over folders under dir.
func chatScripts(seed int64, dir string) []*chatScript {
	sci := &chatScript{name: "science-11", dir: filepath.Join(dir, "sigmod-demo"), label: "colorectal",
		docs: corpus.GenerateBiomed(corpus.PaperDemoBiomed())}
	sci.turns = []string{
		"load the papers from " + sci.dir + " as sigmod-demo",
		"I am interested in papers about colorectal cancer and for these extract the dataset name, description and url",
		"optimize for maximum quality",
		"run the pipeline",
		"how much runtime was needed and how much did the LLM calls cost?",
		"show me the extracted records",
		"show me the code for the pipeline",
	}
	sci.run = 3
	sci.check = checkScience

	legal := &chatScript{name: "legal", dir: filepath.Join(dir, "contracts"), label: corpus.IndemnificationLabel,
		docs: corpus.GenerateLegal(corpus.LegalConfig{NumContracts: chatContracts, IndemnificationRate: 0.4, Seed: seed})}
	legal.turns = []string{
		"load the contracts from " + legal.dir + " as contracts",
		"keep only contracts that contain an indemnification clause and extract the party_a, party_b and effective_date",
		"optimize for maximum quality",
		"run the pipeline",
		"show me the extracted records",
		"show me the code for the pipeline",
	}
	legal.run = 3
	legal.check = fieldCheck("party_a", "party_b", "effective_date")

	homes := &chatScript{name: "real-estate", dir: filepath.Join(dir, "listings"), label: corpus.ModernLabel,
		docs: corpus.GenerateRealEstate(corpus.RealEstateConfig{NumListings: chatListings, ModernRate: 0.35, Seed: seed})}
	homes.turns = []string{
		"load the listings from " + homes.dir + " as listings",
		"keep only listings with a modern interior and extract the address and neighborhood",
		"optimize for maximum quality",
		"run the pipeline",
		"how much runtime was needed and how much did the LLM calls cost?",
		"show me the code for the pipeline",
	}
	homes.run = 3
	homes.check = fieldCheck("address", "neighborhood")

	return []*chatScript{sci, legal, homes}
}

// fixtures writes the folders the conversations load, once per run: they
// stand for the user's folders, which exist before PalimpChat starts.
// Creating the ~300 files is the one step of this workload whose cost is
// the host's rather than the program's (see README.md), so it stays out
// of the timed set-ups; the traced run records it as dataset.materialize.
func (w *chatWorkload) fixtures(e *env) error {
	w.folders = e.dir
	for _, s := range chatScripts(e.seed, e.dir) {
		var err error
		e.tr.time("dataset.materialize", 0, 0, len(s.docs), func() {
			_, err = dataset.MaterializeCorpus(filepath.Base(s.dir), s.dir, s.docs)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// setup generates the conversations' documents from the seed, which the
// checks score against, and reads each folder back through the directory
// source to confirm it holds exactly those documents with their truth.
func (w *chatWorkload) setup(e *env) error {
	w.scripts = chatScripts(e.seed, w.folders)
	for _, s := range w.scripts {
		src, err := dataset.NewDirSource(filepath.Base(s.dir), s.dir)
		if err != nil {
			return err
		}
		recs, err := src.Records()
		if err != nil {
			return err
		}
		if len(recs) != len(s.docs) {
			return fmt.Errorf("%s: folder holds %d documents, the seed makes %d", s.name, len(recs), len(s.docs))
		}
		want := make(map[string]*corpus.Truth, len(s.docs))
		for _, d := range s.docs {
			want[d.Filename] = d.Truth
		}
		for _, rec := range recs {
			name := rec.GetString("filename")
			got, err := json.Marshal(corpus.TruthOf(rec))
			if err != nil {
				return err
			}
			planted, err := json.Marshal(want[name])
			if err != nil {
				return err
			}
			if !bytes.Equal(got, planted) {
				return fmt.Errorf("%s: %s does not carry the truth the seed plants", s.name, name)
			}
		}
	}
	return nil
}

func (w *chatWorkload) close() {}

// checkScience checks the §3 conversation: exactly the paper's six
// datasets, each a planted mention of the paper it was extracted from,
// together covering every dataset the relevant papers mention, and a
// code export with every Figure 6 element.
func checkScience(recs []*pz.Record, code string) string {
	if len(recs) != 6 {
		return fmt.Sprintf("science-11: %d datasets extracted, want the paper's 6", len(recs))
	}
	got := map[string]bool{}
	for _, rec := range recs {
		t := corpus.TruthOf(rec)
		if t == nil {
			return "science-11: extracted record carries no source truth"
		}
		name, url := rec.GetString("dataset_name"), rec.GetString("url")
		found := false
		for _, m := range t.MentionsOfKind(corpus.DatasetMentionKind) {
			found = found || (m.Fields["name"] == name && m.Fields["url"] == url)
		}
		if !found {
			return fmt.Sprintf("science-11: dataset %q (%s) is not a planted mention of its paper", name, url)
		}
		got[name] = true
	}
	if len(got) != 6 {
		return fmt.Sprintf("science-11: %d distinct datasets among 6 records", len(got))
	}
	for _, want := range figure6 {
		if !strings.Contains(code, want) {
			return fmt.Sprintf("science-11: generated code misses Figure 6 element %q", want)
		}
	}
	return ""
}

// fieldCheck checks that every extracted field equals the planted field
// of the record's source document, and that the code export has the
// Figure 6 skeleton.
func fieldCheck(fields ...string) func([]*pz.Record, string) string {
	return func(recs []*pz.Record, code string) string {
		if len(recs) == 0 {
			return "no records extracted"
		}
		for _, rec := range recs {
			t := corpus.TruthOf(rec)
			if t == nil {
				return "extracted record carries no source truth"
			}
			for _, f := range fields {
				if got, want := rec.GetString(f), t.Fields[f]; got != want {
					return fmt.Sprintf("extracted %s %q, planted %q", f, got, want)
				}
			}
		}
		for _, want := range []string{"#Set input dataset", "dataset.filter(", "#Perform conversion", "#Execute workload"} {
			if !strings.Contains(code, want) {
				return fmt.Sprintf("generated code misses %q", want)
			}
		}
		return ""
	}
}

// round runs every script once, one user at a time.
func (w *chatWorkload) round(r *runner) error {
	for _, s := range w.scripts {
		if err := w.converse(r, s); err != nil {
			return err
		}
	}
	return nil
}

func (w *chatWorkload) converse(r *runner, s *chatScript) error {
	var sess *palimpchat.Session
	var reply string
	var err error
	turns := make([]time.Duration, len(s.turns))
	starts := make([]time.Time, len(s.turns))
	op := r.nextOp()
	u, span := r.timedOp(op, 1, func() {
		if sess, err = palimpchat.NewSession(palimpchat.Options{Config: pz.Config{Parallelism: 4}}); err != nil {
			return
		}
		for i, t := range s.turns {
			starts[i] = time.Now()
			reply, err = sess.Chat(t)
			turns[i] = time.Since(starts[i])
			if err != nil {
				err = fmt.Errorf("%s turn %d: %w", s.name, i+1, err)
				return
			}
		}
	})
	o := outcome{latency: u.wall, docs: len(s.docs), err: err}
	var res *pz.Result
	if err == nil {
		if res = sess.LastResult(); res == nil {
			o.err = fmt.Errorf("%s: conversation ran no pipeline", s.name)
		}
	}
	if o.err == nil {
		o.simSec, o.costUSD = res.Elapsed.Seconds(), res.CostUSD
		o.problem = s.check(res.Records, reply)
		if o.problem == "" {
			o.problem = checkCost(res.CostUSD, sess.Context().TotalCost())
		}
		o.tp, o.fp, o.fn = scoreByLabel(res.Records, s.docs, s.label)
	}
	r.note(o)
	if r.tr != nil && o.err == nil {
		return replayChat(r.tr, op, span, s, sess, res, starts, turns)
	}
	return nil
}

// replayChat splits a traced conversation into its layers: the agent's
// non-executing turns, the execute turn's own overhead over a direct
// Execute, code generation, the directory source, and the extraction
// calls of the chosen plan.
func replayChat(tr *tracer, op int, parent int64, s *chatScript, sess *palimpchat.Session, res *pz.Result, starts []time.Time, turns []time.Duration) error {
	for i, d := range turns {
		if i != s.run {
			tr.interval("palimpchat.turn", parent, op, starts[i], d)
		}
	}
	var err error
	ex := tr.time("pz.execute", parent, op, 1, func() {
		_, err = sess.Context().Execute(sess.Pipeline(), pz.MaxQuality())
	})
	if err != nil {
		return err
	}
	tr.count("palimpchat.execute_self", parent, op, float64(turns[s.run])/float64(time.Millisecond)-spanWallMS(tr, ex), 1)
	tr.time("palimpchat.codegen", parent, op, 1, func() {
		_, err = sess.GenerateCode()
	})
	if err != nil {
		return err
	}
	tr.count("archytas.steps", parent, op, float64(len(sess.Steps())), 1)

	ctx, err := pz.NewContext(pz.Config{})
	if err != nil {
		return err
	}
	var recs []*pz.Record
	tr.time("dataset.dir", parent, op, len(s.docs), func() {
		var src pz.Source
		if src, err = ctx.RegisterDir(filepath.Base(s.dir), s.dir); err != nil {
			return
		}
		recs, err = src.Records()
	})
	if err != nil {
		return err
	}
	var conv *ops.LLMConvertExec
	for _, p := range res.Plan.Ops {
		if c, ok := p.(*ops.LLMConvertExec); ok {
			conv = c
		}
	}
	if conv == nil {
		return fmt.Errorf("%s: chosen plan %s has no LLM convert", s.name, res.Plan)
	}
	var kept []*pz.Record
	for _, rec := range recs {
		if t := corpus.TruthOf(rec); t != nil && t.Labels[s.label] {
			kept = append(kept, rec)
		}
	}
	reqs := extractRequests(conv, kept)
	svc := llm.NewService()
	tr.time("llm.extract", parent, op, len(reqs), func() {
		err = completeAll(svc, reqs)
	})
	return err
}
