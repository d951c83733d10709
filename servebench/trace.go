package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"guardedrules/internal/core"
	"guardedrules/internal/database"
	"guardedrules/internal/datalog"
	"guardedrules/internal/kb"
	"guardedrules/internal/kbcache"
	"guardedrules/internal/parser"
	"guardedrules/internal/saturate"
	"guardedrules/internal/store/segment"
	"guardedrules/internal/termination"
)

// The traced run replays the workload's seeded op sequence in-process
// and records a span around every call into a layer's public function.
// Spans are kept in memory and written out at the end. The spans come
// from this file only: the program itself is not instrumented, so a
// black-box call (Store.Register, AnswerCQ) is followed by a white-box
// re-run of the same steps (classify, rew, dat, Compile, Clone, Eval,
// CollectAnswers) that splits its cost by layer.

// span is one timed call.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 for an op root
	Op     int    `json:"op_id"`
}

// tracer records spans of a single goroutine. Off, every call is a
// no-op, so traced minus untraced throughput is the recording cost.
type tracer struct {
	on     bool
	t0     time.Time
	spans  []span
	stack  []int
	op     int
	counts map[string]float64
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, t0: time.Now(), counts: map[string]float64{}}
}

func (t *tracer) begin(name string) int {
	if !t.on {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.t0).Nanoseconds(), Parent: parent, Op: t.op})
	i := len(t.spans) - 1
	t.stack = append(t.stack, i)
	return i
}

func (t *tracer) end(i int) {
	if i < 0 {
		return
	}
	t.spans[i].End = time.Since(t.t0).Nanoseconds()
	t.stack = t.stack[:len(t.stack)-1]
}

// do times f as a span named name.
func (t *tracer) do(name string, f func()) {
	i := t.begin(name)
	f()
	t.end(i)
}

// startOp opens an op's root span.
func (t *tracer) startOp(kind string) int {
	t.op++
	return t.begin("op." + kind)
}

func (t *tracer) count(name string, v float64) {
	if t.on {
		t.counts[name] += v
	}
}

// selfTimes sums each span name's self time (duration minus the time
// covered by its children) and call count.
func (t *tracer) selfTimes() (self map[string]float64, calls map[string]int) {
	self, calls = map[string]float64{}, map[string]int{}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range t.spans {
		self[s.Name] += float64(s.End-s.Start-child[i]) / 1e6
		calls[s.Name]++
	}
	return self, calls
}

// replay is the in-process mirror of one server: a kbcache store, the
// fixture DBs, the live DB on a segment store with its maintained
// subscription, and the white-box plans of the hot queries.
type replay struct {
	r   *runner
	tr  *tracer
	chk *checker
	dir string

	store  *kbcache.Store
	hotTh  *core.Theory
	hotKB  *kbcache.CompiledKB
	hotDBs []*database.Database
	plans  map[string]*datalog.Program // dat(Σ∪q), per CQ
	magic  *datalog.Program            // magic-sets program of T(c,Y)
	seed   string                      // its seed relation
	qrel   string                      // its answer relation
	join   datalog.JoinStats

	live     *liveDB
	seg      *segment.Store
	mq       *kbcache.MaintainedQuery
	snap     *database.Database
	walStart int64
	batches  int
}

var bg = context.Background()

func (r *runner) newReplay(tr *tracer, name string) (*replay, error) {
	p := &replay{r: r, tr: tr, chk: newChecker(), plans: map[string]*datalog.Program{}}
	p.dir = filepath.Join(r.dir, name)
	p.store = kbcache.NewStore(kbcache.Config{CompileTimeout: 30 * time.Second})
	var err error
	if p.hotTh, err = parser.ParseTheory(hotTheory); err != nil {
		return nil, err
	}
	if p.hotKB, _, err = p.store.Register(bg, hotTheory); err != nil {
		return nil, err
	}
	for _, facts := range r.hotFacts {
		atoms, err := parser.ParseFacts(facts)
		if err != nil {
			return nil, err
		}
		p.hotDBs = append(p.hotDBs, database.FromAtoms(atoms))
	}
	for _, src := range append(append([]string{}, hotCQs...), liveReadCQs...) {
		q, err := kb.ParseCQ(src)
		if err != nil {
			return nil, err
		}
		att, err := kb.Attach(p.hotTh, q)
		if err != nil {
			return nil, err
		}
		dat, _, err := saturate.NearlyGuardedToDatalog(att, saturate.Options{})
		if err != nil {
			return nil, err
		}
		if p.plans[src], err = datalog.Compile(dat); err != nil {
			return nil, err
		}
	}
	atom, err := parseAtom(atomQuery(0))
	if err != nil {
		return nil, err
	}
	mr, err := datalog.MagicRewrite(p.hotKB.Program().Theory(), atom)
	if err != nil {
		return nil, err
	}
	if p.magic, err = datalog.Compile(mr.Program); err != nil {
		return nil, err
	}
	p.seed, p.qrel = mr.Seed.Relation, mr.QueryRel
	return p, nil
}

// openLive puts a live DB on a fresh segment store at version 1 and
// registers its maintained subscription.
func (p *replay) openLive(l *liveDB) error {
	l.reset("replay")
	dir := filepath.Join(p.dir, l.name)
	os.RemoveAll(dir)
	seg, err := segment.Open(dir, segment.Options{})
	if err != nil {
		return err
	}
	atoms, err := parser.ParseFacts(l.history[1])
	if err != nil {
		return err
	}
	for _, a := range atoms {
		seg.Add(a)
	}
	if _, err := seg.Commit(); err != nil {
		return err
	}
	q, err := kb.ParseCQ(liveCQ)
	if err != nil {
		return err
	}
	p.live, p.seg, p.snap = l, seg, seg.Clone()
	if p.mq, err = p.hotKB.MaintainCQ(bg, q, p.snap, kbcache.QueryOptions{}); err != nil {
		return err
	}
	p.walStart, p.batches = walBytes(dir), 0
	return nil
}

func walBytes(dir string) int64 {
	var n int64
	matches, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	for _, m := range matches {
		if st, err := os.Stat(m); err == nil {
			n += st.Size()
		}
	}
	return n
}

// queryResponse mirrors the server's query response for json.Marshal.
type queryResponse struct {
	Answers   [][]string `json:"answers"`
	Count     int        `json:"count"`
	Exact     bool       `json:"exact"`
	PlanKey   string     `json:"plan_key"`
	PlanHit   bool       `json:"plan_hit"`
	Chain     []string   `json:"chain,omitempty"`
	DBVersion uint64     `json:"db_version"`
}

func (p *replay) encode(res *kbcache.QueryResult, version uint64) [][]string {
	resp := queryResponse{Answers: termRows(res.Answers), Count: len(res.Answers), Exact: res.Exact,
		PlanKey: res.PlanKey, PlanHit: res.PlanHit, Chain: res.Chain, DBVersion: version}
	p.tr.do("json.Marshal(query)", func() { json.MarshalIndent(resp, "", "  ") })
	return resp.Answers
}

// evalWhiteBox re-runs a compiled plan step by step: the fixpoint
// (which clones its input first), then answer collection.
func (p *replay) evalWhiteBox(prog *datalog.Program, in *database.Database, collect func(*database.Database)) {
	var fix *database.Database
	var err error
	p.tr.do("Program.Eval", func() { fix, err = prog.Eval(in, datalog.Options{Stats: &p.join}) })
	if err != nil {
		p.chk.wrongf("replay: eval: %v", err)
		return
	}
	p.tr.do("CollectAnswers", func() { collect(fix) })
	p.tr.count("evals", 1)
	p.tr.count("fixpoint_facts", float64(fix.Len()))
	p.tr.count("derived", float64(fix.Len()-in.Len()))
}

// read replays one query against a snapshot; key names its reference.
func (p *replay) read(d *database.Database, q hotQuery, version uint64, key string) {
	root := p.tr.startOp("read")
	defer p.tr.end(root)
	opts := kbcache.QueryOptions{}
	var res *kbcache.QueryResult
	var err error
	if q.cq >= 0 {
		src := q.label
		var cq kb.CQ
		p.tr.do("kb.ParseCQ", func() { cq, err = kb.ParseCQ(src) })
		if err == nil {
			p.tr.do("kbcache.AnswerCQ", func() { res, err = p.hotKB.AnswerCQ(bg, cq, d, opts) })
		}
		if err == nil {
			p.chk.observe(key, p.encode(res, version))
			// The clone Program.Eval starts with, timed on its own.
			p.tr.do("Database.Clone", func() { d.Clone() })
			p.evalWhiteBox(p.plans[src], d, func(fix *database.Database) { datalog.CollectAnswers(fix, kb.QueryRel) })
		}
	} else {
		var atom core.Atom
		p.tr.do("kb.ParseAtom", func() { atom, err = parseAtom(q.atom) })
		if err == nil {
			p.tr.do("kbcache.AnswerAtom", func() { res, err = p.hotKB.AnswerAtom(bg, atom, d, opts) })
		}
		if err == nil {
			p.chk.observe(key, p.encode(res, version))
			var bound []core.Term
			for _, t := range atom.Args {
				if t.IsConst() {
					bound = append(bound, t)
				}
			}
			var seeded *database.Database
			p.tr.do("Database.Clone", func() { seeded = d.Clone() })
			seeded.Add(core.NewAtom(p.seed, bound...))
			p.evalWhiteBox(p.magic, seeded, func(fix *database.Database) {
				var out []core.Atom
				for _, f := range fix.Facts(core.RelKey{Name: p.qrel, Arity: len(atom.Args)}) {
					if f.Args[0] == atom.Args[0] {
						out = append(out, f)
					}
				}
			})
		}
	}
	if err != nil {
		p.chk.wrongf("replay: %s: %v", q.label, err)
	}
}

// liveRead replays a read-back of the live DB's current version.
func (p *replay) liveRead(cq string) {
	v := p.live.ver.last
	p.live.read(v, cq)
	p.read(p.snap, hotQuery{cq: 0, label: cq}, v, versionKey(p.live.name, v, cq))
}

// write replays one batch: parse, journal and commit, clone the new
// snapshot, fold the batch into the subscription, encode the delta.
func (p *replay) write(rng *rand.Rand) {
	root := p.tr.startOp("write")
	defer p.tr.end(root)
	b := p.live.g.nextBatch(rng)
	var adds, dels []core.Atom
	var err error
	p.tr.do("parser.ParseFacts", func() {
		if adds, err = parser.ParseFacts(b.addText()); err == nil {
			dels, err = parser.ParseFacts(b.retractText())
		}
	})
	if err != nil {
		p.chk.wrongf("replay: parse batch: %v", err)
		return
	}
	p.tr.do("segment.Store.Apply", func() {
		for _, f := range dels {
			p.seg.Retract(f)
		}
		for _, f := range adds {
			p.seg.Add(f)
		}
	})
	var ver uint64
	p.tr.do("segment.Store.Commit", func() { ver, err = p.seg.Commit() })
	if err != nil {
		p.chk.wrongf("replay: commit: %v", err)
		return
	}
	p.live.ver.ack(p.chk, ver)
	p.live.history = append(p.live.history, p.live.g.facts())
	p.batches++
	p.tr.do("Database.Clone", func() { p.snap = p.seg.Clone() })
	var d kbcache.AnswerDelta
	p.tr.do("MaintainedQuery.Apply", func() { d, err = p.mq.Apply(adds, dels, kbcache.QueryOptions{}) })
	if err != nil {
		p.chk.wrongf("replay: maintain: %v", err)
		return
	}
	p.tr.do("json.Marshal(delta)", func() {
		json.Marshal(map[string]any{"version": ver, "added": termRows(d.Added), "removed": termRows(d.Removed)})
	})
}

// reopen closes and reopens the live DB's segment store.
func (p *replay) reopen() {
	root := p.tr.startOp("reopen")
	defer p.tr.end(root)
	dir := p.seg.Dir()
	p.tr.count("wal_bytes", float64(walBytes(dir)-p.walStart))
	p.tr.count("batches", float64(p.batches))
	p.seg.Close()
	var err error
	p.tr.do("segment.Store.Open", func() { p.seg, err = segment.Open(dir, segment.Options{}) })
	if err != nil {
		p.chk.wrongf("replay: reopen: %v", err)
		return
	}
	if p.seg.Version() != p.live.ver.last {
		p.chk.wrongf("replay: reopened segment store at version %d, last committed %d", p.seg.Version(), p.live.ver.last)
	}
	p.seg.Close()
}

// compile replays one compile_cold op: the register-time steps on Σ
// white-box, then through the store; the CQ white-box from scratch,
// then twice through the compiled KB.
func (p *replay) compile(t *template, suffix string) {
	inst, err := instantiate(t, suffix)
	if err != nil {
		p.chk.wrongf("replay: %v", err)
		return
	}
	root := p.tr.startOp("compile")
	defer p.tr.end(root)
	var th *core.Theory
	p.tr.do("parser.ParseTheory", func() { th, err = parser.ParseTheory(inst.theory) })
	if err != nil {
		p.chk.wrongf("replay: %v", err)
		return
	}
	p.tr.do("termination.Analyze", func() { termination.Analyze(th) })
	dat, err := translate(p.tr, th, "")
	if err == nil && dat != nil {
		p.tr.do("datalog.Compile", func() { _, err = datalog.Compile(dat) })
	}
	if err != nil {
		p.chk.wrongf("replay: translate %s: %v", t.name, err)
		return
	}
	var ckb *kbcache.CompiledKB
	p.tr.do("kbcache.Store.Register", func() { ckb, _, err = p.store.Register(bg, inst.theory) })
	if err != nil {
		p.chk.wrongf("replay: register %s: %v", t.name, err)
		return
	}
	var atoms []core.Atom
	p.tr.do("parser.ParseFacts", func() { atoms, err = parser.ParseFacts(inst.facts) })
	d := database.FromAtoms(atoms)
	var q kb.CQ
	p.tr.do("kb.ParseCQ", func() { q, err = kb.ParseCQ(inst.cq) })
	if err != nil {
		p.chk.wrongf("replay: %v", err)
		return
	}
	rows, err := answerFromScratch(p.tr, th, q, d)
	if err != nil {
		p.chk.wrongf("replay: %s white-box: %v", t.name, err)
		return
	}
	p.chk.observe(templateKey(t), termRows(rows))
	var res *kbcache.QueryResult
	for i, name := range []string{"kbcache.AnswerCQ(cold)", "kbcache.AnswerCQ"} {
		p.tr.do(name, func() { res, err = ckb.AnswerCQ(bg, q, d, kbcache.QueryOptions{}) })
		if err != nil || !res.Exact {
			p.chk.wrongf("replay: %s query %d: err %v", t.name, i, err)
			return
		}
		p.chk.observe(templateKey(t), p.encode(res, 1))
	}
}

// mainOps replays the workload's own ops: for a fixed count when n > 0,
// else until the duration passes. It returns the ops run and the time.
func (p *replay) mainOps(n int, dur time.Duration) (int, time.Duration, error) {
	r := p.r
	rng := rand.New(rand.NewSource(r.cfg.seed*131 + 7))
	start := time.Now()
	more := func(i int) bool {
		if n > 0 {
			return i < n
		}
		return time.Since(start) < dur
	}
	i := 0
	switch r.cfg.workload {
	case "read_hot":
		for ; more(i); i++ {
			q := hotNext(rng, i)
			p.read(p.hotDBs[q.db], q, 1, hotKey(q))
		}
	case "write_live":
		if err := p.openLive(r.live); err != nil {
			return 0, 0, err
		}
		for ; more(i); i++ {
			p.write(rng)
			p.liveRead(liveReadCQ(i))
		}
	case "compile_cold":
		for ; more(i); i++ {
			p.compile(&r.pool[i%len(r.pool)], freshSuffix(r.cfg.seed, "t", i))
		}
	}
	return i, time.Since(start), nil
}

// layerProbe runs a fixed handful of every op kind, so every layer is
// measured on every workload: hot reads (CQ and atom), write batches
// with a reopen of the segment store, and one compile op per template.
func (p *replay) layerProbe() error {
	rng := rand.New(rand.NewSource(p.r.cfg.seed*131 + 13))
	for i := 0; i < 2*(len(hotCQs)+1); i++ {
		q := hotNext(rng, i)
		p.read(p.hotDBs[q.db], q, 1, hotKey(q))
	}
	if p.live == nil || p.live == p.r.probe {
		if err := p.openLive(p.r.probe); err != nil {
			return err
		}
	}
	for i := 0; i < 50; i++ {
		p.write(rng)
	}
	p.reopen()
	for i := range p.r.pool {
		p.compile(&p.r.pool[i], freshSuffix(p.r.cfg.seed, "q", i))
	}
	return nil
}

// traced runs the replay twice over the same ops — untraced, then
// traced — and derives the per-layer metrics from the spans and from
// the /metrics deltas of the HTTP run.
func (r *runner) traced() (map[string]metric, error) {
	dur := time.Duration(r.cfg.seconds * 0.2 * float64(time.Second))
	plain, err := r.newReplay(newTracer(false), "replay-untraced")
	if err != nil {
		return nil, err
	}
	n, plainDur, err := plain.mainOps(0, dur)
	if err != nil {
		return nil, err
	}
	tr := newTracer(true)
	p, err := r.newReplay(tr, "replay-traced")
	if err != nil {
		return nil, err
	}
	_, tracedDur, err := p.mainOps(n, 0)
	if err != nil {
		return nil, err
	}
	if err := p.layerProbe(); err != nil {
		return nil, err
	}
	if p.live != nil {
		r.versionRefs(p.live)
	}
	for _, pl := range []*replay{plain, p} {
		pl.chk.judge(r.refs)
		r.chk.wrong = append(r.chk.wrong, pl.chk.wrong...)
	}
	out := r.layerMetrics(tr, p)
	untraced := float64(n) / plainDur.Seconds()
	traced := float64(n) / tracedDur.Seconds()
	out["trace.ops_per_s_untraced"] = metric{untraced, "1/s"}
	out["trace.ops_per_s_traced"] = metric{traced, "1/s"}
	out["trace.overhead_pct"] = metric{100 * (untraced - traced) / untraced, "%"}
	r.spanFile = filepath.Join(r.cfg.outDir, fmt.Sprintf("spans-%s-seed%d.json", r.cfg.workload, r.cfg.seed))
	blob, err := json.Marshal(map[string]any{"workload": r.cfg.workload, "seed": r.cfg.seed, "ops": tr.op, "spans": tr.spans})
	if err != nil {
		return nil, err
	}
	return out, os.WriteFile(r.spanFile, blob, 0o644)
}

// layer describes one per-layer metric: how it is computed and which
// end-to-end metric (on which workload) it should move.
type layer struct {
	name, unit, better, moves string
}

// layers is the per-layer metric list, in report order.
var layers = []layer{
	{"server.query_handler_ms", "ms", "lower", "read_p50_ms on read_hot"},
	{"server.client_overhead_ms", "ms", "lower", "read_p50_ms on read_hot"},
	{"server.encode_ms", "ms", "lower", "read_p50_ms on read_hot"},
	{"server.facts_handler_ms", "ms", "lower", "write_p50_ms on write_live"},
	{"server.theories_handler_ms", "ms", "lower", "compile_p50_ms"},
	{"server.shed", "count", "lower", "ops_failed (all workloads)"},
	{"server.admitted_light", "count", "higher", "ops_failed (all workloads)"},
	{"server.admitted_heavy", "count", "higher", "ops_failed (all workloads)"},
	{"server.db_evictions", "count", "lower", "ops_failed (compile_cold)"},
	{"parser.parse_facts_ms", "ms", "lower", "write_p50_ms on write_live, setup_s"},
	{"parser.parse_theory_ms", "ms", "lower", "compile_p50_ms"},
	{"kb.parse_cq_ms", "ms", "lower", "compile_p50_ms and read_p50_ms"},
	{"kbcache.plan_hit_ratio", "ratio", "higher", "read_p50_ms on read_hot (~1.0; ~0.5 on compile_cold)"},
	{"kbcache.answer_cq_ms", "ms", "lower", "read_p50_ms on read_hot"},
	{"kbcache.answer_atom_ms", "ms", "lower", "read_p50_ms on read_hot"},
	{"kbcache.register_ms", "ms", "lower", "compile_p50_ms"},
	{"kbcache.compile_misses", "count", "higher", "compile_p50_ms"},
	{"kbcache.kb_evictions", "count", "lower", "compile_p50_ms"},
	{"kbcache.translations", "count", "higher", "compile_p50_ms"},
	{"kbcache.maintain_apply_ms", "ms", "lower", "write_p50_ms and delta_lag_p50_ms on write_live"},
	{"kbcache.certified_runs", "count", "higher", "first_answer_p50_ms"},
	{"classify.classify_ms", "ms", "lower", "compile_p50_ms"},
	{"termination.analyze_ms", "ms", "lower", "compile_p50_ms"},
	{"rewrite.rewrite_ms", "ms", "lower", "compile_p50_ms"},
	{"rewrite.rules_out", "rules", "lower", "compile_p50_ms"},
	{"saturate.dat_ms", "ms", "lower", "compile_p50_ms"},
	{"saturate.rules_out", "rules", "lower", "compile_p50_ms"},
	{"datalog.compile_ms", "ms", "lower", "compile_p50_ms"},
	{"kb.attach_ms", "ms", "lower", "first_answer_p50_ms"},
	{"classify.classify_q_ms", "ms", "lower", "first_answer_p50_ms"},
	{"termination.analyze_q_ms", "ms", "lower", "first_answer_p50_ms"},
	{"rewrite.rewrite_q_ms", "ms", "lower", "first_answer_p50_ms"},
	{"saturate.dat_q_ms", "ms", "lower", "first_answer_p50_ms"},
	{"saturate.rules_out_q", "rules", "lower", "first_answer_p50_ms"},
	{"datalog.compile_q_ms", "ms", "lower", "first_answer_p50_ms"},
	{"database.clone_ms", "ms", "lower", "read_p50_ms on read_hot, write_p50_ms on write_live"},
	{"database.fixpoint_facts", "facts", "lower", "read_p50_ms on read_hot, write_p50_ms on write_live"},
	{"datalog.eval_ms", "ms", "lower", "read_p50_ms on read_hot"},
	{"datalog.collect_ms", "ms", "lower", "read_p50_ms on read_hot"},
	{"datalog.derived_per_query", "facts", "lower", "read_p50_ms on read_hot"},
	{"hom.probe_steps_per_query", "count", "lower", "read_p50_ms on read_hot"},
	{"hom.hash_tables_per_query", "count", "lower", "read_p50_ms on read_hot"},
	{"hom.round_plans_per_query", "count", "lower", "read_p50_ms on read_hot"},
	{"hom.derived_per_probe", "ratio", "higher", "read_p50_ms on read_hot"},
	{"chase.certified_ms", "ms", "lower", "first_answer_p50_ms"},
	{"chase.facts", "facts", "lower", "first_answer_p50_ms"},
	{"segment.commit_ms", "ms", "lower", "write_p50_ms on write_live"},
	{"segment.wal_bytes_per_batch", "bytes", "lower", "write_p50_ms on write_live"},
	{"segment.open_ms", "ms", "lower", "reopen_s on write_live"},
	{"trace.ops_per_s_untraced", "1/s", "higher", "tracing overhead (base)"},
	{"trace.ops_per_s_traced", "1/s", "higher", "tracing overhead"},
	{"trace.overhead_pct", "%", "lower", "tracing overhead"},
}

// layerMetrics derives the per-layer metrics from the spans of the
// traced replay and the server's counter deltas over the measured
// phases of the HTTP run.
func (r *runner) layerMetrics(tr *tracer, p *replay) map[string]metric {
	out := map[string]metric{}
	self, calls := tr.selfTimes()
	perCall := func(name string) float64 {
		if calls[name] == 0 {
			return 0
		}
		return self[name] / float64(calls[name])
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	// Counters sum the workload server and the compile probe's server;
	// own counts the workload server alone.
	delta := func(k string) float64 { return float64(r.deltas[k] + r.probeDeltas[k]) }
	own := func(k string) float64 { return float64(r.deltas[k]) }
	handler := func(ep string) float64 {
		return ratio(delta("http_"+ep+"_latency_us"), delta("http_"+ep+"_requests")) / 1000
	}
	// The query handler time and the client latency it is subtracted
	// from cover the same requests: the workload server's queries in the
	// measured phases, whose successful latencies are r.read, plus, on
	// compile_cold, r.first (elsewhere r.first is the compile probe's).
	window := r.read
	if r.cfg.workload == "compile_cold" {
		window = append(append(samples{}, r.read...), r.first...)
	}
	queryHandler := ratio(own("http_query_latency_us"), own("http_query_requests")) / 1000
	c := tr.counts
	evals := c["evals"]
	values := map[string]float64{
		"server.query_handler_ms":     queryHandler,
		"server.client_overhead_ms":   window.mean() - queryHandler,
		"server.encode_ms":            perCall("json.Marshal(query)"),
		"server.facts_handler_ms":     handler("facts"),
		"server.theories_handler_ms":  handler("theories"),
		"server.shed":                 delta("shed_heavy") + delta("shed_light"),
		"server.admitted_light":       delta("admitted_light"),
		"server.admitted_heavy":       delta("admitted_heavy"),
		"server.db_evictions":         delta("db_evictions"),
		"parser.parse_facts_ms":       perCall("parser.ParseFacts"),
		"parser.parse_theory_ms":      perCall("parser.ParseTheory"),
		"kb.parse_cq_ms":              perCall("kb.ParseCQ"),
		"kbcache.plan_hit_ratio":      ratio(own("plan_hits"), own("plan_hits")+own("plan_misses")),
		"kbcache.answer_cq_ms":        perCall("kbcache.AnswerCQ"),
		"kbcache.answer_atom_ms":      perCall("kbcache.AnswerAtom"),
		"kbcache.register_ms":         perCall("kbcache.Store.Register"),
		"kbcache.compile_misses":      delta("compile_misses"),
		"kbcache.kb_evictions":        delta("kb_evictions"),
		"kbcache.translations":        delta("translations"),
		"kbcache.maintain_apply_ms":   perCall("MaintainedQuery.Apply"),
		"kbcache.certified_runs":      delta("certified_runs"),
		"classify.classify_ms":        perCall("classify.Classify"),
		"termination.analyze_ms":      perCall("termination.Analyze"),
		"rewrite.rewrite_ms":          perCall("rewrite.Rewrite"),
		"rewrite.rules_out":           ratio(c["rewrite_rules"], c["rewrites"]),
		"saturate.dat_ms":             perCall("saturate.NearlyGuardedToDatalog"),
		"saturate.rules_out":          ratio(c["dat_rules"], c["dats"]),
		"datalog.compile_ms":          perCall("datalog.Compile"),
		"kb.attach_ms":                perCall("kb.Attach"),
		"classify.classify_q_ms":      perCall("classify.Classify(Σ∪q)"),
		"termination.analyze_q_ms":    perCall("termination.Analyze(Σ∪q)"),
		"rewrite.rewrite_q_ms":        perCall("rewrite.Rewrite(Σ∪q)"),
		"saturate.dat_q_ms":           perCall("saturate.NearlyGuardedToDatalog(Σ∪q)"),
		"saturate.rules_out_q":        ratio(c["dat_rules(Σ∪q)"], c["dats(Σ∪q)"]),
		"datalog.compile_q_ms":        perCall("datalog.Compile(Σ∪q)"),
		"database.clone_ms":           perCall("Database.Clone"),
		"database.fixpoint_facts":     ratio(c["fixpoint_facts"], evals),
		"datalog.eval_ms":             perCall("Program.Eval"),
		"datalog.collect_ms":          perCall("CollectAnswers"),
		"datalog.derived_per_query":   ratio(c["derived"], evals),
		"hom.probe_steps_per_query":   ratio(float64(p.join.ProbeSteps.Load()), evals),
		"hom.hash_tables_per_query":   ratio(float64(p.join.HashTables.Load()), evals),
		"hom.round_plans_per_query":   ratio(float64(p.join.RoundPlans.Load()), evals),
		"hom.derived_per_probe":       ratio(c["derived"], float64(p.join.ProbeSteps.Load())),
		"chase.certified_ms":          perCall("chase.RunCertified"),
		"chase.facts":                 ratio(c["chase_facts"], c["chase_runs"]),
		"segment.commit_ms":           perCall("segment.Store.Commit"),
		"segment.wal_bytes_per_batch": ratio(c["wal_bytes"], c["batches"]),
		"segment.open_ms":             perCall("segment.Store.Open"),
	}
	for _, l := range layers {
		if v, ok := values[l.name]; ok {
			out[l.name] = metric{v, l.unit}
		}
	}
	return out
}

// printPins measures every compile_cold candidate in-process — compile,
// then the first query, both with Workers=1 under the server's 30 s
// budgets — and prints the values the pool pins, then the excluded
// candidates for comparison.
func printPins(w *os.File) error {
	for _, set := range []struct {
		name string
		tpls []template
	}{{"pool", pinnedTemplates}, {"excluded", excludedTemplates}} {
		for i := range set.tpls {
			t := &set.tpls[i]
			inst, err := instantiate(t, "_pin")
			if err != nil {
				return err
			}
			st := kbcache.NewStore(kbcache.Config{CompileTimeout: 30 * time.Second})
			t0 := time.Now()
			ckb, _, err := st.Register(bg, inst.theory)
			compile := time.Since(t0)
			if err != nil {
				fmt.Fprintf(w, "%-9s %-14s register error after %.2fms: %v\n", set.name, t.name, ms(compile), err)
				continue
			}
			q, _ := kb.ParseCQ(inst.cq)
			atoms, _ := parser.ParseFacts(inst.facts)
			ctx, cancel := context.WithTimeout(bg, 30*time.Second)
			t1 := time.Now()
			res, err := ckb.AnswerCQ(ctx, q, database.FromAtoms(atoms), kbcache.QueryOptions{Workers: 1})
			first := time.Since(t1)
			cancel()
			line := fmt.Sprintf("%-9s %-14s %-42s compile=%9.2fms first=%9.2fms mode=%-10s chain=%d",
				set.name, t.name, t.family, ms(compile), ms(first), ckb.Mode, len(ckb.Chain))
			if err != nil {
				fmt.Fprintf(w, "%s first query error: %v\n", line, err)
				continue
			}
			ans := canonical(termRows(res.Answers))
			line += fmt.Sprintf(" plan=%d exact=%v answers=%d hash=%s", len(res.Chain), res.Exact, ans.N, ans.Hash)
			if set.name == "pool" {
				if ref, err := templateAnswers(inst); err != nil || ref != ans {
					line += fmt.Sprintf(" REFERENCE DIFFERS (%v, %v)", ref, err)
				}
			}
			fmt.Fprintln(w, line)
		}
	}
	return nil
}
