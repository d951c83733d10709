package datalog

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"guardedrules/internal/budget"
	"guardedrules/internal/core"
	"guardedrules/internal/database"
	"guardedrules/internal/hom"
	"guardedrules/internal/par"
)

// JoinStats counts planner activity; all fields are atomic, one instance
// may be shared by concurrent evaluations (the serving layer aggregates
// them into its /metrics snapshot).
type JoinStats struct {
	// RoundPlans counts join plans computed (per work item per round).
	RoundPlans atomic.Int64
	// HashTables counts hash-join tables built by the join cache.
	HashTables atomic.Int64
	// ProbeSteps counts plan steps executed via a hash-probe access path.
	ProbeSteps atomic.Int64
}

// Options configures the semi-naive evaluator.
type Options struct {
	// Workers is the number of goroutines evaluating join work items per
	// round; 0 means runtime.GOMAXPROCS(0), 1 forces sequential
	// evaluation. The derived fact set is identical for every worker
	// count: the database is read-only while workers run, plans are fixed
	// by the single writer before the fan-out, and the workers' buffers
	// are merged by the writer in work-item order.
	Workers int
	// MaxRounds bounds the rounds per stratum (0 = 1,000,000).
	MaxRounds int
	// Budget, when non-nil, governs the run: cancellation and deadline are
	// observed mid-stratum (workers drain between units and every
	// pollInterval join results; a canceled round's buffers are not
	// merged), and its ceilings override MaxRounds and cap derived facts.
	// MaxFacts is enforced per added fact during the merge — the partial
	// database never exceeds the ceiling, mirroring the chase. On
	// exhaustion EvalSemiNaiveOpts returns the partial database — every
	// fact merged so far — with a typed *budget.Error.
	Budget *budget.T
	// Stats, when non-nil, accumulates planner counters.
	Stats *JoinStats
}

func (o Options) workers() int {
	if o.Workers == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if o.Workers < 1 {
		return 1
	}
	return o.Workers
}

func (o Options) maxRounds() int {
	if o.MaxRounds == 0 {
		return 1_000_000
	}
	return o.MaxRounds
}

// ctempl is the compiled template of one work item, built once at
// Compile time and shared (immutably) across evaluations: either a
// round-0 item (hasPat false; rest is the full positive body) or a
// semi-naive item (pattern is the body atom that must match a delta
// fact, rest the remaining positive body in source order). Variable
// slots are scoped per template.
type ctempl struct {
	rule    *core.Rule
	hasPat  bool
	pattern hom.CAtom
	rest    []hom.CAtom
	neg     []hom.CAtom
	heads   []hom.CAtom
	nvars   int
	// patBound marks the slots bound before the first planned step: the
	// pattern's slots (none for round-0 templates).
	patBound []bool
}

// compileTemplate compiles rule with body position pat as the delta
// pattern (pat < 0 for a round-0 template).
func compileTemplate(r *core.Rule, pat int) ctempl {
	body := r.PositiveBody()
	slots := make(map[core.Term]int)
	t := ctempl{rule: r}
	if pat >= 0 {
		t.hasPat = true
		t.pattern = hom.Compile(body[pat], slots)
	}
	for i, a := range body {
		if i == pat {
			continue
		}
		t.rest = append(t.rest, hom.Compile(a, slots))
	}
	for _, l := range r.Body {
		if l.Negated {
			t.neg = append(t.neg, hom.Compile(l.Atom, slots))
		}
	}
	for _, h := range r.Head {
		t.heads = append(t.heads, hom.Compile(h, slots))
	}
	t.nvars = len(slots)
	t.patBound = make([]bool, t.nvars)
	if pat >= 0 {
		for _, p := range t.pattern.Pos {
			if p.Slot >= 0 {
				t.patBound[p.Slot] = true
			}
		}
	}
	return t
}

// compileAuxTemplate compiles a maintenance template for rule r with an
// explicit pattern atom that is NOT a positive body position: a negated
// literal (block/unblock sweeps match it against added or deleted facts)
// or a head atom (rederivation matches it against a deleted fact and
// asks whether any body instantiation still derives it). rest is the
// FULL positive body; withHeads selects whether head atoms are compiled
// (block/unblock sweeps materialize heads, rederivation needs none).
func compileAuxTemplate(r *core.Rule, pat core.Atom, withHeads bool) ctempl {
	body := r.PositiveBody()
	slots := make(map[core.Term]int)
	t := ctempl{rule: r, hasPat: true}
	t.pattern = hom.Compile(pat, slots)
	for _, a := range body {
		t.rest = append(t.rest, hom.Compile(a, slots))
	}
	for _, l := range r.Body {
		if l.Negated {
			t.neg = append(t.neg, hom.Compile(l.Atom, slots))
		}
	}
	if withHeads {
		for _, h := range r.Head {
			t.heads = append(t.heads, hom.Compile(h, slots))
		}
	}
	t.nvars = len(slots)
	t.patBound = make([]bool, t.nvars)
	for _, p := range t.pattern.Pos {
		if p.Slot >= 0 {
			t.patBound[p.Slot] = true
		}
	}
	return t
}

// citem is the per-evaluation instantiation of a template: the compiled
// atoms are deep-copied because Resolve writes constant ids into them
// (id resolution is per-database), and the plan is recomputed per round
// by the single writer from live statistics.
type citem struct {
	t       *ctempl
	pattern hom.CAtom
	rest    []hom.CAtom
	neg     []hom.CAtom
	heads   []hom.CAtom
	plan    hom.Plan
}

func cloneAtoms(src []hom.CAtom) []hom.CAtom {
	out := make([]hom.CAtom, len(src))
	for i, a := range src {
		a.Pos = append([]hom.CPos(nil), a.Pos...)
		out[i] = a
	}
	return out
}

func instantiate(ts []ctempl) []citem {
	out := make([]citem, len(ts))
	for i := range ts {
		t := &ts[i]
		c := citem{t: t, rest: cloneAtoms(t.rest), neg: cloneAtoms(t.neg), heads: cloneAtoms(t.heads)}
		if t.hasPat {
			c.pattern = t.pattern
			c.pattern.Pos = append([]hom.CPos(nil), t.pattern.Pos...)
		}
		out[i] = c
	}
	return out
}

// resolve re-resolves the compiled constants against the (frozen)
// database. Callers gate it on Database.InternEpoch: while no new term
// was interned, every resolution is unchanged and the call is skipped.
func (c *citem) resolve(db *database.Database) {
	if c.t.hasPat {
		c.pattern.Resolve(db)
	}
	for i := range c.rest {
		c.rest[i].Resolve(db)
	}
	for i := range c.neg {
		c.neg[i].Resolve(db)
	}
	for i := range c.heads {
		c.heads[i].Resolve(db)
	}
}

// replan recomputes the item's join plan from the database's current
// statistics and prepares the hash tables its probe steps need.
// Writer-only: workers see a fixed plan and read-only tables.
func (c *citem) replan(db *database.Database, jc *hom.JoinCache, js *JoinStats) {
	c.plan = hom.PlanBody(c.rest, c.t.patBound, db)
	jc.Prepare(c.rest, &c.plan)
	if js != nil {
		js.RoundPlans.Add(1)
		for _, s := range c.plan.Steps {
			if s.Kind == hom.AccessProbe {
				js.ProbeSteps.Add(1)
			}
		}
	}
}

// patternOK reports whether the item's delta pattern resolved fully; a
// pattern with an uninterned constant matches no delta fact.
func (c *citem) patternOK() bool {
	for k := range c.pattern.Pos {
		if p := &c.pattern.Pos[k]; p.Slot < 0 && !p.OK {
			return false
		}
	}
	return true
}

// pollInterval is how many join results a worker processes between
// cancellation polls inside a single unit, bounding the drain latency of
// a unit with a huge delta shard.
const pollInterval = 64

// seqThreshold is the round size (delta facts) below which a round runs
// sequentially: goroutine fan-out costs more than the joins it splits.
const seqThreshold = 128

// emitter buffers the new head instantiations of one work unit. The
// frozen database's seen-set prefilters candidates in id space, and a
// packed-id local keyset drops within-unit re-derivations, so candidates
// are materialized to term atoms only when genuinely unseen. Remaining
// cross-unit duplicates are resolved by the single-writer merge.
type emitter struct {
	c       *citem
	st      *hom.State
	db      *database.Database
	tk      *budget.Tracker
	out     []core.Atom
	local   keyset
	scratch []uint32
	polls   int
}

// leaf is the complete-match callback; returning false aborts the
// enumeration (the unit's buffer is then discarded by the canceled run).
func (e *emitter) leaf() bool {
	if e.polls++; e.polls%pollInterval == 0 && e.tk.Canceled() {
		return false
	}
	c := e.c
	for i := range c.neg {
		ids, ok := e.st.PackIDs(e.scratch[:0], &c.neg[i])
		if ok && e.db.SeenIDs(c.neg[i].RK, ids) {
			return true
		}
	}
	for i := range c.heads {
		h := &c.heads[i]
		ids, ok := e.st.PackIDs(e.scratch[:0], h)
		if !ok {
			// A head constant not yet interned (or an unbound head
			// variable): certainly not in the database, but with no id key
			// to dedup on; the merge dedups it.
			e.out = append(e.out, e.st.Materialize(h))
			continue
		}
		if e.db.SeenIDs(h.RK, ids) || !e.local.add(uint32(i), ids) {
			continue
		}
		e.out = append(e.out, e.st.Materialize(h))
	}
	return true
}

// evalStratum computes the fixpoint of one stratum with a parallel
// semi-naive loop. Each round freezes the database; the single writer
// re-resolves compiled constants (only when the intern epoch moved),
// recomputes every live item's join plan from the now-current statistics
// and builds the hash tables the plans probe; then (rule ×
// delta-position × delta-shard) work items fan out over the worker pool
// — workers only read the database, the plans and the tables, and buffer
// candidate head atoms — and the writer merges the buffers in work-item
// order. The merge uses AddNotify so that ACDom facts derived from fresh
// head constants enter the next delta; without this, ACDom-reading rules
// in the same stratum would miss constants introduced mid-fixpoint.
//
// Negated literals are evaluated against the current database; callers
// guarantee stratification (the negated relations are fully computed, and
// Stratify's implicit head→ACDom edges extend the guarantee to ACDom).
//
// Cancellation protocol: workers poll the tracker between units and every
// pollInterval join results inside a unit, then drain; runUnits always
// waits for the pool, so no goroutine outlives the call. The buffers of a
// canceled round are discarded, never merged — the database then holds
// exactly the merged facts, a well-formed partial fixpoint.
func evalStratum(cs *compiledStratum, db *database.Database, opts Options, tk *budget.Tracker) error {
	workers := opts.workers()
	js := opts.Stats
	jc := hom.NewJoinCache(db)
	prevBuilds := 0
	noteBuilds := func() {
		if js != nil && jc.Builds() != prevBuilds {
			js.HashTables.Add(int64(jc.Builds() - prevBuilds))
		}
		prevBuilds = jc.Builds()
	}

	// Round 0: full evaluation, one work unit per rule, planned over the
	// input statistics.
	r0 := instantiate(cs.round0)
	for i := range r0 {
		r0[i].resolve(db)
		r0[i].replan(db, jc, js)
	}
	noteBuilds()
	bufs := make([][]core.Atom, len(r0))
	if err := par.RunUnits(len(r0), workers, tk.Canceled, func(u int) {
		_ = tk.Check() // checkpoint: counts toward FailAt injection
		c := &r0[u]
		em := &emitter{c: c, st: hom.NewState(db, c.t.nvars), db: db, tk: tk,
			scratch: make([]uint32, 0, 16)}
		em.st.SearchPlan(c.rest, &c.plan, jc, em.leaf)
		bufs[u] = em.out
	}); err != nil {
		// A contained worker panic fails the run before any merge: the
		// database is untouched by this round.
		return fmt.Errorf("datalog: %w", err)
	}

	items := instantiate(cs.items)
	return runDeltaRounds(items, db, opts, tk, jc, noteBuilds, bufs, nil, nil)
}

// runDeltaRounds is the merge-and-propagate loop of the semi-naive
// engine, shared by evalStratum and the incremental maintenance paths.
// bufs holds candidate head atoms to merge as the first delta (cross-unit
// duplicates and facts already present are dropped by the merge); force
// lists facts that are ALREADY in db but must additionally join the first
// round's delta — incremental insertion resumes a finished fixpoint by
// forcing the inserted facts, and DRed's insertion phase forces the
// rederived and net-added facts. onAdd, when non-nil, observes every fact
// the merge inserts (including derived ACDom facts), in merge order.
//
// The loop preserves the evalStratum contract: single-writer merges with
// per-fact ceiling enforcement, per-round re-resolution gated on the
// intern epoch, writer-side replanning from live statistics, and (item ×
// shard) fan-out over read-only snapshots, with budget checkpoints at
// every merge point and worker unit.
func runDeltaRounds(items []citem, db *database.Database, opts Options, tk *budget.Tracker, jc *hom.JoinCache, noteBuilds func(), bufs [][]core.Atom, force []core.Atom, onAdd func(core.Atom)) error {
	workers := opts.workers()
	js := opts.Stats
	if noteBuilds == nil {
		noteBuilds = func() {}
	}
	maxRounds := budget.Cap(opts.Budget, func(b *budget.T) int { return b.MaxRounds }, opts.maxRounds())
	maxFacts := 0
	if opts.Budget != nil {
		maxFacts = opts.Budget.MaxFacts
	}

	// Resolve the forced facts to id tuples up front: they are in db, and
	// interning never un-assigns ids, so resolution cannot fail for a
	// present fact (an unresolvable one was never in db and is skipped).
	var forcedN map[core.RelKey]int
	var forcedIDs map[core.RelKey][]uint32
	nforced := 0
	if len(force) > 0 {
		forcedN = make(map[core.RelKey]int)
		forcedIDs = make(map[core.RelKey][]uint32)
		for _, a := range force {
			ids, ok := db.FactIDs(nil, a)
			if !ok || !db.SeenIDs(a.Key(), ids) {
				continue
			}
			rk := a.Key()
			forcedN[rk]++
			forcedIDs[rk] = append(forcedIDs[rk], ids...)
			nforced++
		}
	}

	itemsEpoch := -1
	for round := 0; ; round++ {
		tk.SetRounds(round)
		// Merge-point checkpoint: a canceled or expired run returns here
		// with the merged facts intact and this round's buffers discarded.
		if err := tk.Check(); err != nil {
			return err
		}
		if round > maxRounds {
			return fmt.Errorf("datalog: stratum exceeded %d rounds: %w",
				maxRounds, tk.Exhausted(budget.ErrRoundLimit))
		}
		// Single-writer merge; newly inserted facts — including derived
		// ACDom facts — form the next delta. The fact ceiling is enforced
		// per added fact, AddCost-style: a fact whose insertion (including
		// the ACDom facts it derives) would push the run past the ceiling
		// is never added, so the partial database never overshoots.
		used := tk.Usage().Facts
		deltaCount := make(map[core.RelKey]int)
		ndelta := 0
		note := func(a core.Atom) {
			deltaCount[a.Key()]++
			ndelta++
			if onAdd != nil {
				onAdd(a)
			}
		}
		for _, buf := range bufs {
			for _, a := range buf {
				if maxFacts > 0 && used+ndelta+db.AddCost(a) > maxFacts {
					tk.AddFacts(ndelta)
					return tk.Exhausted(budget.ErrFactLimit)
				}
				if _, err := db.AddNotify(a, note); err != nil {
					return fmt.Errorf("datalog: merge: %w", err)
				}
			}
		}
		tk.AddFacts(ndelta)
		if ndelta+nforced == 0 {
			return nil
		}
		// Freeze the round: re-resolve compiled constants (skipped when no
		// new term was interned — the intern epoch is unchanged, so every
		// resolution would come out identical), then slice each relation's
		// delta — the newly merged tail of its id-tuple array, prefixed by
		// any forced tuples (first round only).
		if e := db.InternEpoch(); e != itemsEpoch {
			for i := range items {
				items[i].resolve(db)
			}
			itemsEpoch = e
		}
		type group struct {
			n, w int
			ids  []uint32
		}
		groups := make(map[core.RelKey]group, len(deltaCount)+len(forcedN))
		for rk, k := range deltaCount {
			w := rk.Arity + rk.AnnArity
			all := db.IDTuples(rk)
			tail := all[len(all)-k*w:]
			if fn := forcedN[rk]; fn > 0 {
				comb := make([]uint32, 0, len(forcedIDs[rk])+len(tail))
				comb = append(append(comb, forcedIDs[rk]...), tail...)
				groups[rk] = group{n: k + fn, w: w, ids: comb}
				continue
			}
			groups[rk] = group{n: k, w: w, ids: tail}
		}
		for rk, fn := range forcedN {
			if _, dup := deltaCount[rk]; dup {
				continue
			}
			groups[rk] = group{n: fn, w: rk.Arity + rk.AnnArity, ids: forcedIDs[rk]}
		}
		total := ndelta + nforced
		forcedN, forcedIDs, nforced = nil, nil, 0
		// Re-plan the live items against the post-merge statistics, then
		// fan out (item × shard) units; shards stripe each item's delta
		// facts so a round dominated by one rule still parallelizes.
		shards := workers
		if total < seqThreshold {
			shards = 1
		}
		type unit struct {
			c     *citem
			shard int
		}
		var units []unit
		for i := range items {
			c := &items[i]
			g, found := groups[c.pattern.RK]
			if !found || !c.patternOK() {
				continue
			}
			c.replan(db, jc, js)
			n := shards
			if g.n < n {
				n = g.n
			}
			for s := 0; s < n; s++ {
				units = append(units, unit{c, s})
			}
		}
		noteBuilds()
		bufs = make([][]core.Atom, len(units))
		if err := par.RunUnits(len(units), workers, tk.Canceled, func(u int) {
			_ = tk.Check() // checkpoint: counts toward FailAt injection
			c := units[u].c
			g := groups[c.pattern.RK]
			n := shards
			if g.n < n {
				n = g.n
			}
			em := &emitter{c: c, st: hom.NewState(db, c.t.nvars), db: db, tk: tk,
				scratch: make([]uint32, 0, 16)}
			st := em.st
			for j := units[u].shard; j < g.n; j += n {
				mark := st.Mark()
				matched := st.Match(&c.pattern, g.ids[j*g.w:(j+1)*g.w])
				if matched && !st.SearchPlan(c.rest, &c.plan, jc, em.leaf) {
					st.Unwind(mark)
					return // canceled: drain; the unit's buffer is discarded
				}
				st.Unwind(mark)
			}
			bufs[u] = em.out
		}); err != nil {
			return fmt.Errorf("datalog: %w", err)
		}
	}
}

// EvalSemiNaive computes the stratified fixpoint with the native
// semi-naive evaluator and default options (parallel across all CPUs,
// cost-based planning). It is the default engine behind Eval; the
// chase-based EvalViaChase remains available for the ablation benchmarks.
func EvalSemiNaive(th *core.Theory, d database.Store) (*database.Database, error) {
	return EvalSemiNaiveOpts(th, d, Options{})
}

// EvalSemiNaiveOpts is EvalSemiNaive with explicit options. On budget
// exhaustion (cancellation, deadline, or a ceiling of opts.Budget) it
// returns the partial database — all facts merged before exhaustion —
// together with a typed error satisfying errors.Is against the budget
// sentinels.
func EvalSemiNaiveOpts(th *core.Theory, d database.Store, opts Options) (*database.Database, error) {
	p, err := Compile(th)
	if err != nil {
		return nil, err
	}
	return p.Eval(d, opts)
}
