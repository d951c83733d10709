package kbcache

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"guardedrules/internal/budget"
	"guardedrules/internal/chase"
	"guardedrules/internal/classify"
	"guardedrules/internal/core"
	"guardedrules/internal/database"
	"guardedrules/internal/datalog"
	"guardedrules/internal/kb"
	"guardedrules/internal/normalize"
	"guardedrules/internal/parser"
	"guardedrules/internal/rewrite"
	"guardedrules/internal/saturate"
	"guardedrules/internal/termination"
)

// planKind says how a cached plan evaluates.
type planKind int

const (
	// planProgram: evaluate a compiled Datalog program and collect the
	// plan's query relation. Exact.
	planProgram planKind = iota
	// planMagic: seed a compiled magic-sets program with the query's
	// bound constants and collect the adorned query relation. Exact, and
	// goal-directed.
	planMagic
	// planChase: chase the attached theory per call. Sound; exact iff
	// the chase saturates.
	planChase
)

// plan is a cached per-query-shape evaluation artifact: everything whose
// cost depends only on (Σ, query shape) — attaching, translating, magic
// rewriting, stratifying, compiling — done once. Plans are immutable and
// shared across concurrent queries.
type plan struct {
	kind     planKind
	prog     *datalog.Program // planProgram, planMagic
	seedRel  string           // planMagic: the magic seed relation
	queryRel string           // relation whose tuples are the answers
	attached *core.Theory     // planChase: Σ ∪ {query rule}
	chain    []string         // how the plan was built, for diagnostics

	// Certified-termination routing (planChase only): when the attached
	// theory carries a termination certificate, default queries run the
	// chase to saturation with no fact ceiling. class is the certified
	// class; bound prices the ceiling for weakly acyclic theories (nil
	// when the certificate proves finiteness without pricing it).
	certified bool
	class     termination.Class
	bound     *termination.Bound
}

// QueryOptions governs one answer call.
type QueryOptions struct {
	// Workers is the per-round engine parallelism (0 = engine default).
	Workers int
	// Variant selects the chase flavor for chase-mode plans; the zero
	// value is Oblivious.
	Variant chase.Variant
	// MaxDepth bounds chase-mode null depth (0 = the store's
	// DefaultChaseDepth when no budget bounds the run either).
	MaxDepth int
	// Budget, when non-nil, governs the evaluation; exhausting it yields
	// the sound partial answers alongside a typed *budget.Error.
	Budget *budget.T
}

// datalogOptions derives the engine options of one evaluation, wiring
// the store's join-planner counters into the run.
func (o QueryOptions) datalogOptions(m *Metrics) datalog.Options {
	opts := datalog.Options{Workers: o.Workers, Budget: o.Budget}
	if m != nil {
		opts.Stats = &m.Join
	}
	return opts
}

// QueryResult is the outcome of one answer call.
type QueryResult struct {
	// Answers holds one tuple per answer, deterministically ordered.
	Answers [][]core.Term
	// Exact reports completeness: translated and Datalog plans are exact
	// unless a budget truncated the run; chase plans are exact exactly
	// when the chase saturated.
	Exact bool
	// PlanKey identifies the plan that served the call.
	PlanKey string
	// PlanHit reports whether the plan came from the cache — no
	// translation or compilation work was performed by this call.
	PlanHit bool
	// Chain documents how the plan was built.
	Chain []string
}

// CQKey is the cache key of a conjunctive query's shape.
func CQKey(q kb.CQ) string {
	var b strings.Builder
	b.WriteString("cq:")
	for i, t := range q.Answer {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(t.String())
	}
	b.WriteString("<-")
	for i, a := range q.Atoms {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(parser.PrintAtom(a))
	}
	return b.String()
}

// AtomKey is the cache key of an atomic query's shape: its relation and
// binding pattern (adornment), so T(a,Y) and T(b,Y) share a plan while
// T(X,Y) gets its own.
func AtomKey(query core.Atom) string {
	return "atom:" + query.Relation + "/" + adornmentOf(query)
}

func adornmentOf(query core.Atom) string {
	b := make([]byte, len(query.Args))
	for i, t := range query.Args {
		if t.IsConst() {
			b[i] = 'b'
		} else {
			b[i] = 'f'
		}
	}
	return string(b)
}

// translateBudget bounds plan-time translations like compile-time ones;
// ctx is the plan flight's interest context, so a cold-plan build whose
// every waiter has disconnected stops at its next checkpoint.
func (ckb *CompiledKB) translateBudget(ctx context.Context) *budget.T {
	return &budget.T{Ctx: ctx, Timeout: ckb.cfg.CompileTimeout, MaxRules: ckb.cfg.MaxRules}
}

// getPlan returns the cached plan under key, building and interning it
// on first use. Concurrent first uses share one build, governed by the
// same interest-tracking flight as compilations: the build is canceled
// only when every waiting request has disconnected, and a canceled
// build is never cached, so the next request rebuilds cleanly.
func (ckb *CompiledKB) getPlan(ctx context.Context, key string, build func(ctx context.Context) (*plan, error)) (*plan, bool, error) {
	ckb.planMu.Lock()
	if p, ok := ckb.plans.Get(key); ok {
		ckb.planMu.Unlock()
		ckb.metrics.PlanHits.Add(1)
		return p, true, nil
	}
	ckb.planMu.Unlock()
	p, shared, err := ckb.planFlight.Do(ctx, key, func(cctx context.Context) (*plan, error) {
		p, err := build(cctx)
		if err != nil {
			return nil, err
		}
		ckb.metrics.PlanMisses.Add(1)
		ckb.planMu.Lock()
		if _, _, evicted := ckb.plans.Add(key, p); evicted {
			ckb.metrics.PlanEvictions.Add(1)
		}
		ckb.planMu.Unlock()
		return p, nil
	})
	if shared && err == nil {
		ckb.metrics.PlanHits.Add(1)
	}
	return p, shared, err
}

// PlanInfo probes the plan cache under key for admission control:
// cached reports whether a plan is interned (a miss means the next
// query pays combined-complexity build work), and chasePerCall whether
// the cached plan re-chases the theory on every evaluation (expensive
// even on a hit). The probe touches LRU recency, which is harmless: a
// probed plan is about to be used.
func (ckb *CompiledKB) PlanInfo(key string) (cached, chasePerCall bool) {
	ckb.planMu.Lock()
	defer ckb.planMu.Unlock()
	p, ok := ckb.plans.Get(key)
	if !ok {
		return false, false
	}
	return true, p.kind == planChase
}

// AnswerCQ answers the conjunctive query over the database with the
// KB's cached plan for the query's shape, building it on first use:
// attach the query rule (Section 7), translate the attached theory along
// the fragment-appropriate chain, stratify and compile — or fall back to
// a bounded chase where no complete translation exists. On budget
// exhaustion the sound partial answers are returned alongside the typed
// *budget.Error.
func (ckb *CompiledKB) AnswerCQ(ctx context.Context, q kb.CQ, d database.Store, opts QueryOptions) (*QueryResult, error) {
	ckb.metrics.Queries.Add(1)
	key := CQKey(q)
	p, hit, err := ckb.getPlan(ctx, key, func(cctx context.Context) (*plan, error) { return ckb.buildCQPlan(cctx, q) })
	if err != nil {
		ckb.metrics.QueryErrors.Add(1)
		return nil, err
	}
	res, err := ckb.evalPlan(p, d, opts)
	if res != nil {
		res.PlanKey = key
		res.PlanHit = hit
	}
	return res, err
}

// buildCQPlan is the pay-once part of a CQ: Σ ∪ {α ∧ ACDom(~x) → QAns(~x)}
// translated and compiled per the KB's mode.
func (ckb *CompiledKB) buildCQPlan(ctx context.Context, q kb.CQ) (*plan, error) {
	attached, err := kb.Attach(ckb.Theory, q)
	if err != nil {
		return nil, err
	}
	switch ckb.Mode {
	case ModeDatalog:
		prog, err := datalog.Compile(attached)
		if err != nil {
			return nil, err
		}
		return &plan{
			kind:     planProgram,
			prog:     prog,
			queryRel: kb.QueryRel,
			chain:    []string{"query rule attached; stratified and compiled with the source program"},
		}, nil
	case ModeTranslated:
		return ckb.buildTranslatedCQPlan(ctx, attached)
	default:
		return ckb.buildChasePlan(attached, "query rule attached; bounded chase per call"), nil
	}
}

// buildChasePlan builds a per-call chase plan over the attached theory,
// promoting it to certified (budget-free) serving when the attached
// theory carries a termination certificate. The analysis runs on Σ ∪
// {query rule}, not Σ: the query rule's QAns positions are pure sinks,
// so a certified Σ stays certified, but re-deriving the certificate on
// the theory that is actually chased keeps the routing honest.
func (ckb *CompiledKB) buildChasePlan(attached *core.Theory, why string) *plan {
	p := &plan{
		kind:     planChase,
		attached: attached,
		queryRel: kb.QueryRel,
		chain:    []string{why},
	}
	rep := termination.Analyze(attached)
	if rep.Class.Terminating() {
		p.certified = true
		p.class = rep.Class
		p.bound = rep.Bound
		p.chain = append(p.chain, fmt.Sprintf(
			"termination certificate (class %s): default calls chase to saturation, budget-free", rep.Class))
	}
	return p
}

// buildTranslatedCQPlan translates the attached theory to Datalog when
// the query rule keeps it inside a translatable fragment, and falls back
// to a per-call chase when it does not (or when the translation budget
// aborts): the fallback is sound, merely not compiled.
func (ckb *CompiledKB) buildTranslatedCQPlan(ctx context.Context, attached *core.Theory) (*plan, error) {
	bud := ckb.translateBudget(ctx)
	rep := classify.Classify(attached)
	var (
		dat   *core.Theory
		chain []string
		err   error
	)
	switch {
	case rep.Member[classify.NearlyGuarded]:
		dat, _, err = saturate.NearlyGuardedToDatalog(attached, saturate.Options{Budget: bud})
		chain = []string{"query rule attached (stays nearly guarded)", "dat(Σ∪q) saturated (Theorem 3 / Proposition 6)"}
	case rep.Member[classify.NearlyFrontierGuarded]:
		var ng *core.Theory
		ng, _, err = rewrite.Rewrite(normalize.Normalize(attached), rewrite.Options{Budget: bud})
		if err == nil {
			dat, _, err = saturate.NearlyGuardedToDatalog(ng, saturate.Options{Budget: bud})
		}
		chain = []string{"query rule attached (stays nearly frontier-guarded)", "rew(Σ∪q) (Theorem 1)", "dat(rew(Σ∪q)) saturated (Proposition 6)"}
	default:
		return ckb.buildChasePlan(attached, "query rule leaves the translatable fragments; bounded chase per call"), nil
	}
	if err != nil {
		if errors.Is(err, context.Canceled) {
			// Cancellation is not a verdict on the plan: nothing is cached,
			// the next request rebuilds with live interest.
			return nil, fmt.Errorf("kbcache: plan build canceled: %w", err)
		}
		return ckb.buildChasePlan(attached, "translation aborted ("+err.Error()+"); bounded chase per call"), nil
	}
	ckb.metrics.Translations.Add(1)
	prog, err := datalog.Compile(dat)
	if err != nil {
		return nil, err
	}
	return &plan{kind: planProgram, prog: prog, queryRel: kb.QueryRel, chain: chain}, nil
}

// AnswerAtom answers an atomic query — a single atom whose constants are
// bound and whose variables are free — returning full argument tuples.
// Program-mode KBs use a cached goal-directed magic-sets plan per
// binding pattern (dat(Σ) preserves ground atomic consequences, so the
// base program is complete for atomic queries); chase-mode KBs delegate
// to the CQ path.
func (ckb *CompiledKB) AnswerAtom(ctx context.Context, query core.Atom, d database.Store, opts QueryOptions) (*QueryResult, error) {
	if ckb.Mode == ModeChase || ckb.Mode == ModeCertified {
		return ckb.answerAtomByCQ(ctx, query, d, opts)
	}
	ckb.metrics.Queries.Add(1)
	key := AtomKey(query)
	p, hit, err := ckb.getPlan(ctx, key, func(context.Context) (*plan, error) { return ckb.buildAtomPlan(query) })
	if err != nil {
		ckb.metrics.QueryErrors.Add(1)
		return nil, err
	}
	res, err := ckb.evalAtomPlan(p, query, d, opts)
	if res != nil {
		res.PlanKey = key
		res.PlanHit = hit
	}
	return res, err
}

// buildAtomPlan magic-rewrites the base program for the query's binding
// pattern; relations magic cannot handle (EDB-only relations, programs
// with negation) fall back to full evaluation of the base program.
func (ckb *CompiledKB) buildAtomPlan(query core.Atom) (*plan, error) {
	mr, err := datalog.MagicRewrite(ckb.program.Theory(), query)
	if err != nil {
		return &plan{
			kind:     planProgram,
			prog:     ckb.program,
			queryRel: query.Relation,
			chain:    []string{"magic rewriting not applicable (" + err.Error() + "); full base-program evaluation"},
		}, nil
	}
	prog, err := datalog.Compile(mr.Program)
	if err != nil {
		return nil, err
	}
	return &plan{
		kind:     planMagic,
		prog:     prog,
		seedRel:  mr.Seed.Relation,
		queryRel: mr.QueryRel,
		chain:    []string{"magic-sets rewriting for adornment " + adornmentOf(query) + "; compiled"},
	}, nil
}

// evalPlan runs a CQ plan. Budget-truncated runs return their sound
// partial answers alongside the typed error.
func (ckb *CompiledKB) evalPlan(p *plan, d database.Store, opts QueryOptions) (*QueryResult, error) {
	switch p.kind {
	case planChase:
		copts := chase.Options{
			Variant:  opts.Variant,
			MaxDepth: opts.MaxDepth,
			Workers:  opts.Workers,
			Budget:   opts.Budget,
		}
		if copts.MaxDepth == 0 {
			// Certified serving engages unless the caller asked for a real
			// ceiling: a context or timeout is cancellation, not a bound,
			// and RunCertified honors it.
			if p.certified && !bounding(copts.Budget) {
				return ckb.evalCertified(p, d, copts)
			}
			if copts.Budget == nil {
				copts.MaxDepth = ckb.cfg.chaseDepth()
			}
		}
		res, err := chase.Run(p.attached, d, copts)
		if err != nil {
			if !budget.IsBudget(err) || res == nil {
				ckb.metrics.QueryErrors.Add(1)
				return nil, err
			}
			ckb.metrics.BudgetExhausted.Add(1)
			return &QueryResult{
				Answers: datalog.CollectAnswers(res.DB, p.queryRel),
				Chain:   p.chain,
			}, err
		}
		return &QueryResult{
			Answers: datalog.CollectAnswers(res.DB, p.queryRel),
			Exact:   res.Saturated,
			Chain:   p.chain,
		}, nil
	default:
		fix, err := p.prog.Eval(d, opts.datalogOptions(ckb.metrics))
		if err != nil {
			if !budget.IsBudget(err) || fix == nil {
				ckb.metrics.QueryErrors.Add(1)
				return nil, err
			}
			ckb.metrics.BudgetExhausted.Add(1)
			return &QueryResult{
				Answers: datalog.CollectAnswers(fix, p.queryRel),
				Chain:   p.chain,
			}, err
		}
		return &QueryResult{
			Answers: datalog.CollectAnswers(fix, p.queryRel),
			Exact:   true,
			Chain:   p.chain,
		}, nil
	}
}

// evalCertified runs a certified chase plan to saturation with no fact
// ceiling: the termination certificate proves the fixpoint finite, so
// the answer is always exact. WA and JA certificates cover the
// restricted variant only (the fresh-null oblivious chase can diverge on
// them), so those runs are forced to chase.Restricted — sound and
// complete regardless of the requested variant, because every saturated
// chase is a universal model and QAns answers are ground. For weakly
// acyclic theories the certificate also prices an exact fact bound,
// which the run asserts; when the closed form overflows the run is
// merely unpriced, not bounded.
func (ckb *CompiledKB) evalCertified(p *plan, d database.Store, copts chase.Options) (*QueryResult, error) {
	if p.class != termination.ClassSWA {
		copts.Variant = chase.Restricted
	}
	bound := 0
	if p.bound != nil {
		n0 := d.InternEpoch() + len(p.attached.Constants())
		if b, ok := p.bound.Facts(n0, d.Len()); ok {
			bound = b
		}
	}
	ckb.metrics.CertifiedRuns.Add(1)
	res, err := chase.RunCertified(p.attached, d, bound, copts)
	if err != nil {
		// Cancellation or timeout mid-run: the partial answers are sound,
		// exactly as on the bounded path.
		if budget.IsBudget(err) && res != nil {
			ckb.metrics.BudgetExhausted.Add(1)
			return &QueryResult{
				Answers: datalog.CollectAnswers(res.DB, p.queryRel),
				Chain:   p.chain,
			}, err
		}
		ckb.metrics.QueryErrors.Add(1)
		return nil, err
	}
	return &QueryResult{
		Answers: datalog.CollectAnswers(res.DB, p.queryRel),
		Exact:   true,
		Chain:   p.chain,
	}, nil
}

// bounding reports whether the budget imposes an actual work ceiling —
// a context or timeout alone is cancellation and leaves certified
// serving eligible.
func bounding(b *budget.T) bool {
	return b != nil && (b.MaxFacts > 0 || b.MaxRules > 0 || b.MaxRounds > 0 || b.MaxSteps > 0 || b.FailAtCheckpoint > 0)
}

// evalAtomPlan runs an atom plan: magic plans get a fresh seed from the
// query's actual constants (the compiled program depends only on the
// binding pattern), and all answers are filtered against the query atom.
func (ckb *CompiledKB) evalAtomPlan(p *plan, query core.Atom, d database.Store, opts QueryOptions) (*QueryResult, error) {
	in := d
	if p.kind == planMagic {
		var bound []core.Term
		for _, t := range query.Args {
			if t.IsConst() {
				bound = append(bound, t)
			}
		}
		in = d.Clone()
		in.Add(core.NewAtom(p.seedRel, bound...))
	}
	fix, err := p.prog.Eval(in, opts.datalogOptions(ckb.metrics))
	if err != nil && (!budget.IsBudget(err) || fix == nil) {
		ckb.metrics.QueryErrors.Add(1)
		return nil, err
	}
	var out [][]core.Term
	for _, f := range fix.Facts(core.RelKey{Name: p.queryRel, Arity: len(query.Args)}) {
		if matchesAtom(query, f.Args) {
			out = append(out, append([]core.Term(nil), f.Args...))
		}
	}
	sortTuples(out)
	if err != nil {
		ckb.metrics.BudgetExhausted.Add(1)
		return &QueryResult{Answers: out, Chain: p.chain}, err
	}
	return &QueryResult{Answers: out, Exact: true, Chain: p.chain}, nil
}

// answerAtomByCQ routes an atomic query through the CQ path (chase-mode
// KBs), reconstructing full argument tuples from the answer bindings.
func (ckb *CompiledKB) answerAtomByCQ(ctx context.Context, query core.Atom, d database.Store, opts QueryOptions) (*QueryResult, error) {
	var vars []core.Term
	seen := map[core.Term]bool{}
	for _, t := range query.Args {
		if t.IsVar() && !seen[t] {
			seen[t] = true
			vars = append(vars, t)
		}
	}
	res, err := ckb.AnswerCQ(ctx, kb.CQ{Answer: vars, Atoms: []core.Atom{query}}, d, opts)
	if res == nil {
		return nil, err
	}
	full := make([][]core.Term, 0, len(res.Answers))
	for _, binding := range res.Answers {
		s := core.Subst{}
		for i, v := range vars {
			s[v] = binding[i]
		}
		tuple := make([]core.Term, len(query.Args))
		for i, t := range query.Args {
			tuple[i] = s.Apply(t)
		}
		full = append(full, tuple)
	}
	sortTuples(full)
	res.Answers = full
	return res, err
}

// matchesAtom checks a derived tuple against the query atom: constants
// must coincide and repeated variables must bind consistently.
func matchesAtom(query core.Atom, args []core.Term) bool {
	bind := map[core.Term]core.Term{}
	for i, t := range query.Args {
		switch {
		case t.IsConst():
			if args[i] != t {
				return false
			}
		default:
			if prev, ok := bind[t]; ok && prev != args[i] {
				return false
			}
			bind[t] = args[i]
		}
	}
	return true
}

func sortTuples(out [][]core.Term) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for k := range a {
			if k >= len(b) {
				return false
			}
			if a[k].Name != b[k].Name {
				return a[k].Name < b[k].Name
			}
		}
		return len(a) < len(b)
	})
}
