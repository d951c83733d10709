package guardedrules

import (
	"context"
	"fmt"
	"time"

	"guardedrules/internal/annotate"
	"guardedrules/internal/chase"
	"guardedrules/internal/classify"
	"guardedrules/internal/datalog"
	"guardedrules/internal/hom"
	"guardedrules/internal/kb"
	"guardedrules/internal/normalize"
	"guardedrules/internal/rewrite"
	"guardedrules/internal/saturate"
	"guardedrules/internal/stratified"
)

// Options is the unified, context-first configuration of every facade
// entry point: the chase, Datalog evaluation, the translations and core
// computation all take this one value.
//
// Resource limits have exactly one code path: the Max* fields and
// Timeout below are routed into an internal/budget budget (together
// with the call's context), so exhausting any of them returns the
// partial result alongside a typed *BudgetError — there is no separate
// soft-truncating integer path. The zero value means "ungoverned engine
// defaults".
type Options struct {
	// Variant selects the chase flavor (Oblivious or Restricted) for the
	// chase-backed entry points. The zero value is Oblivious, matching
	// the paper's Section 2 chase; query answering typically wants
	// Restricted.
	Variant Variant
	// MaxDepth bounds the chase null-creation depth. Unlike the resource
	// ceilings below it is a semantic under-approximation bound
	// (truncation is recorded on the result, never returned as an
	// error); 0 means unbounded.
	MaxDepth int
	// Workers is the per-round worker count of the parallel engines
	// (0 = all CPUs for Datalog evaluation, sequential for the chase).
	Workers int

	// Timeout is the wall-clock budget of the run; 0 means none.
	// Exceeding it returns the partial result with ErrDeadline.
	Timeout time.Duration
	// MaxFacts caps derived facts (ErrFactLimit). 0 = engine default.
	MaxFacts int
	// MaxRules caps rules emitted by the translations (ErrRuleLimit).
	// 0 = engine default.
	MaxRules int
	// MaxRounds caps fixpoint rounds (ErrRoundLimit). 0 = engine default.
	MaxRounds int
	// MaxSteps caps elementary steps: chase trigger applications,
	// saturation inferences, core candidate endomorphisms (ErrStepLimit).
	// 0 = unbounded.
	MaxSteps int

	// Budget, when non-nil, is merged under the fields above: its unset
	// fields are filled from Timeout/Max* and the call's context. Most
	// callers leave it nil and use the flat fields.
	Budget *Budget
}

// budget resolves the effective budget of a call: the explicit Budget
// (if any) with unset fields filled from the flat Options fields, and
// the call's context wired in as the cancellation source. A nil return
// means the run is ungoverned.
func (o Options) budget(ctx context.Context) *Budget {
	var b Budget
	if o.Budget != nil {
		b = *o.Budget
	}
	if b.Ctx == nil && ctx != nil && ctx != context.Background() {
		b.Ctx = ctx
	}
	if b.Timeout == 0 {
		b.Timeout = o.Timeout
	}
	if b.MaxFacts == 0 {
		b.MaxFacts = o.MaxFacts
	}
	if b.MaxRules == 0 {
		b.MaxRules = o.MaxRules
	}
	if b.MaxRounds == 0 {
		b.MaxRounds = o.MaxRounds
	}
	if b.MaxSteps == 0 {
		b.MaxSteps = o.MaxSteps
	}
	if b.Ctx == nil && b.Timeout == 0 && b.MaxFacts == 0 && b.MaxRules == 0 &&
		b.MaxRounds == 0 && b.MaxSteps == 0 && b.FailAtCheckpoint == 0 {
		return nil
	}
	return &b
}

// chaseOptions lowers Options onto the chase engine. All limits travel
// through the budget (typed errors), never the engine's soft ints.
func (o Options) chaseOptions(ctx context.Context) chase.Options {
	return chase.Options{
		Variant:  o.Variant,
		MaxDepth: o.MaxDepth,
		Workers:  o.Workers,
		Budget:   o.budget(ctx),
	}
}

// datalogOptions lowers Options onto the semi-naive Datalog engine.
func (o Options) datalogOptions(ctx context.Context) datalog.Options {
	return datalog.Options{
		Workers: o.Workers,
		Budget:  o.budget(ctx),
	}
}

// translateOptions lowers Options onto the translation engines.
func (o Options) translateOptions(ctx context.Context) rewrite.Options {
	return rewrite.Options{Budget: o.budget(ctx)}
}

func (o Options) saturateOptions(ctx context.Context) saturate.Options {
	return saturate.Options{Budget: o.budget(ctx)}
}

// ChaseCtx runs the chase of D with Σ (Section 2) under the context and
// unified options. Existential theories may have infinite chases; bound
// the run with MaxDepth (semantic truncation) or the resource limits
// (typed *BudgetError with the partial result attached).
func ChaseCtx(ctx context.Context, th *Theory, d *Database, opts Options) (res *ChaseResult, err error) {
	defer recoverToError(&err)
	return chase.Run(th, d, opts.chaseOptions(ctx))
}

// EvalDatalogCtx computes the stratified fixpoint of a Datalog program
// with the parallel semi-naive engine under the context and unified
// options. On budget exhaustion it returns the facts of completed
// rounds alongside a typed *BudgetError.
func EvalDatalogCtx(ctx context.Context, th *Theory, d *Database, opts Options) (out *Database, err error) {
	defer recoverToError(&err)
	return datalog.EvalSemiNaiveOpts(th, d, opts.datalogOptions(ctx))
}

// AnswersCtx evaluates the query (Σ, Q) for a Datalog Σ over D under the
// context and unified options. On budget exhaustion the answers of the
// partial fixpoint are returned (a sound under-approximation) alongside
// the typed error.
func AnswersCtx(ctx context.Context, th *Theory, q string, d *Database, opts Options) (ans [][]Term, err error) {
	defer recoverToError(&err)
	return datalog.AnswersOpts(th, q, d, opts.datalogOptions(ctx))
}

// AnswerCQCtx answers a conjunctive query over a database enriched with
// a weakly frontier-guarded theory, by bounded chase (Section 7), under
// the context and unified options. The boolean result reports whether
// the chase saturated (answers are then exact; otherwise they are a
// sound under-approximation).
func AnswerCQCtx(ctx context.Context, th *Theory, q CQ, d *Database, opts Options) (ans [][]Term, exact bool, err error) {
	defer recoverToError(&err)
	return kb.AnswerByChase(th, q, d, opts.chaseOptions(ctx))
}

// AnswersGoalDirectedCtx evaluates a Datalog query with the magic-sets
// rewriting under the context and unified options: bottom-up evaluation
// restricted to the facts relevant to the query's bound constants.
func AnswersGoalDirectedCtx(ctx context.Context, th *Theory, query Atom, d *Database, opts Options) (ans [][]Term, err error) {
	defer recoverToError(&err)
	ans, _, err = datalog.AnswerWithMagicOpts(th, query, d, opts.datalogOptions(ctx))
	return ans, err
}

// EvalStratifiedCtx evaluates a stratified existential theory
// (Definition 23) under the context and unified options. On budget
// exhaustion the partially chased database is returned (exact = false)
// with the error.
func EvalStratifiedCtx(ctx context.Context, th *Theory, d *Database, opts Options) (out *Database, exact bool, err error) {
	defer recoverToError(&err)
	res, err := stratified.Eval(th, d, stratified.Options{Chase: opts.chaseOptions(ctx)})
	if err != nil {
		if IsBudgetError(err) && res != nil {
			return res.DB, false, err
		}
		return nil, false, err
	}
	return res.DB, !res.Truncated, nil
}

// Target names a translation target of TranslateCtx.
type Target int

const (
	// ToNearlyGuarded is rew(Σ) of Theorem 1 / Proposition 4: a (nearly)
	// frontier-guarded theory becomes nearly guarded with the same ground
	// atomic consequences over Σ's signature.
	ToNearlyGuarded Target = iota
	// ToWeaklyGuarded is rew(Σ) of Theorem 2 for weakly frontier-guarded
	// theories. TranslateCtx returns the rewritten theory only; use
	// TranslateWFGCtx when you need the Reorder mapping that queries over
	// the result require.
	ToWeaklyGuarded
	// ToDatalog is dat(Σ) of Theorem 3 / Proposition 6, routed by
	// fragment: nearly guarded theories saturate directly, (nearly)
	// frontier-guarded ones are first rewritten to nearly guarded.
	ToDatalog
)

func (t Target) String() string {
	switch t {
	case ToNearlyGuarded:
		return "nearly-guarded"
	case ToWeaklyGuarded:
		return "weakly-guarded"
	case ToDatalog:
		return "datalog"
	default:
		return fmt.Sprintf("Target(%d)", int(t))
	}
}

// TranslateCtx runs the paper's translations under the context and
// unified options, routing by fragment where the target allows several
// chains. On budget exhaustion the partial theory built so far is
// returned with a typed *BudgetError.
func TranslateCtx(ctx context.Context, th *Theory, to Target, opts Options) (out *Theory, err error) {
	defer recoverToError(&err)
	switch to {
	case ToNearlyGuarded:
		out, _, err = rewrite.Rewrite(normalize.Normalize(th), opts.translateOptions(ctx))
		return out, err
	case ToWeaklyGuarded:
		res, err := annotate.RewriteWFG(th, opts.translateOptions(ctx))
		if res == nil {
			return nil, err
		}
		return res.Rewritten, err
	case ToDatalog:
		if classify.Classify(th).Member[classify.NearlyGuarded] {
			out, _, err = saturate.NearlyGuardedToDatalog(th, opts.saturateOptions(ctx))
			return out, err
		}
		ng, _, err := rewrite.Rewrite(normalize.Normalize(th), opts.translateOptions(ctx))
		if err != nil {
			return ng, err
		}
		out, _, err = saturate.NearlyGuardedToDatalog(ng, opts.saturateOptions(ctx))
		return out, err
	default:
		return nil, fmt.Errorf("guardedrules: unknown translation target %v", to)
	}
}

// TranslateWFGCtx computes rew(Σ) of Theorem 2 with the full result:
// the rewritten weakly guarded theory plus the Reorder mapping that
// databases and queries over it require.
func TranslateWFGCtx(ctx context.Context, th *Theory, opts Options) (res *WFGResult, err error) {
	defer recoverToError(&err)
	return annotate.RewriteWFG(th, opts.translateOptions(ctx))
}

// CoreOfCtx minimizes an instance to its core under the context and
// unified options: the smallest homomorphically equivalent sub-instance
// (constants fixed, nulls mappable). The boolean reports whether the
// endomorphism search was exhaustive; on budget exhaustion the (sound)
// current set is returned with exact=false and a typed *BudgetError.
// MaxSteps caps the candidate endomorphisms inspected.
func CoreOfCtx(ctx context.Context, atoms []Atom, opts Options) (result []Atom, exact bool, err error) {
	defer recoverToError(&err)
	return hom.CoreOpts(atoms, hom.CoreOptions{Budget: opts.budget(ctx)})
}
