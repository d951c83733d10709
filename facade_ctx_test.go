package guardedrules

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"guardedrules/internal/core"
	"guardedrules/internal/termination"
)

func mustTheory(t *testing.T, src string) *Theory {
	t.Helper()
	th, err := ParseTheory(src)
	if err != nil {
		t.Fatal(err)
	}
	return th
}

func mustDB(t *testing.T, src string) *Database {
	t.Helper()
	facts, err := ParseFacts(src)
	if err != nil {
		t.Fatal(err)
	}
	return NewDatabase(facts...)
}

const nonTerminating = "N(X) -> exists Y. E(X,Y). E(X,Y) -> N(Y)."

// The flat Options fields route into the budget: MaxFacts on a
// non-terminating chase yields the partial result and ErrFactLimit.
func TestChaseCtxMaxFacts(t *testing.T) {
	th := mustTheory(t, nonTerminating)
	res, err := ChaseCtx(context.Background(), th, mustDB(t, "N(a)."), Options{MaxFacts: 10})
	if !errors.Is(err, ErrFactLimit) {
		t.Fatalf("err = %v, want ErrFactLimit", err)
	}
	if res == nil || !res.Truncated || res.DB.Len() == 0 {
		t.Fatalf("partial result missing: %+v", res)
	}
}

// A canceled context stops the run with ErrCanceled.
func TestChaseCtxCancellation(t *testing.T) {
	th := mustTheory(t, nonTerminating)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ChaseCtx(ctx, th, mustDB(t, "N(a)."), Options{})
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCanceled matching context.Canceled", err)
	}
}

// Options.Timeout becomes the budget deadline.
func TestChaseCtxTimeout(t *testing.T) {
	th := mustTheory(t, nonTerminating)
	_, err := ChaseCtx(context.Background(), th, mustDB(t, "N(a)."), Options{Timeout: time.Nanosecond})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
}

// An explicit Budget is merged under the flat fields: its set fields
// win, unset ones are filled from Options.
func TestOptionsBudgetMerge(t *testing.T) {
	opts := Options{Timeout: time.Hour, MaxFacts: 7, Budget: &Budget{MaxFacts: 3}}
	b := opts.budget(context.Background())
	if b == nil || b.MaxFacts != 3 || b.Timeout != time.Hour {
		t.Fatalf("merged budget = %+v, want MaxFacts=3 Timeout=1h", b)
	}
	if zero := (Options{}).budget(context.Background()); zero != nil {
		t.Fatalf("zero options must mean ungoverned, got %+v", zero)
	}
}

// ChaseCertified saturates a weakly acyclic theory within its priced
// certificate bound, and a canceled context still stops the
// (ceiling-free) run with ErrCanceled.
func TestChaseCertifiedCtx(t *testing.T) {
	th := mustTheory(t, "Publication(X) -> exists K. Keywords(X,K). Keywords(X,K) -> Topic(K).")
	d := mustDB(t, "Publication(p1). Publication(p2).")
	rep := AnalyzeTermination(th)
	if rep.Class != termination.ClassWA {
		t.Fatalf("class = %v, want weakly acyclic", rep.Class)
	}
	bound, ok := rep.Bound.Facts(d.InternEpoch()+len(th.Constants()), d.Len())
	if !ok {
		t.Fatal("bound must be computable for a small database")
	}
	res, err := ChaseCertified(context.Background(), th, d, bound, Options{Variant: Restricted})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.DB.UserFacts()); !res.Saturated || n != 6 || res.DB.Len() > bound {
		t.Fatalf("saturated=%v user facts=%d len=%d bound=%d, want a saturated 6-fact chase",
			res.Saturated, n, res.DB.Len(), bound)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ChaseCertified(ctx, th, d, bound, Options{Variant: Restricted}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

// TranslateCtx routes by fragment: a nearly guarded theory saturates
// directly to Datalog, and the output theory is existential-free with
// the same ground atomic consequences.
func TestTranslateCtxToDatalog(t *testing.T) {
	th := mustTheory(t, `
		A(X) -> exists Y. R(X,Y).
		R(X,Y) -> B(X).
	`)
	dl, err := TranslateCtx(context.Background(), th, ToDatalog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !Classify(dl).Member[Datalog] {
		t.Fatal("dat(Σ) must be plain Datalog")
	}
	d := mustDB(t, "A(a).")
	out, err := EvalDatalogCtx(context.Background(), dl, d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Len(); got == 0 {
		t.Fatalf("dat(Σ) lost consequences, db len %d", got)
	}
	ans, err := AnswersCtx(context.Background(), dl, "B", d, Options{})
	if err != nil || len(ans) != 1 {
		t.Fatalf("B answers = %v (%v), want [[a]]", ans, err)
	}
}

// TranslateCtx with a rule ceiling aborts with ErrRuleLimit.
func TestTranslateCtxRuleLimit(t *testing.T) {
	th := mustTheory(t, `
		R(X,Y), S(Y) -> exists Z. R(Y,Z).
		R(X,Y) -> S(Y).
	`)
	_, err := TranslateCtx(context.Background(), th, ToDatalog, Options{MaxRules: 2})
	if !errors.Is(err, ErrRuleLimit) {
		t.Fatalf("err = %v, want ErrRuleLimit", err)
	}
}

// CoreOfCtx honours MaxSteps: the search comes back sound but
// inexact with ErrStepLimit.
func TestCoreOfCtxStepLimit(t *testing.T) {
	var atoms []Atom
	for i := 0; i < 8; i++ {
		atoms = append(atoms, NewAtom("E", Const("a"), core.NewNull(fmt.Sprintf("n%d", i))))
	}
	res, exact, err := CoreOfCtx(context.Background(), atoms, Options{MaxSteps: 1})
	if !errors.Is(err, ErrStepLimit) {
		t.Fatalf("err = %v, want ErrStepLimit", err)
	}
	if exact || len(res) == 0 || len(res) > len(atoms) {
		t.Fatalf("truncated core search: exact=%v len=%d", exact, len(res))
	}

	full, exact, err := CoreOfCtx(context.Background(), atoms, Options{})
	if err != nil || !exact || len(full) != 1 {
		t.Fatalf("exhaustive core = %d atoms exact=%v (%v), want 1 atom", len(full), exact, err)
	}
}

// AnswerCQCtx under a fact budget returns sound partial answers.
func TestAnswerCQCtxBudget(t *testing.T) {
	th := mustTheory(t, nonTerminating)
	q, err := ParseCQ("N(X) -> Ans(X).")
	if err != nil {
		t.Fatal(err)
	}
	ans, exact, err := AnswerCQCtx(context.Background(), th, q, mustDB(t, "N(a)."), Options{MaxFacts: 10})
	if !IsBudgetError(err) {
		t.Fatalf("err = %v, want a budget error", err)
	}
	if exact || len(ans) == 0 {
		t.Fatalf("want inexact non-empty answers, got exact=%v %v", exact, ans)
	}
}

// EvalStratifiedCtx surfaces the partial database on budget exhaustion.
func TestEvalStratifiedCtxBudget(t *testing.T) {
	th := mustTheory(t, nonTerminating)
	out, exact, err := EvalStratifiedCtx(context.Background(), th, mustDB(t, "N(a)."), Options{MaxFacts: 10})
	if !IsBudgetError(err) {
		t.Fatalf("err = %v, want a budget error", err)
	}
	if exact || out == nil || out.Len() == 0 {
		t.Fatalf("want inexact partial db, got exact=%v out=%v", exact, out)
	}
}
