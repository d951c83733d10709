package guardedrules

import (
	"context"
	"testing"

	"guardedrules/internal/tm"
)

// The facade test walks the README quickstart end to end.
func TestFacadeQuickstart(t *testing.T) {
	th, err := ParseTheory(`
		Publication(X) -> exists K1,K2. Keywords(X,K1,K2).
		Keywords(X,K1,K2) -> hasTopic(X,K1).
		hasAuthor(X,Y), hasTopic(X,Z), Scientific(Z) -> Q(Y).
	`)
	if err != nil {
		t.Fatal(err)
	}
	rep := Classify(th)
	if !rep.Member[FrontierGuarded] {
		t.Fatal("theory must be frontier-guarded")
	}
	facts, err := ParseFacts(`Publication(p1). hasAuthor(p1,a1). hasTopic(p1,t1). Scientific(t1).`)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDatabase(facts...)
	res, err := ChaseCtx(context.Background(), th, d, Options{Variant: Restricted, MaxDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Entails(NewAtom("Q", Const("a1"))) {
		t.Error("Q(a1) must be entailed")
	}
}

func TestFacadeTranslationChain(t *testing.T) {
	th, err := ParseTheory(`
		A(X) -> exists Y. R(X,Y).
		R(X,Y), B(X) -> S(Y).
		R(X,Y), S(Y) -> Hit(X).
	`)
	if err != nil {
		t.Fatal(err)
	}
	ng, err := TranslateCtx(context.Background(), th, ToNearlyGuarded, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !Classify(ng).Member[NearlyGuarded] {
		t.Fatal("translation must be nearly guarded")
	}
	dat, err := TranslateCtx(context.Background(), ng, ToDatalog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !Classify(dat).Member[Datalog] {
		t.Fatal("dat must be Datalog")
	}
	facts, _ := ParseFacts(`A(a). B(a). A(b).`)
	ans, err := AnswersCtx(context.Background(), dat, "Hit", NewDatabase(facts...), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 1 || ans[0][0] != Const("a") {
		t.Errorf("answers: %v", ans)
	}
}

func TestFacadeCapture(t *testing.T) {
	m := tm.EvenLength([]string{"zero", "one"})
	th, err := CompileATM(m, 1, []string{"zero", "one"})
	if err != nil {
		t.Fatal(err)
	}
	d, err := EncodeWord([]string{"one", "zero"}, 1, []string{"zero", "one"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ChaseCtx(context.Background(), th, d, Options{Variant: Restricted, MaxDepth: 12, MaxFacts: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Entails(NewAtom(AcceptRel)) {
		t.Error("even-length word must be accepted")
	}
}

func TestFacadeStratified(t *testing.T) {
	th, err := ParseTheory(`
		Start(X) -> Reach(X).
		Reach(X), E(X,Y) -> Reach(Y).
		Node(X), not Reach(X) -> Unreach(X).
	`)
	if err != nil {
		t.Fatal(err)
	}
	facts, _ := ParseFacts(`Start(a). E(a,b). Node(a). Node(b). Node(c).`)
	db, exact, err := EvalStratifiedCtx(context.Background(), th, NewDatabase(facts...), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !exact {
		t.Error("finite program must evaluate exactly")
	}
	if !db.Has(NewAtom("Unreach", Const("c"))) {
		t.Error("Unreach(c) must hold")
	}
}

func TestFacadeTermination(t *testing.T) {
	terminating, _ := ParseTheory(`A(X) -> exists Y. R(X,Y).`)
	if !ChaseTerminates(terminating) {
		t.Error("acyclic theory must be recognized")
	}
	looping, _ := ParseTheory(`Person(X) -> exists Y. hasParent(X,Y). hasParent(X,Y) -> Person(Y).`)
	if ChaseTerminates(looping) {
		t.Error("the ancestor loop must be flagged")
	}
}

func TestFacadeCore(t *testing.T) {
	atoms := []Atom{
		NewAtom("R", Const("a"), Const("b")),
		{Relation: "R", Args: []Term{Const("a"), {Kind: 1, Name: "n1"}}},
	}
	got, exact, err := CoreOfCtx(context.Background(), atoms, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !exact || len(got) != 1 {
		t.Errorf("core: %v exact=%v", got, exact)
	}
}

func TestFacadeCQContainment(t *testing.T) {
	q1, err := ParseCQ(`E(X,Y), E(Y,Z) -> Ans(X).`)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := ParseCQ(`E(X,W) -> Ans(X).`)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := CQContained(q1, q2)
	if err != nil || !ok {
		t.Errorf("2-path must be contained in 1-path: %v %v", ok, err)
	}
}

func TestFacadeGoalDirected(t *testing.T) {
	th, _ := ParseTheory(`
		Par(X,Y) -> Anc(X,Y).
		Par(X,Z), Anc(Z,Y) -> Anc(X,Y).
	`)
	facts, _ := ParseFacts(`Par(a,b). Par(b,c). Par(x,y).`)
	ans, err := AnswersGoalDirectedCtx(context.Background(), th, NewAtom("Anc", Const("a"), Var("Y")), NewDatabase(facts...), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 2 {
		t.Errorf("descendants of a: %v", ans)
	}
}
