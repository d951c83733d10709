package kb

import (
	"testing"

	"guardedrules/internal/core"
)

func mustCQ(t *testing.T, src string) CQ {
	t.Helper()
	q, err := ParseCQ(src)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestParseCQ(t *testing.T) {
	q := mustCQ(t, `R(X,Y), S(Y) -> Ans(X).`)
	if len(q.Answer) != 1 || q.Answer[0] != core.Var("X") {
		t.Errorf("answer: %v", q.Answer)
	}
	if len(q.Atoms) != 2 {
		t.Errorf("atoms: %v", q.Atoms)
	}
	if _, err := ParseCQ(`R(X), not S(X) -> Ans(X).`); err == nil {
		t.Error("negation must be rejected")
	}
	if _, err := ParseCQ(`R(X) -> exists Y. Ans(X,Y).`); err == nil {
		t.Error("existential heads must be rejected")
	}
	if _, err := ParseCQ(`R(X) -> A(X). S(X) -> B(X).`); err == nil {
		t.Error("multiple rules must be rejected")
	}
}

func TestContainment(t *testing.T) {
	// Every start of a 2-path is a start of a 1-path: q2path ⊑ q1path.
	q2path := mustCQ(t, `E(X,Y), E(Y,Z) -> Ans(X).`)
	q1path := mustCQ(t, `E(X,W) -> Ans(X).`)
	ok, err := q2path.ContainedIn(q1path)
	if err != nil || !ok {
		t.Errorf("2-path ⊑ 1-path must hold: %v %v", ok, err)
	}
	ok, err = q1path.ContainedIn(q2path)
	if err != nil || ok {
		t.Errorf("1-path ⊑ 2-path must fail: %v %v", ok, err)
	}
}

func TestContainmentWithConstants(t *testing.T) {
	qa := mustCQ(t, `E(X,b) -> Ans(X).`)
	qv := mustCQ(t, `E(X,Y) -> Ans(X).`)
	if ok, _ := qa.ContainedIn(qv); !ok {
		t.Error("constant query is contained in its generalization")
	}
	if ok, _ := qv.ContainedIn(qa); ok {
		t.Error("generalization is not contained in the constant query")
	}
}

func TestEquivalence(t *testing.T) {
	// Redundant atom: E(X,Y), E(X,Y2) ≡ E(X,Y).
	q1 := mustCQ(t, `E(X,Y), E(X,Y2) -> Ans(X).`)
	q2 := mustCQ(t, `E(X,Y) -> Ans(X).`)
	eq, err := q1.EquivalentTo(q2)
	if err != nil || !eq {
		t.Errorf("redundant atom must not change the query: %v %v", eq, err)
	}
	q3 := mustCQ(t, `E(X,X) -> Ans(X).`)
	if eq, _ := q2.EquivalentTo(q3); eq {
		t.Error("self-loop query differs from edge query")
	}
}

func TestBooleanContainment(t *testing.T) {
	// Boolean queries (no answer variables): triangle ⊑ edge.
	tri := mustCQ(t, `E(X,Y), E(Y,Z), E(Z,X) -> Ans().`)
	edge := mustCQ(t, `E(X,Y) -> Ans().`)
	if ok, _ := tri.ContainedIn(edge); !ok {
		t.Error("a triangle contains an edge")
	}
	if ok, _ := edge.ContainedIn(tri); ok {
		t.Error("an edge does not contain a triangle")
	}
}

func TestRepeatedAnswerVariable(t *testing.T) {
	qxx := mustCQ(t, `E(X,X) -> Ans(X,X).`)
	qxy := mustCQ(t, `E(X,Y) -> Ans(X,Y).`)
	if ok, _ := qxx.ContainedIn(qxy); !ok {
		t.Error("diagonal answers are edge answers")
	}
	if ok, _ := qxy.ContainedIn(qxx); ok {
		t.Error("edge answers are not all diagonal")
	}
}

func TestContainmentArityMismatch(t *testing.T) {
	q1 := mustCQ(t, `E(X,Y) -> Ans(X).`)
	q2 := mustCQ(t, `E(X,Y) -> Ans(X,Y).`)
	if _, err := q1.ContainedIn(q2); err == nil {
		t.Error("arity mismatch must error")
	}
}
