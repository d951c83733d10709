package datalog

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"guardedrules/internal/core"
	"guardedrules/internal/database"
	"guardedrules/internal/parser"
)

func eval(t *testing.T, theory, facts string) *database.Database {
	t.Helper()
	th := parser.MustParseTheory(theory)
	d := database.FromAtoms(parser.MustParseFacts(facts))
	out, err := Eval(th, d)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestTransitiveClosure(t *testing.T) {
	out := eval(t, `
		E(X,Y) -> T(X,Y).
		E(X,Y), T(Y,Z) -> T(X,Z).
	`, `E(a,b). E(b,c). E(c,d).`)
	for _, p := range [][2]string{{"a", "d"}, {"b", "d"}, {"a", "c"}} {
		if !out.Has(core.NewAtom("T", core.Const(p[0]), core.Const(p[1]))) {
			t.Errorf("T(%s,%s) missing", p[0], p[1])
		}
	}
	if out.Has(core.NewAtom("T", core.Const("d"), core.Const("a"))) {
		t.Error("T(d,a) must not hold")
	}
}

func TestStratifiedNegation(t *testing.T) {
	// Reachable and unreachable nodes.
	out := eval(t, `
		Start(X) -> Reach(X).
		Reach(X), E(X,Y) -> Reach(Y).
		Node(X), not Reach(X) -> Unreach(X).
	`, `Start(a). E(a,b). E(c,d). Node(a). Node(b). Node(c). Node(d).`)
	if !out.Has(core.NewAtom("Unreach", core.Const("c"))) || !out.Has(core.NewAtom("Unreach", core.Const("d"))) {
		t.Error("c,d must be unreachable")
	}
	if out.Has(core.NewAtom("Unreach", core.Const("a"))) || out.Has(core.NewAtom("Unreach", core.Const("b"))) {
		t.Error("a,b are reachable")
	}
}

func TestStratifyLevels(t *testing.T) {
	th := parser.MustParseTheory(`
		E(X,Y) -> R(X,Y).
		R(X,Y), not S(Y) -> P(X).
		E(X,Y) -> S(X).
		P(X), not Q2(X) -> W(X).
		P(X) -> Q2(X).
	`)
	strata, err := Stratify(th)
	if err != nil {
		t.Fatal(err)
	}
	if len(strata) < 3 {
		t.Errorf("expected at least 3 strata, got %d", len(strata))
	}
	// Heads must never be negated in the same or later strata.
	headStratum := map[string]int{}
	for i, rules := range strata {
		for _, r := range rules {
			for _, h := range r.Head {
				headStratum[h.Relation] = i
			}
		}
	}
	for i, rules := range strata {
		for _, r := range rules {
			for _, l := range r.Body {
				if l.Negated {
					if hs, ok := headStratum[l.Atom.Relation]; ok && hs >= i {
						t.Errorf("negated %s in stratum %d but defined in %d", l.Atom.Relation, i, hs)
					}
				}
			}
		}
	}
}

func TestUnstratifiable(t *testing.T) {
	th := parser.MustParseTheory(`
		P(X), not Q2(X) -> R(X).
		R(X) -> Q2(X).
		Q2(X) -> P(X).
	`)
	if _, err := Stratify(th); err == nil {
		t.Error("negation through recursion must be rejected")
	}
}

func TestEvalRejectsExistentials(t *testing.T) {
	th := parser.MustParseTheory(`A(X) -> exists Y. R(X,Y).`)
	if _, err := Eval(th, database.New()); err == nil {
		t.Error("Eval must reject existential rules")
	}
}

func TestIsSemipositive(t *testing.T) {
	sp := parser.MustParseTheory(`
		R(X), not In(X) -> P(X).
		P(X) -> W(X).
	`)
	if !IsSemipositive(sp) {
		t.Error("negation on input-only relation is semipositive")
	}
	nsp := parser.MustParseTheory(`
		R(X) -> P(X).
		R(X), not P(X) -> W(X).
	`)
	if IsSemipositive(nsp) {
		t.Error("negation on derived relation is not semipositive")
	}
}

func TestAnswersSortedAndGround(t *testing.T) {
	th := parser.MustParseTheory(`E(X,Y) -> Q(Y,X).`)
	d := database.FromAtoms(parser.MustParseFacts(`E(b,a). E(a,c).`))
	ans, err := Answers(th, "Q", d)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 2 {
		t.Fatalf("answers: %v", ans)
	}
	if ans[0][0] != core.Const("a") || ans[0][1] != core.Const("b") {
		t.Errorf("answers not sorted: %v", ans)
	}
}

func TestSameAnswers(t *testing.T) {
	a := [][]core.Term{{core.Const("a")}, {core.Const("b")}}
	b := [][]core.Term{{core.Const("b")}, {core.Const("a")}}
	if ok, _ := SameAnswers(a, b); !ok {
		t.Error("order must not matter")
	}
	c := [][]core.Term{{core.Const("a")}}
	if ok, diff := SameAnswers(a, c); ok || diff == "" {
		t.Error("difference must be detected")
	}
	if ok, _ := SameAnswers(append(a, a[0]), a); !ok {
		t.Error("answers are sets: a repeated tuple must not matter")
	}
	// Tuples compare term by term: a comma inside a name must not shift
	// the split between terms, and a constant must not equal the null
	// whose rendering it spells.
	commaL := [][]core.Term{{core.Const("a,b"), core.Const("c")}}
	commaR := [][]core.Term{{core.Const("a"), core.Const("b,c")}}
	if ok, _ := SameAnswers(commaL, commaR); ok {
		t.Error(`("a,b","c") and ("a","b,c") must differ`)
	}
	if ok, _ := SameAnswers([][]core.Term{{core.Const("_:x")}}, [][]core.Term{{core.NewNull("x")}}); ok {
		t.Error("the constant _:x and the null x must differ")
	}
}

// Property: transitive closure computed by the engine equals the
// Floyd-Warshall closure on random digraphs.
func TestTransitiveClosureProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	th := parser.MustParseTheory(`
		E(X,Y) -> T(X,Y).
		E(X,Y), T(Y,Z) -> T(X,Z).
	`)
	f := func(seed uint16) bool {
		n := 2 + rng.Intn(5)
		adj := make([][]bool, n)
		for i := range adj {
			adj[i] = make([]bool, n)
		}
		d := database.New()
		names := make([]core.Term, n)
		for i := range names {
			names[i] = core.Const(fmt.Sprintf("v%d", i))
			// Ensure every node is in the active domain.
			d.Add(core.NewAtom("Node", names[i]))
		}
		for e := 0; e < n; e++ {
			u, v := rng.Intn(n), rng.Intn(n)
			adj[u][v] = true
			d.Add(core.NewAtom("E", names[u], names[v]))
		}
		// Floyd-Warshall.
		reach := make([][]bool, n)
		for i := range reach {
			reach[i] = append([]bool(nil), adj[i]...)
		}
		for k := 0; k < n; k++ {
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if reach[i][k] && reach[k][j] {
						reach[i][j] = true
					}
				}
			}
		}
		out, err := Eval(th, d)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if out.Has(core.NewAtom("T", names[i], names[j])) != reach[i][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: semipositive programs are monotone in the positive input
// relations.
func TestSemipositiveMonotonicity(t *testing.T) {
	th := parser.MustParseTheory(`
		E(X,Y) -> T(X,Y).
		E(X,Y), T(Y,Z) -> T(X,Z).
	`)
	small := database.FromAtoms(parser.MustParseFacts(`E(a,b).`))
	big := database.FromAtoms(parser.MustParseFacts(`E(a,b). E(b,c).`))
	outS, _ := Eval(th, small)
	outB, _ := Eval(th, big)
	for _, f := range outS.GroundAtoms() {
		if !outB.Has(f) {
			t.Errorf("monotonicity violated: %v", f)
		}
	}
}
