package hom

import (
	"math/rand"
	"testing"
	"testing/quick"

	"guardedrules/internal/core"
	"guardedrules/internal/database"
	"guardedrules/internal/parser"
)

func db(src string) *database.Database {
	return database.FromAtoms(parser.MustParseFacts(src))
}

func atoms(src string) []core.Atom {
	// Parse "R(X,Y), S(Y)" as a rule body.
	th := parser.MustParseTheory(src + " -> Dummy__().")
	return th.Rules[0].PositiveBody()
}

// findAll returns up to limit homomorphisms h ⊇ init with h(atoms) ⊆ d
// (limit ≤ 0 means all), searched by State and rendered as
// substitutions in enumeration order.
func findAll(atoms []core.Atom, d *database.Database, init core.Subst, limit int) []core.Subst {
	cas, slots := CompileAtoms(atoms, d)
	st := NewState(d, len(slots))
	for v, t := range init {
		if s, ok := slots[v]; ok {
			id, ok := d.TermID(t)
			if !ok {
				return nil
			}
			st.Bind(s, id)
		}
	}
	var out []core.Subst
	st.ForEach(cas, func() bool {
		h := core.Subst{}
		for v, t := range init {
			h[v] = t
		}
		for v, s := range slots {
			h[v] = d.Term(st.B[s])
		}
		out = append(out, h)
		return limit <= 0 || len(out) < limit
	})
	return out
}

func exists(atoms []core.Atom, d *database.Database, init core.Subst) bool {
	return len(findAll(atoms, d, init, 1)) > 0
}

func TestExistsSimple(t *testing.T) {
	d := db(`R(a,b). R(b,c).`)
	if !exists(atoms(`R(X,Y), R(Y,Z)`), d, nil) {
		t.Error("path of length 2 exists")
	}
	if exists(atoms(`R(X,Y), R(Y,X)`), d, nil) {
		t.Error("no 2-cycle in acyclic database")
	}
	if !exists(atoms(`R(X,X)`), db(`R(a,a).`), nil) {
		t.Error("self-loop must match")
	}
}

func TestConstantsFixed(t *testing.T) {
	d := db(`R(a,b).`)
	if !exists(atoms(`R(a,X)`), d, nil) {
		t.Error("constant in pattern must match itself")
	}
	if exists(atoms(`R(b,X)`), d, nil) {
		t.Error("h(c)=c must be enforced")
	}
}

func TestInitialSubstitution(t *testing.T) {
	d := db(`R(a,b). R(c,d).`)
	init := core.Subst{core.Var("X"): core.Const("c")}
	all := findAll(atoms(`R(X,Y)`), d, init, 0)
	if len(all) != 1 || all[0].Apply(core.Var("Y")) != core.Const("d") {
		t.Errorf("init not respected: %v", all)
	}
}

func TestFindAllCountsAndLimit(t *testing.T) {
	d := db(`R(a,b). R(a,c). R(b,c).`)
	all := findAll(atoms(`R(X,Y)`), d, nil, 0)
	if len(all) != 3 {
		t.Errorf("FindAll: %d", len(all))
	}
	two := findAll(atoms(`R(X,Y)`), d, nil, 2)
	if len(two) != 2 {
		t.Errorf("limit ignored: %d", len(two))
	}
	// Join: R(X,Y), R(Y,Z) has matches a-b-c only (a-c has no continuation).
	j := findAll(atoms(`R(X,Y), R(Y,Z)`), d, nil, 0)
	if len(j) != 1 {
		t.Errorf("join count: %d (%v)", len(j), j)
	}
}

func TestNullsInDatabaseAreMappable(t *testing.T) {
	d := database.New()
	d.Add(core.NewAtom("R", core.Const("a"), core.NewNull("n1")))
	all := findAll(atoms(`R(X,Y)`), d, nil, 0)
	if len(all) != 1 || !all[0].Apply(core.Var("Y")).IsNull() {
		t.Errorf("variables must map to nulls: %v", all)
	}
}

func TestNullsInPatternMatchExactly(t *testing.T) {
	d := database.New()
	d.Add(core.NewAtom("R", core.NewNull("n1")))
	if !exists([]core.Atom{core.NewAtom("R", core.NewNull("n1"))}, d, nil) {
		t.Error("same null must match")
	}
	if exists([]core.Atom{core.NewAtom("R", core.NewNull("n2"))}, d, nil) {
		t.Error("different null must not match in plain search")
	}
}

func TestIntoAtomsTreatsNullsAsVariables(t *testing.T) {
	src := []core.Atom{core.NewAtom("R", core.Const("a"), core.NewNull("n1"))}
	dst := []core.Atom{core.NewAtom("R", core.Const("a"), core.Const("b"))}
	if !IntoAtoms(src, dst) {
		t.Error("null must be mappable to constant")
	}
	if IntoAtoms(dst, src) {
		t.Error("constant b cannot map to a null")
	}
}

func TestEquivalent(t *testing.T) {
	a := []core.Atom{
		core.NewAtom("R", core.Const("a"), core.NewNull("n1")),
		core.NewAtom("R", core.Const("a"), core.NewNull("n2")),
	}
	b := []core.Atom{core.NewAtom("R", core.Const("a"), core.NewNull("m"))}
	if !Equivalent(a, b) {
		t.Error("duplicated null atoms are homomorphically equivalent to one")
	}
	c := []core.Atom{core.NewAtom("R", core.NewNull("x"), core.Const("a"))}
	if Equivalent(a, c) {
		t.Error("different shapes must not be equivalent")
	}
}

func TestAnnotatedHomomorphism(t *testing.T) {
	d := database.New()
	d.Add(core.Atom{Relation: "R", Annotation: []core.Term{core.Const("u")}, Args: []core.Term{core.Const("a")}})
	pat := core.Atom{Relation: "R", Annotation: []core.Term{core.Var("W")}, Args: []core.Term{core.Var("X")}}
	all := findAll([]core.Atom{pat}, d, nil, 0)
	if len(all) != 1 || all[0].Apply(core.Var("W")) != core.Const("u") {
		t.Errorf("annotation positions must participate in matching: %v", all)
	}
}

func TestForEachEarlyStop(t *testing.T) {
	d := db(`R(a). R(b). R(c).`)
	n := 0
	cas, slots := CompileAtoms(atoms(`R(X)`), d)
	completed := NewState(d, len(slots)).ForEach(cas, func() bool {
		n++
		return n < 2
	})
	if completed || n != 2 {
		t.Errorf("early stop failed: completed=%v n=%d", completed, n)
	}
}

func TestEmptyPattern(t *testing.T) {
	// The empty conjunction has exactly the identity homomorphism.
	all := findAll(nil, database.New(), nil, 0)
	if len(all) != 1 {
		t.Errorf("empty pattern: %d", len(all))
	}
}

// Property: on random graph databases, the number of homomorphisms of the
// pattern R(X,Y),R(Y,Z) equals the number of directed 2-walks counted
// naively.
func TestTwoWalkCountProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(seed uint16) bool {
		n := 2 + rng.Intn(5)
		edges := map[[2]int]bool{}
		d := database.New()
		for i := 0; i < n*2; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			edges[[2]int{u, v}] = true
			d.Add(core.NewAtom("E", core.Const(string(rune('a'+u))), core.Const(string(rune('a'+v)))))
		}
		want := 0
		for e1 := range edges {
			for e2 := range edges {
				if e1[1] == e2[0] {
					want++
				}
			}
		}
		got := len(findAll(atoms(`E(X,Y), E(Y,Z)`), d, nil, 0))
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
