package hom

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"guardedrules/internal/core"
	"guardedrules/internal/database"
)

// enumerateTermSpace runs the term-space oracle ForEach and renders each
// homomorphism as the image of vars, in enumeration order.
func enumerateTermSpace(atoms []core.Atom, db *database.Database, vars []core.Term) []string {
	var out []string
	ForEach(atoms, db, nil, func(s core.Subst) bool {
		parts := make([]string, len(vars))
		for i, v := range vars {
			if t, ok := s[v]; ok {
				parts[i] = t.String()
			} else {
				parts[i] = "?"
			}
		}
		out = append(out, strings.Join(parts, ","))
		return true
	})
	return out
}

// enumerateIDSpace does the same through the compiled searcher.
func enumerateIDSpace(atoms []core.Atom, db *database.Database, vars []core.Term) []string {
	cas, slots := CompileAtoms(atoms, db)
	st := NewState(db, len(slots))
	var out []string
	st.ForEach(cas, func() bool {
		parts := make([]string, len(vars))
		for i, v := range vars {
			if s, ok := slots[v]; ok && st.Bd[s] {
				parts[i] = db.Term(st.B[s]).String()
			} else {
				parts[i] = "?"
			}
		}
		out = append(out, strings.Join(parts, ","))
		return true
	})
	return out
}

func checkParity(t *testing.T, atoms []core.Atom, db *database.Database, vars []core.Term) {
	t.Helper()
	want := enumerateTermSpace(atoms, db, vars)
	got := enumerateIDSpace(atoms, db, vars)
	if len(want) != len(got) {
		t.Fatalf("enumeration sizes differ: term-space %d vs id-space %d\natoms=%v", len(want), len(got), atoms)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("enumeration order diverges at %d: %q vs %q\natoms=%v", i, want[i], got[i], atoms)
		}
	}
}

// The id-space searcher must enumerate exactly the homomorphisms of
// ForEach, in the same order: the chase derives its determinism (and
// its null numbering) from that order.
func TestIDSpaceMatchesTermSpaceOrder(t *testing.T) {
	db := database.New()
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			if (i+j)%2 == 0 {
				db.Add(core.NewAtom("R", core.Const(fmt.Sprintf("c%d", i)), core.Const(fmt.Sprintf("c%d", j))))
			}
			if (i*j)%3 == 0 {
				db.Add(core.NewAtom("S", core.Const(fmt.Sprintf("c%d", j)), core.Const(fmt.Sprintf("c%d", i))))
			}
		}
		db.Add(core.NewAtom("U", core.Const(fmt.Sprintf("c%d", i))))
	}
	x, y, z := core.Var("X"), core.Var("Y"), core.Var("Z")
	cases := [][]core.Atom{
		{core.NewAtom("R", x, y)},
		{core.NewAtom("R", x, y), core.NewAtom("S", y, z)},
		{core.NewAtom("R", x, y), core.NewAtom("S", y, z), core.NewAtom("U", z)},
		{core.NewAtom("R", x, x)},
		{core.NewAtom("R", core.Const("c2"), y), core.NewAtom("R", y, z)},
		{core.NewAtom("R", core.Const("nope"), y)}, // unresolved constant: dead branch
		{core.NewAtom("U", x), core.NewAtom("U", y)},
		{core.NewAtom("R", x, y), core.NewAtom("R", y, x)},
	}
	for _, atoms := range cases {
		checkParity(t, atoms, db, []core.Term{x, y, z})
	}
}

// Randomized parity sweep over annotated atoms and varying shapes.
func TestIDSpaceParityRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vars := []core.Term{core.Var("V0"), core.Var("V1"), core.Var("V2"), core.Var("V3")}
	consts := make([]core.Term, 8)
	for i := range consts {
		consts[i] = core.Const(fmt.Sprintf("k%d", i))
	}
	rels := []string{"P", "Q", "T"}
	for trial := 0; trial < 60; trial++ {
		db := database.New()
		nfacts := 10 + rng.Intn(30)
		for i := 0; i < nfacts; i++ {
			r := rels[rng.Intn(len(rels))]
			a := core.Atom{Relation: r, Args: []core.Term{
				consts[rng.Intn(len(consts))], consts[rng.Intn(len(consts))],
			}}
			if rng.Intn(2) == 0 {
				a.Annotation = []core.Term{consts[rng.Intn(len(consts))]}
			}
			db.Add(a)
		}
		natoms := 1 + rng.Intn(3)
		atoms := make([]core.Atom, 0, natoms)
		for i := 0; i < natoms; i++ {
			pick := func() core.Term {
				if rng.Intn(3) == 0 {
					return consts[rng.Intn(len(consts))]
				}
				return vars[rng.Intn(len(vars))]
			}
			a := core.Atom{Relation: rels[rng.Intn(len(rels))], Args: []core.Term{pick(), pick()}}
			if rng.Intn(2) == 0 {
				a.Annotation = []core.Term{pick()}
			}
			atoms = append(atoms, a)
		}
		checkParity(t, atoms, db, vars)
	}
}

// Zero-ary atoms exercise the w==0 full-scan path.
func TestIDSpaceZeroAry(t *testing.T) {
	db := database.New()
	db.Add(core.NewAtom("Accept"))
	db.Add(core.NewAtom("A", core.Const("a")))
	x := core.Var("X")
	checkParity(t, []core.Atom{core.NewAtom("Accept"), core.NewAtom("A", x)}, db, []core.Term{x})
	if got := enumerateIDSpace([]core.Atom{core.NewAtom("Missing")}, db, nil); len(got) != 0 {
		t.Fatalf("missing zero-ary relation matched %d times", len(got))
	}
}

// Seeded bindings (the delta path): pre-match one atom by hand, search
// the rest with its done flag set, mirroring the term-space init subst.
func TestIDSpaceSeededSearch(t *testing.T) {
	db := database.New()
	db.Add(core.NewAtom("R", core.Const("a"), core.Const("b")))
	db.Add(core.NewAtom("R", core.Const("b"), core.Const("c")))
	db.Add(core.NewAtom("S", core.Const("b"), core.Const("x")))
	db.Add(core.NewAtom("S", core.Const("c"), core.Const("y")))
	x, y, z := core.Var("X"), core.Var("Y"), core.Var("Z")
	atoms := []core.Atom{core.NewAtom("R", x, y), core.NewAtom("S", y, z)}

	// Term space: init {X=a, Y=b} over the S atom only.
	want := 0
	ForEach([]core.Atom{atoms[1]}, db, core.Subst{x: core.Const("a"), y: core.Const("b")}, func(core.Subst) bool {
		want++
		return true
	})

	cas, slots := CompileAtoms(atoms, db)
	st := NewState(db, len(slots))
	ida, _ := db.TermID(core.Const("a"))
	idb, _ := db.TermID(core.Const("b"))
	st.Bind(slots[x], ida)
	st.Bind(slots[y], idb)
	done := []bool{true, false}
	got := 0
	st.Search(cas, done, func() bool {
		got++
		if !st.Bd[slots[z]] {
			t.Error("Z must be bound at the leaf")
		}
		return true
	})
	if got != want || got != 1 {
		t.Fatalf("seeded search found %d matches, want %d (=1)", got, want)
	}
	// The seeded bindings survive the search; searched bindings unwind.
	if !st.Bd[slots[x]] || !st.Bd[slots[y]] || st.Bd[slots[z]] {
		t.Fatal("seeded bindings must survive, searched bindings must unwind")
	}
}
