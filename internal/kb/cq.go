package kb

import (
	"fmt"

	"guardedrules/internal/core"
	"guardedrules/internal/database"
	"guardedrules/internal/hom"
	"guardedrules/internal/parser"
)

// ParseCQ parses a conjunctive query written as a single rule whose head
// is the answer atom:
//
//	R(X,Y), S(Y) -> Ans(X).
//
// The head relation name is ignored; its arguments are the answer
// variables. Negation and existential quantifiers are rejected.
func ParseCQ(src string) (CQ, error) {
	th, err := parser.ParseTheory(src)
	if err != nil {
		return CQ{}, err
	}
	if len(th.Rules) != 1 {
		return CQ{}, fmt.Errorf("kb: a conjunctive query is a single rule, got %d", len(th.Rules))
	}
	r := th.Rules[0]
	if len(r.Exist) > 0 {
		return CQ{}, fmt.Errorf("kb: conjunctive queries have no existential head variables (body variables outside the answer are implicitly existential)")
	}
	if r.HasNegation() {
		return CQ{}, fmt.Errorf("kb: conjunctive queries are negation-free")
	}
	if len(r.Head) != 1 {
		return CQ{}, fmt.Errorf("kb: expected one answer atom")
	}
	q := CQ{Answer: append([]core.Term(nil), r.Head[0].Args...), Atoms: r.PositiveBody()}
	return q, q.Validate()
}

// Freeze builds the canonical database of the query: variables become
// fresh constants ("_v_<name>"), constants stay. It returns the database
// and the frozen answer tuple.
func (q CQ) Freeze() (*database.Database, []core.Term) {
	freeze := func(t core.Term) core.Term {
		if t.IsVar() {
			return core.Const("\x00v_" + t.Name)
		}
		return t
	}
	d := database.New()
	for _, a := range q.Atoms {
		b := a.Clone()
		for i, t := range b.Args {
			b.Args[i] = freeze(t)
		}
		for i, t := range b.Annotation {
			b.Annotation[i] = freeze(t)
		}
		d.Add(b)
	}
	ans := make([]core.Term, len(q.Answer))
	for i, t := range q.Answer {
		ans[i] = freeze(t)
	}
	return d, ans
}

// ContainedIn reports whether q ⊑ q2 — every answer of q is an answer of
// q2 over every database — by the classical homomorphism criterion: q2
// maps into the canonical database of q, sending q2's answer tuple to
// q's frozen answer tuple (the Chandra–Merlin criterion).
func (q CQ) ContainedIn(q2 CQ) (bool, error) {
	if len(q.Answer) != len(q2.Answer) {
		return false, fmt.Errorf("kb: arity mismatch %d vs %d", len(q.Answer), len(q2.Answer))
	}
	if err := q.Validate(); err != nil {
		return false, err
	}
	if err := q2.Validate(); err != nil {
		return false, err
	}
	frozen, ans := q.Freeze()
	atoms, slots := hom.CompileAtoms(q2.Atoms, frozen)
	st := hom.NewState(frozen, len(slots))
	for i, v := range q2.Answer {
		// Validate put every answer variable into q2's atoms, and every
		// frozen answer term into the canonical database.
		s := slots[v]
		id, _ := frozen.TermID(ans[i])
		if st.Bd[s] && st.B[s] != id {
			return false, nil // repeated answer variable must match twice
		}
		st.Bind(s, id)
	}
	return st.Exists(atoms), nil
}

// EquivalentTo reports whether the two queries return the same answers on
// every database.
func (q CQ) EquivalentTo(q2 CQ) (bool, error) {
	a, err := q.ContainedIn(q2)
	if err != nil || !a {
		return false, err
	}
	return q2.ContainedIn(q)
}
