// Package hom implements homomorphism search from sets of atoms into
// databases (Section 2 of the paper): a homomorphism maps variables to
// terms of the database, is the identity on constants, and must preserve
// every atom. It also provides homomorphic-equivalence checks between
// databases, used to compare chase results.
package hom

import (
	"guardedrules/internal/core"
	"guardedrules/internal/database"
)

// DB is the store surface homomorphism search reads: indexed lookup,
// enumeration, planner statistics, and term↔id resolution. The
// canonical implementation is *database.Database; any database.Store
// satisfies it.
type DB interface {
	database.Reader
	database.StatsProvider
	database.Interner
}

var _ DB = (*database.Database)(nil)

// MatchInPlace extends s so that s(pattern) = fact, binding unbound
// variables in place and returning the trail of newly bound variables
// (callers undo the bindings by deleting the trail from s). On mismatch it
// undoes its own bindings and returns ok=false. The relation names are not
// compared; callers match patterns against facts of the same relation key.
func MatchInPlace(pattern, fact core.Atom, s core.Subst) ([]core.Term, bool) {
	var trail []core.Term
	bind := func(p, f core.Term) bool {
		if p.IsVar() {
			if b, bound := s[p]; bound {
				return b == f
			}
			s[p] = f
			trail = append(trail, p)
			return true
		}
		return p == f
	}
	ok := len(pattern.Args) == len(fact.Args) && len(pattern.Annotation) == len(fact.Annotation)
	if ok {
		for i := range pattern.Args {
			if !bind(pattern.Args[i], fact.Args[i]) {
				ok = false
				break
			}
		}
	}
	if ok {
		for i := range pattern.Annotation {
			if !bind(pattern.Annotation[i], fact.Annotation[i]) {
				ok = false
				break
			}
		}
	}
	if !ok {
		for _, v := range trail {
			delete(s, v)
		}
		return nil, false
	}
	return trail, true
}

// IntoAtoms reports whether there is a homomorphism from src into the
// finite atom set dst, where the labeled nulls of src are treated as
// additional variables (constants remain fixed). This is the relation
// written chase(Σ,D) ⊆ chase(Σ',D') in the paper.
func IntoAtoms(src, dst []core.Atom) bool {
	renamed := make([]core.Atom, len(src))
	for i, a := range src {
		renamed[i] = nullsToVars(a)
	}
	db := database.FromAtoms(dst)
	cas, slots := CompileAtoms(renamed, db)
	return NewState(db, len(slots)).Exists(cas)
}

// Equivalent reports whether the two atom sets are homomorphically
// equivalent (nulls treated as variables both ways).
func Equivalent(a, b []core.Atom) bool {
	return IntoAtoms(a, b) && IntoAtoms(b, a)
}

func nullsToVars(a core.Atom) core.Atom {
	out := a.Clone()
	for i, t := range out.Args {
		if t.IsNull() {
			out.Args[i] = nullVar(t)
		}
	}
	for i, t := range out.Annotation {
		if t.IsNull() {
			out.Annotation[i] = nullVar(t)
		}
	}
	return out
}

// nullVar is the placeholder variable standing for null n in a pattern.
func nullVar(n core.Term) core.Term { return core.Var("\x00null:" + n.Name) }
