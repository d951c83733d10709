package hom

import (
	"guardedrules/internal/budget"
	"guardedrules/internal/core"
	"guardedrules/internal/database"
)

// CoreOptions bounds a core computation.
type CoreOptions struct {
	// MaxCandidates bounds the number of endomorphisms inspected per
	// reduction round (0 means 100,000). Hitting it makes the result
	// inexact but stays error-free: the search was bounded, not aborted.
	MaxCandidates int
	// Budget, when non-nil, governs the search like every other engine:
	// cancellation and deadline are polled between candidate
	// endomorphisms, MaxSteps caps total candidates inspected across all
	// rounds, and exhaustion returns the (sound) current set with
	// exact=false and a typed *budget.Error.
	Budget *budget.T
}

// Core computes the core of the atom set: a homomorphically equivalent
// subset admitting no proper endomorphism. Constants are fixed, labeled
// nulls are mappable. The chase is unique up to homomorphic equivalence,
// so cores give canonical representatives of chase results — the oblivious
// and restricted chase of a terminating theory have the same core.
//
// Core search is NP-hard in general; maxCandidates bounds the number of
// endomorphisms inspected per round (0 means 100,000). When the budget is
// hit, the (sound) current set is returned with exact=false.
func Core(atoms []core.Atom, maxCandidates int) (result []core.Atom, exact bool) {
	result, exact, _ = CoreOpts(atoms, CoreOptions{MaxCandidates: maxCandidates})
	return result, exact
}

// corePollInterval is how many candidate endomorphisms are inspected
// between cancellation polls.
const corePollInterval = 64

// CoreOpts is Core under explicit options: a governed, cancellable core
// computation. Every return value is a sound representative (a superset
// of some core of the input, homomorphically equivalent to it); exact
// reports whether the endomorphism search ran to completion. On budget
// exhaustion the current set is returned with exact=false and a typed
// *budget.Error.
func CoreOpts(atoms []core.Atom, opts CoreOptions) (result []core.Atom, exact bool, err error) {
	maxCandidates := opts.MaxCandidates
	if maxCandidates <= 0 {
		maxCandidates = 100_000
	}
	tk := budget.Start(opts.Budget)
	defer tk.Stop()
	maxSteps := 0
	if opts.Budget != nil {
		maxSteps = opts.Budget.MaxSteps
	}
	cur := dedup(atoms)
	for {
		// Round checkpoint: a canceled or expired search returns the
		// current (sound) set.
		if cerr := tk.Check(); cerr != nil {
			return cur, false, cerr
		}
		if maxSteps > 0 && tk.Usage().Steps >= maxSteps {
			return cur, false, tk.Exhausted(budget.ErrStepLimit)
		}
		// A step ceiling tightens the per-round candidate cap so the run
		// never inspects candidates past the budget.
		roundCap := maxCandidates
		if maxSteps > 0 {
			if rem := maxSteps - tk.Usage().Steps; rem < roundCap {
				roundCap = rem
			}
		}
		h, found, complete := reducingEndo(cur, roundCap, tk)
		if tk.Canceled() {
			return cur, false, tk.Check()
		}
		if !found {
			if !complete && maxSteps > 0 && tk.Usage().Steps >= maxSteps {
				return cur, false, tk.Exhausted(budget.ErrStepLimit)
			}
			return cur, complete, nil
		}
		// Stabilize h: composing an endomorphism with itself |nulls| times
		// yields a retraction (idempotent on its image).
		stable := h
		for i := 0; i < len(nullsOf(cur)); i++ {
			stable = stable.Compose(stable)
		}
		var next []core.Atom
		for _, a := range cur {
			next = append(next, applyToNulls(stable, a))
		}
		next = dedup(next)
		if len(nullsOf(next)) >= len(nullsOf(cur)) && len(next) >= len(cur) {
			// No progress (should not happen for a reducing endo).
			return cur, true, nil
		}
		cur = next
	}
}

// IsCore reports whether the atom set admits no proper endomorphism
// (within the candidate budget).
func IsCore(atoms []core.Atom, maxCandidates int) bool {
	if maxCandidates <= 0 {
		maxCandidates = 100_000
	}
	_, found, _ := reducingEndo(dedup(atoms), maxCandidates, nil)
	return !found
}

// reducingEndo searches for an endomorphism that is non-injective on the
// nulls or maps a null to a constant — exactly the endomorphisms whose
// stabilization drops a null. It reports whether the search space was
// exhausted. A non-nil tracker is polled every corePollInterval
// candidates (aborting the enumeration on cancellation) and counts every
// candidate as a step.
func reducingEndo(atoms []core.Atom, maxCandidates int, tk *budget.Tracker) (core.Subst, bool, bool) {
	nulls := nullsOf(atoms)
	if len(nulls) == 0 {
		return nil, false, true
	}
	pattern := make([]core.Atom, len(atoms))
	for i, a := range atoms {
		pattern[i] = nullsToVars(a)
	}
	db := database.FromAtoms(atoms)
	cas, slots := CompileAtoms(pattern, db)
	st := NewState(db, len(slots))
	// Every null occurs in the pattern, so each has a slot, bound at
	// every complete match.
	nullSlots := make([]int, len(nulls))
	for i, n := range nulls {
		nullSlots[i] = slots[nullVar(n)]
	}
	var out core.Subst
	tried := 0
	complete := st.ForEach(cas, func() bool {
		tried++
		tk.AddSteps(1)
		if tried%corePollInterval == 0 && tk.Canceled() {
			return false // abort; CoreOpts observes the cancellation
		}
		image := make(map[uint32]bool, len(nulls))
		reducing := false
		for _, s := range nullSlots {
			id := st.B[s]
			if db.Term(id).IsConst() || image[id] {
				reducing = true
				break
			}
			image[id] = true
		}
		if reducing {
			// Re-key the match from placeholder slots back to the nulls.
			out = core.Subst{}
			for i, n := range nulls {
				out[n] = db.Term(st.B[nullSlots[i]])
			}
			return false
		}
		return tried < maxCandidates
	})
	return out, out != nil, complete || out != nil
}

// applyToNulls applies a null-keyed substitution to the atom.
func applyToNulls(s core.Subst, a core.Atom) core.Atom {
	out := a.Clone()
	for i, t := range out.Args {
		if t.IsNull() {
			if v, ok := s[t]; ok {
				out.Args[i] = v
			}
		}
	}
	for i, t := range out.Annotation {
		if t.IsNull() {
			if v, ok := s[t]; ok {
				out.Annotation[i] = v
			}
		}
	}
	return out
}

func nullsOf(atoms []core.Atom) []core.Term {
	s := make(core.TermSet)
	for _, a := range atoms {
		for _, t := range a.Args {
			if t.IsNull() {
				s.Add(t)
			}
		}
		for _, t := range a.Annotation {
			if t.IsNull() {
				s.Add(t)
			}
		}
	}
	return s.Sorted()
}

func dedup(atoms []core.Atom) []core.Atom {
	var out []core.Atom
	for _, a := range atoms {
		if !core.ContainsAtom(out, a) {
			out = append(out, a)
		}
	}
	return out
}
