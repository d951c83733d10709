// Package datalog implements bottom-up evaluation of Datalog programs
// (existential-free theories) with stratified negation: stratification via
// the predicate dependency graph, and per-stratum semi-naive fixpoints.
package datalog

import (
	"fmt"
	"sort"

	"guardedrules/internal/budget"
	"guardedrules/internal/chase"
	"guardedrules/internal/core"
	"guardedrules/internal/database"
)

// Stratify partitions the rules into strata Σ1,...,Σn (Definition 22): a
// rule is placed in the stratum of its head relations, head levels are ≥
// body levels for positive dependencies and strictly greater for negative
// ones. It returns an error when no stratification exists (a negative
// cycle) or when a rule has existential variables.
// Existential rules are allowed (Section 8 stratifies existential
// theories); stratification only concerns relation dependencies.
func Stratify(th *core.Theory) ([][]*core.Rule, error) {
	// Collect relations and dependency edges.
	type edge struct {
		from, to string
		negative bool
	}
	var edges []edge
	rels := make(map[string]bool)
	readsACDom := false
	for _, r := range th.Rules {
		for _, h := range r.Head {
			rels[h.Relation] = true
			for _, l := range r.Body {
				rels[l.Atom.Relation] = true
				edges = append(edges, edge{l.Atom.Relation, h.Relation, l.Negated})
				if l.Atom.Relation == core.ACDom {
					readsACDom = true
				}
			}
		}
	}
	// The built-in ACDom relation is maintained by the database: deriving
	// a fact with a fresh constant implicitly derives an ACDom fact. Head
	// variables are bound to terms of existing facts (already in the
	// domain) and existential variables become nulls (never in ACDom), so
	// fresh domain constants can only come from constants written in rule
	// heads that no positive body atom mentions. Such heads carry an
	// implicit positive dependency edge to ACDom — without it, an
	// ACDom-reading rule could be stratified below a rule introducing a
	// new head constant and miss its derivations.
	if readsACDom {
		for _, r := range th.Rules {
			if !introducesConstants(r) {
				continue
			}
			rels[core.ACDom] = true
			for _, h := range r.Head {
				if h.Relation != core.ACDom {
					edges = append(edges, edge{h.Relation, core.ACDom, false})
				}
			}
		}
	}
	// Level assignment by iterated relaxation; n·|edges| passes suffice,
	// and a level exceeding the relation count certifies a negative cycle.
	level := make(map[string]int)
	n := len(rels)
	for changed, iter := true, 0; changed; iter++ {
		changed = false
		if iter > n*n+len(edges)+1 {
			return nil, fmt.Errorf("datalog: theory is not stratified (negation through recursion)")
		}
		for _, e := range edges {
			need := level[e.from]
			if e.negative {
				need++
			}
			if level[e.to] < need {
				if need > n {
					return nil, fmt.Errorf("datalog: theory is not stratified (negation through recursion involving %s)", e.to)
				}
				level[e.to] = need
				changed = true
			}
		}
	}
	// Group rules by the level of their head relations. Multi-head rules
	// must have all heads on one level; normalization guarantees this for
	// the paper's constructions, but mixed heads are handled by taking the
	// maximum (sound because levels only order evaluation).
	maxLevel := 0
	for _, l := range level {
		if l > maxLevel {
			maxLevel = l
		}
	}
	strata := make([][]*core.Rule, maxLevel+1)
	for _, r := range th.Rules {
		l := 0
		for _, h := range r.Head {
			if level[h.Relation] > l {
				l = level[h.Relation]
			}
		}
		strata[l] = append(strata[l], r)
	}
	// Drop empty strata.
	var out [][]*core.Rule
	for _, s := range strata {
		if len(s) > 0 {
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		out = [][]*core.Rule{{}}
	}
	return out, nil
}

// introducesConstants reports whether firing the rule can put a constant
// into the active domain that was not there before: some head atom writes
// a constant that no positive body atom mentions (a match of the positive
// body witnesses that its constants already occur in facts).
func introducesConstants(r *core.Rule) bool {
	bodyConsts := make(core.TermSet)
	for _, l := range r.Body {
		if l.Negated {
			continue
		}
		for _, t := range l.Atom.Args {
			if t.IsConst() {
				bodyConsts.Add(t)
			}
		}
		for _, t := range l.Atom.Annotation {
			if t.IsConst() {
				bodyConsts.Add(t)
			}
		}
	}
	for _, h := range r.Head {
		for _, t := range h.Args {
			if t.IsConst() && !bodyConsts.Has(t) {
				return true
			}
		}
		for _, t := range h.Annotation {
			if t.IsConst() && !bodyConsts.Has(t) {
				return true
			}
		}
	}
	return false
}

// IsSemipositive reports whether every negated atom refers to a relation
// that never occurs in a head (negation on input relations only).
func IsSemipositive(th *core.Theory) bool {
	heads := make(map[string]bool)
	for _, r := range th.Rules {
		for _, h := range r.Head {
			heads[h.Relation] = true
		}
	}
	for _, r := range th.Rules {
		for _, l := range r.Body {
			if l.Negated && heads[l.Atom.Relation] {
				return false
			}
		}
	}
	return true
}

// Eval computes the stratified fixpoint of a Datalog program over the
// database, using the native semi-naive evaluator. Rules must have no
// existential variables.
func Eval(th *core.Theory, d database.Store) (*database.Database, error) {
	return EvalSemiNaive(th, d)
}

// EvalViaChase computes the same fixpoint through the generic chase
// engine. It exists for the ablation benchmarks: the chase keeps a
// trigger memo that Datalog does not need, so EvalSemiNaive dominates it.
func EvalViaChase(th *core.Theory, d database.Store) (*database.Database, error) {
	for _, r := range th.Rules {
		if !r.IsDatalog() {
			return nil, fmt.Errorf("datalog: rule %s has existential variables", r.Label)
		}
	}
	strata, err := Stratify(th)
	if err != nil {
		return nil, err
	}
	cur := d.Clone()
	for i, rules := range strata {
		res, err := chase.Run(core.NewTheory(rules...), cur, chase.Options{
			Variant:   chase.Restricted,
			MaxRounds: 1_000_000,
			MaxFacts:  50_000_000,
		})
		if err != nil {
			return nil, fmt.Errorf("datalog: stratum %d: %w", i, err)
		}
		if !res.Saturated {
			return nil, fmt.Errorf("datalog: stratum %d did not saturate", i)
		}
		cur = res.DB
	}
	return cur, nil
}

// Answers evaluates the query (Σ, Q) over D (Section 2): the set of
// constant tuples ~c with Q(~c) in the fixpoint. Tuples are returned in
// sorted textual order.
func Answers(th *core.Theory, q string, d database.Store) ([][]core.Term, error) {
	return AnswersOpts(th, q, d, Options{})
}

// AnswersOpts is Answers with explicit engine options. On budget
// exhaustion the answers of the partial fixpoint are returned (a sound
// under-approximation) alongside the typed error.
func AnswersOpts(th *core.Theory, q string, d database.Store, opts Options) ([][]core.Term, error) {
	fix, err := EvalSemiNaiveOpts(th, d, opts)
	if err != nil {
		if fix != nil && budget.IsBudget(err) {
			return CollectAnswers(fix, q), err
		}
		return nil, err
	}
	return CollectAnswers(fix, q), nil
}

// CollectAnswers extracts the all-constant Q-tuples of a database.
func CollectAnswers(d database.Store, q string) [][]core.Term {
	var out [][]core.Term
	for _, rk := range d.Relations() {
		if rk.Name != q {
			continue
		}
		for _, a := range d.Facts(rk) {
			allConst := true
			for _, t := range a.Args {
				if !t.IsConst() {
					allConst = false
					break
				}
			}
			if allConst {
				out = append(out, append([]core.Term(nil), a.Args...))
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return tupleLess(out[i], out[j]) })
	return out
}

// tupleLess orders tuples lexicographically by (Name, Kind) per
// position, shorter tuples first on a common prefix.
func tupleLess(a, b []core.Term) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i].Name != b[i].Name {
			return a[i].Name < b[i].Name
		}
		if a[i].Kind != b[i].Kind {
			return a[i].Kind < b[i].Kind
		}
	}
	return len(a) < len(b)
}

// SameAnswers reports whether two answer sets are equal, and a witness
// difference if not. Tuples compare structurally, term by term on kind
// and name, so no two distinct tuples can collide.
func SameAnswers(a, b [][]core.Term) (bool, string) {
	a, b = sortedSet(a), sortedSet(b)
	for i, j := 0, 0; i < len(a) || j < len(b); i, j = i+1, j+1 {
		switch {
		case j == len(b) || i < len(a) && tupleLess(a[i], b[j]):
			return false, fmt.Sprintf("only in first: %v", a[i])
		case i == len(a) || tupleLess(b[j], a[i]):
			return false, fmt.Sprintf("only in second: %v", b[j])
		}
	}
	return true, ""
}

// sortedSet returns the distinct tuples of ts in tupleLess order.
func sortedSet(ts [][]core.Term) [][]core.Term {
	out := append([][]core.Term(nil), ts...)
	sort.Slice(out, func(i, j int) bool { return tupleLess(out[i], out[j]) })
	n := 0
	for _, t := range out {
		if n == 0 || tupleLess(out[n-1], t) {
			out[n] = t
			n++
		}
	}
	return out[:n]
}
