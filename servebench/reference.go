package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"guardedrules/internal/chase"
	"guardedrules/internal/classify"
	"guardedrules/internal/core"
	"guardedrules/internal/database"
	"guardedrules/internal/datalog"
	"guardedrules/internal/kb"
	"guardedrules/internal/normalize"
	"guardedrules/internal/parser"
	"guardedrules/internal/rewrite"
	"guardedrules/internal/saturate"
	"guardedrules/internal/termination"
)

// References are computed in the benchmark process, never by the
// server under test: every engine call here runs from scratch with
// Workers=1, with no plan cache, no maintained fixpoint and no snapshot
// reuse.

// answerSet is the canonical form of an answer: row count plus a hash
// of the sorted rows.
type answerSet struct {
	N    int
	Hash string
}

func canonical(rows [][]string) answerSet {
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = strings.Join(r, "\x1f")
	}
	sort.Strings(keys)
	sum := sha256.Sum256([]byte(strings.Join(keys, "\x1e")))
	return answerSet{N: len(rows), Hash: hex.EncodeToString(sum[:8])}
}

func termRows(tuples [][]core.Term) [][]string {
	out := make([][]string, len(tuples))
	for i, t := range tuples {
		row := make([]string, len(t))
		for j, x := range t {
			row[j] = x.String()
		}
		out[i] = row
	}
	return out
}

// hotRef answers hot-theory queries from the ground fixpoint of dat(Σ).
// That is exact for the benchmark's query shapes because none of their
// relations has an affected position (no null can occur there), so
// their certain answers are the query's matches in the ground part of
// the chase, which dat(Σ) preserves (Theorem 3). newHotRef checks that
// condition instead of assuming it.
type hotRef struct {
	dat *core.Theory
}

func newHotRef() (*hotRef, error) {
	th, err := parser.ParseTheory(hotTheory)
	if err != nil {
		return nil, err
	}
	affected := classify.AffectedPositions(th)
	var shapes []string
	shapes = append(shapes, hotCQs...)
	shapes = append(shapes, liveReadCQs...)
	for _, src := range shapes {
		q, err := kb.ParseCQ(src)
		if err != nil {
			return nil, err
		}
		for _, a := range q.Atoms {
			for i := range a.Args {
				if affected[classify.Position{Rel: a.Key(), Index: i}] {
					return nil, fmt.Errorf("reference: %s touches affected position %s[%d]", src, a.Relation, i)
				}
			}
		}
	}
	if affected[classify.Position{Rel: core.RelKey{Name: "T", Arity: 2}, Index: 1}] {
		return nil, fmt.Errorf("reference: atom queries touch an affected position of T")
	}
	dat, _, err := saturate.NearlyGuardedToDatalog(th, saturate.Options{})
	if err != nil {
		return nil, err
	}
	return &hotRef{dat: dat}, nil
}

// fixpoint evaluates dat(Σ) over the facts from scratch.
func (r *hotRef) fixpoint(facts string) (*database.Database, error) {
	atoms, err := parser.ParseFacts(facts)
	if err != nil {
		return nil, err
	}
	return datalog.EvalSemiNaiveOpts(r.dat, database.FromAtoms(atoms), datalog.Options{Workers: 1})
}

// cq answers a conjunctive query over a ground fixpoint by a plain
// backtracking join — an evaluator independent of the engines'.
func cqAnswers(d *database.Database, src string) ([][]string, error) {
	q, err := kb.ParseCQ(src)
	if err != nil {
		return nil, err
	}
	var out [][]string
	seen := map[string]bool{}
	bind := map[string]core.Term{}
	var rec func(i int)
	rec = func(i int) {
		if i == len(q.Atoms) {
			row := make([]string, len(q.Answer))
			for j, t := range q.Answer {
				if t.IsVar() {
					row[j] = bind[t.Name].String()
				} else {
					row[j] = t.String()
				}
			}
			if k := strings.Join(row, "\x1f"); !seen[k] {
				seen[k] = true
				out = append(out, row)
			}
			return
		}
		a := q.Atoms[i]
		for _, f := range d.Facts(a.Key()) {
			var bound []string
			ok := true
			for j, t := range a.Args {
				v := f.Args[j]
				if !t.IsVar() {
					ok = t == v
				} else if b, has := bind[t.Name]; has {
					ok = b == v
				} else {
					bind[t.Name] = v
					bound = append(bound, t.Name)
				}
				if !ok {
					break
				}
			}
			if ok {
				rec(i + 1)
			}
			for _, n := range bound {
				delete(bind, n)
			}
		}
	}
	rec(0)
	return out, nil
}

// atomAnswers answers an atomic query (constants bound) over a ground
// fixpoint, returning full argument tuples like the server.
func atomAnswers(d *database.Database, src string) ([][]string, error) {
	q, err := parseAtom(src)
	if err != nil {
		return nil, err
	}
	var out [][]string
	for _, f := range d.Facts(q.Key()) {
		match := true
		for i, t := range q.Args {
			if !t.IsVar() && t != f.Args[i] {
				match = false
				break
			}
		}
		if match {
			out = append(out, termRows([][]core.Term{f.Args})[0])
		}
	}
	return out, nil
}

// parseAtom parses an atomic query the way the server does.
func parseAtom(src string) (core.Atom, error) {
	th, err := parser.ParseTheory(src + " -> QueryDummy__().")
	if err != nil {
		return core.Atom{}, err
	}
	body := th.Rules[0].PositiveBody()
	if len(body) != 1 {
		return core.Atom{}, fmt.Errorf("query atom must be a single atom")
	}
	return body[0], nil
}

// hotAnswers answers one read_hot request over a fixpoint.
func hotAnswers(fix *database.Database, q hotQuery) (answerSet, error) {
	var rows [][]string
	var err error
	if q.cq >= 0 {
		rows, err = cqAnswers(fix, hotCQs[q.cq])
	} else {
		rows, err = atomAnswers(fix, q.atom)
	}
	return canonical(rows), err
}

// templateAnswers computes a template instance's answers from scratch
// (see answerFromScratch).
func templateAnswers(inst instance) (answerSet, error) {
	th, err := parser.ParseTheory(inst.theory)
	if err != nil {
		return answerSet{}, err
	}
	q, err := kb.ParseCQ(inst.cq)
	if err != nil {
		return answerSet{}, err
	}
	atoms, err := parser.ParseFacts(inst.facts)
	if err != nil {
		return answerSet{}, err
	}
	tuples, err := answerFromScratch(newTracer(false), th, q, database.FromAtoms(atoms))
	if err != nil {
		return answerSet{}, fmt.Errorf("template %s reference: %w", inst.tpl.name, err)
	}
	return canonical(termRows(tuples)), nil
}

// answerFromScratch answers q over d under th with Workers=1: Σ∪q goes
// down the chain translate picks and is evaluated, or, when no chain
// applies, is chased to saturation under a termination certificate.
// Each step is timed on tr; references pass an off tracer.
func answerFromScratch(tr *tracer, th *core.Theory, q kb.CQ, d *database.Database) ([][]core.Term, error) {
	const tag = "(Σ∪q)"
	var att *core.Theory
	var err error
	tr.do("kb.Attach", func() { att, err = kb.Attach(th, q) })
	if err != nil {
		return nil, err
	}
	dat, err := translate(tr, att, tag)
	if err != nil {
		return nil, err
	}
	if dat == nil {
		var certified bool
		tr.do("termination.Analyze"+tag, func() { certified = termination.Analyze(att).Class.Terminating() })
		if !certified {
			return nil, fmt.Errorf("no exact reference path")
		}
		var res *chase.Result
		tr.do("chase.RunCertified", func() {
			res, err = chase.RunCertified(att, d, 0, chase.Options{Workers: 1, Variant: chase.Restricted})
		})
		if err != nil {
			return nil, err
		}
		tr.count("chase_runs", 1)
		tr.count("chase_facts", float64(res.DB.Len()))
		return datalog.CollectAnswers(res.DB, kb.QueryRel), nil
	}
	var prog *datalog.Program
	tr.do("datalog.Compile"+tag, func() { prog, err = datalog.Compile(dat) })
	if err != nil {
		return nil, err
	}
	var fix *database.Database
	tr.do("Program.Eval"+tag, func() { fix, err = prog.Eval(d, datalog.Options{Workers: 1}) })
	if err != nil {
		return nil, err
	}
	return datalog.CollectAnswers(fix, kb.QueryRel), nil
}

// translate is the fragment switch, timing each step on tr under tag:
// Datalog stays as it is, nearly guarded goes to dat(Σ) (Theorem 3),
// nearly frontier-guarded to dat(rew(Σ)) (Theorem 1, then 3). It
// returns nil when no translation applies, which leaves a certified
// chase.
func translate(tr *tracer, th *core.Theory, tag string) (*core.Theory, error) {
	var rep *classify.Report
	tr.do("classify.Classify"+tag, func() { rep = classify.Classify(th) })
	var dat *core.Theory
	var err error
	switch {
	case rep.Member[classify.Datalog]:
		return th, nil
	case !th.HasNegation() && rep.Member[classify.NearlyGuarded]:
		tr.do("saturate.NearlyGuardedToDatalog"+tag, func() { dat, _, err = saturate.NearlyGuardedToDatalog(th, saturate.Options{}) })
	case !th.HasNegation() && rep.Member[classify.NearlyFrontierGuarded]:
		var ng *core.Theory
		tr.do("rewrite.Rewrite"+tag, func() { ng, _, err = rewrite.Rewrite(normalize.Normalize(th), rewrite.Options{}) })
		if err != nil {
			return nil, err
		}
		tr.count("rewrite_rules"+tag, float64(len(ng.Rules)))
		tr.count("rewrites"+tag, 1)
		tr.do("saturate.NearlyGuardedToDatalog"+tag, func() { dat, _, err = saturate.NearlyGuardedToDatalog(ng, saturate.Options{}) })
	default:
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	tr.count("dat_rules"+tag, float64(len(dat.Rules)))
	tr.count("dats"+tag, 1)
	return dat, nil
}
