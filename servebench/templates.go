package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"guardedrules/internal/core"
	"guardedrules/internal/database"
	"guardedrules/internal/gen"
	"guardedrules/internal/parser"
)

// template is one compile_cold theory family member: a theory, the DB
// its op loads, and the CQ it asks — plus the pins recorded on a 2-CPU
// x86 box (see README.md, "Template pinning"). Every op instantiates the
// template with fresh relation names, so the server has never seen the
// source, yet mode, chain lengths and answers stay those pinned here.
type template struct {
	name   string
	family string
	theory func() (*core.Theory, error)
	facts  func() (string, error)
	cq     string

	mode      string // pinned registration mode
	chain     int    // pinned registration chain length
	planChain int    // pinned first-query plan chain length
	answers   int    // pinned answer count
	hash      string // pinned canonical answer hash
}

// testdataDir is the repository's testdata directory (the benchmark runs
// from the repository root; its tests from servebench/).
var testdataDir = "testdata"

func fileTheory(name string) func() (*core.Theory, error) {
	return func() (*core.Theory, error) {
		b, err := os.ReadFile(filepath.Join(testdataDir, name+".rules"))
		if err != nil {
			return nil, err
		}
		return parser.ParseTheory(string(b))
	}
}

func fileFacts(name string) func() (string, error) {
	return func() (string, error) {
		b, err := os.ReadFile(filepath.Join(testdataDir, name+".facts"))
		if err != nil {
			return "", err
		}
		atoms, err := parser.ParseFacts(string(b))
		if err != nil {
			return "", err
		}
		return parser.PrintFacts(atoms), nil
	}
}

func genTheory(th *core.Theory) func() (*core.Theory, error) {
	return func() (*core.Theory, error) { return th, nil }
}

func dbFacts(d *database.Database) func() (string, error) {
	return func() (string, error) {
		var atoms []core.Atom
		for _, rk := range d.Relations() {
			atoms = append(atoms, d.Facts(rk)...)
		}
		return parser.PrintFacts(atoms), nil
	}
}

func literalFacts(src string) func() (string, error) {
	return func() (string, error) { return src, nil }
}

func guardedGen(rules int, seed int64) func() (*core.Theory, error) {
	return genTheory(gen.RandomGuardedTheory(rules, seed))
}

func fgGen(rules int, seed int64) func() (*core.Theory, error) {
	return genTheory(gen.RandomFrontierGuardedTheory(gen.FGTheoryOptions{Rules: rules, Seed: seed}))
}

func wfgGen(rules int, seed int64) func() (*core.Theory, error) {
	return genTheory(gen.RandomWFGTheory(rules, seed))
}

var (
	abFacts = dbFacts(gen.ABDatabase(24, 7))
	jaFacts = literalFacts("A0(c1). A1(c2). B0(c3). R0(c1,c3). B1(c1). A0(c4).")
)

// pinnedTemplates is the compile_cold pool. Each compile and first
// query finishes far inside 1/20 of the server's 30 s compile budget;
// the excluded candidates are listed in README.md with their numbers.
var pinnedTemplates = []template{
	{name: "transitive", family: "datalog", theory: fileTheory("transitive"), facts: fileFacts("transitive"),
		cq: "T(X,Y), T(Y,Z) -> Ans(X,Z).", mode: "datalog", chain: 1, planChain: 1, answers: 3, hash: "df37b93782f60cff"},
	{name: "reachability", family: "stratified datalog", theory: fileTheory("reachability"), facts: fileFacts("reachability"),
		cq: "Unreach(X) -> Ans(X).", mode: "datalog", chain: 1, planChain: 1, answers: 2, hash: "299c442a9b4c9409"},
	{name: "dlsafe", family: "nearly guarded (Thm 3)", theory: fileTheory("dlsafe"), facts: fileFacts("dlsafe"),
		cq: "Connected(X,Y) -> Ans(X,Y).", mode: "translated", chain: 1, planChain: 2, answers: 3, hash: "4ca72d8315bd876d"},
	{name: "example7", family: "guarded (Thm 3)", theory: fileTheory("example7"), facts: fileFacts("example7"),
		cq: "D(X) -> Ans(X).", mode: "translated", chain: 1, planChain: 2, answers: 1, hash: "2e7d2c03a9507ae2"},
	{name: "ancestor", family: "guarded (Thm 3)", theory: fileTheory("ancestor"), facts: fileFacts("ancestor"),
		cq: "Person(X) -> Ans(X).", mode: "translated", chain: 1, planChain: 2, answers: 1, hash: "f7f376a1fcd0d0e1"},
	{name: "guarded-r6-s1", family: "guarded (Thm 3)", theory: guardedGen(6, 1), facts: abFacts,
		cq: "R(X,Y), B(Y) -> Ans(X).", mode: "translated", chain: 1, planChain: 2, answers: 14, hash: "2aecb504b705533b"},
	{name: "guarded-r8-s4", family: "guarded (Thm 3)", theory: guardedGen(8, 4), facts: abFacts,
		cq: "R(X,Y), B(Y) -> Ans(X).", mode: "translated", chain: 1, planChain: 2, answers: 19, hash: "c47be9db121ae1d0"},
	{name: "janotwa-2", family: "guarded (Thm 3)", theory: genTheory(gen.JANotWATheory(2)), facts: jaFacts,
		cq: "R0(X,Y) -> Ans(X,Y).", mode: "translated", chain: 1, planChain: 2, answers: 1, hash: "5e87aaf7927d84cc"},
	{name: "swanotja-2", family: "guarded (Thm 3)", theory: genTheory(gen.SWANotJATheory(2)), facts: jaFacts,
		cq: "A0(X) -> Ans(X).", mode: "translated", chain: 1, planChain: 2, answers: 2, hash: "c18bee14bf889035"},
	{name: "fg-r4-s2", family: "frontier-guarded (Thm 1 -> Thm 3)", theory: fgGen(4, 2), facts: abFacts,
		cq: "R(X,Y), B(Y) -> Ans(X).", mode: "translated", chain: 2, planChain: 3, answers: 1, hash: "f28d5b0d6f8be0da"},
	{name: "fg-r5-s3", family: "frontier-guarded (Thm 1 -> Thm 3)", theory: fgGen(5, 3), facts: abFacts,
		cq: "R(X,Y), B(Y) -> Ans(X).", mode: "translated", chain: 2, planChain: 3, answers: 4, hash: "050505a59f31c531"},
	{name: "fg-r6-s3", family: "frontier-guarded (Thm 1 -> Thm 3)", theory: fgGen(6, 3), facts: abFacts,
		cq: "R(X,Y), B(Y) -> Ans(X).", mode: "translated", chain: 2, planChain: 3, answers: 4, hash: "050505a59f31c531"},
	{name: "wguarded", family: "weakly frontier-guarded, certified chase", theory: fileTheory("wguarded"), facts: fileFacts("wguarded"),
		cq: "Out(X,Z) -> Ans(X,Z).", mode: "certified", chain: 2, planChain: 2, answers: 1, hash: "f04cdced9736a69d"},
	{name: "wfg-r4-s1", family: "weakly frontier-guarded, certified chase", theory: wfgGen(4, 1), facts: abFacts,
		cq: "C(X) -> Ans(X).", mode: "certified", chain: 2, planChain: 2, answers: 2, hash: "3b2b0e891d0e6b3c"},
	{name: "wfg-r6-s2", family: "weakly frontier-guarded, certified chase", theory: wfgGen(6, 2), facts: abFacts,
		cq: "C(X) -> Ans(X).", mode: "certified", chain: 2, planChain: 2, answers: 2, hash: "3b2b0e891d0e6b3c"},
}

// excludedTemplates are candidates measured for the pool and left out;
// -pin re-measures them next to the pool.
var excludedTemplates = []template{
	{name: "publication", family: "Example 1 (frontier-guarded)", theory: fileTheory("publication"), facts: fileFacts("publication"), cq: "Q(X) -> Ans(X)."},
	{name: "fg-r5-s2", family: "frontier-guarded", theory: fgGen(5, 2), facts: abFacts, cq: "R(X,Y), B(Y) -> Ans(X)."},
	{name: "fg-r6-s2", family: "frontier-guarded", theory: fgGen(6, 2), facts: abFacts, cq: "R(X,Y), B(Y) -> Ans(X)."},
	{name: "fg-r8-s2", family: "frontier-guarded", theory: fgGen(8, 2), facts: abFacts, cq: "R(X,Y), B(Y) -> Ans(X)."},
	{name: "fg-r10-s6", family: "frontier-guarded", theory: fgGen(10, 6), facts: abFacts, cq: "R(X,Y), B(Y) -> Ans(X)."},
}

// instance is one template instantiated with fresh relation names: the
// exact texts the server receives.
type instance struct {
	tpl    *template
	theory string
	facts  string
	cq     string
}

// instantiate renames every relation of the template (theory, facts,
// query) by appending suffix. Renaming is a bijection on relation
// names, so mode, chains and answers are those of the template; the
// source text, its hash and the DB id are new.
func instantiate(t *template, suffix string) (instance, error) {
	b, err := loadTemplate(t)
	if err != nil {
		return instance{}, err
	}
	th, q := b.theory, b.cq
	atoms := make([]core.Atom, len(b.facts))
	for i, a := range b.facts {
		atoms[i] = renameAtom(a, suffix)
	}
	return instance{
		tpl:    t,
		theory: parser.PrintTheory(renameTheory(th, suffix)),
		facts:  parser.PrintFacts(atoms),
		cq:     parser.PrintTheory(renameTheory(q, suffix)),
	}, nil
}

// parsedTemplate is a template's parsed base, loaded once per process.
type parsedTemplate struct {
	theory, cq *core.Theory
	facts      []core.Atom
}

var (
	parsedMu sync.Mutex
	parsed   = map[string]*parsedTemplate{}
)

func loadTemplate(t *template) (*parsedTemplate, error) {
	parsedMu.Lock()
	defer parsedMu.Unlock()
	if b, ok := parsed[t.name]; ok {
		return b, nil
	}
	th, err := t.theory()
	if err != nil {
		return nil, fmt.Errorf("template %s: %w", t.name, err)
	}
	facts, err := t.facts()
	if err != nil {
		return nil, fmt.Errorf("template %s: %w", t.name, err)
	}
	atoms, err := parser.ParseFacts(facts)
	if err != nil {
		return nil, fmt.Errorf("template %s facts: %w", t.name, err)
	}
	q, err := parser.ParseTheory(t.cq)
	if err != nil {
		return nil, fmt.Errorf("template %s cq: %w", t.name, err)
	}
	b := &parsedTemplate{theory: th, cq: q, facts: atoms}
	parsed[t.name] = b
	return b, nil
}

func renameAtom(a core.Atom, suffix string) core.Atom {
	if a.Relation != core.ACDom {
		a.Relation += suffix
	}
	return a
}

func renameTheory(th *core.Theory, suffix string) *core.Theory {
	out := core.NewTheory()
	for _, r := range th.Rules {
		c := &core.Rule{Exist: r.Exist, Label: r.Label}
		for _, l := range r.Body {
			c.Body = append(c.Body, core.Literal{Atom: renameAtom(l.Atom, suffix), Negated: l.Negated})
		}
		for _, h := range r.Head {
			c.Head = append(c.Head, renameAtom(h, suffix))
		}
		out.Add(c)
	}
	return out
}

// freshSuffix names the relations of op i of a run: unique per seed,
// workload lane and op.
func freshSuffix(seed int64, lane string, i int) string {
	return fmt.Sprintf("_%s%dx%d", lane, seed, i)
}
