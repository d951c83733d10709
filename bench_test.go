package guardedrules

// One benchmark per experiment of DESIGN.md (E1–E12), each regenerating
// the corresponding table/figure artifact of the paper at benchmark
// scale. Run with: go test -bench=. -benchmem
//
// Absolute numbers are this implementation's; the paper proves the
// translations' correctness and complexity, and the shapes to check are:
// answer preservation on every instance, at most single-exponential
// expansion for rew, potentially double-exponential saturation for dat,
// polynomial evaluation for the Datalog-expressible fragments, and
// super-polynomial growth of the Σsucc ordering forest.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"guardedrules/internal/annotate"
	"guardedrules/internal/capture"
	"guardedrules/internal/chase"
	"guardedrules/internal/classify"
	"guardedrules/internal/core"
	"guardedrules/internal/database"
	"guardedrules/internal/datalog"
	"guardedrules/internal/gen"
	"guardedrules/internal/hom"
	"guardedrules/internal/kb"
	"guardedrules/internal/normalize"
	"guardedrules/internal/parser"
	"guardedrules/internal/rewrite"
	"guardedrules/internal/saturate"
	"guardedrules/internal/stratified"
	"guardedrules/internal/termination"
	"guardedrules/internal/tm"
)

const sigmaPBench = `
Publication(X) -> exists K1,K2. Keywords(X,K1,K2).
Keywords(X,K1,K2) -> hasTopic(X,K1).
hasTopic(X,Z), hasAuthor(X,U), hasAuthor(Y,U),
  hasTopic(Y,Z2), Scientific(Z2), citedIn(Y,X) -> Scientific(Z).
hasAuthor(X,Y), hasTopic(X,Z), Scientific(Z) -> Q(Y).
`

const exampleSevenBench = `
A(X) -> exists Y. R(X,Y).
R(X,Y) -> S(Y,Y).
S(X,Y) -> exists Z. T(X,Y,Z).
T(X,X,Y) -> B(X).
C(X), R(X,Y), B(Y) -> D(X).
`

// BenchmarkE1FrontierGuardedToNearlyGuarded measures the Theorem 1
// translation of Σp (the expansion is database-independent).
func BenchmarkE1FrontierGuardedToNearlyGuarded(b *testing.B) {
	th := normalize.Normalize(parser.MustParseTheory(sigmaPBench))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rew, _, err := rewrite.Rewrite(th.Clone(), rewrite.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if !classify.Classify(rew).Member[classify.NearlyGuarded] {
			b.Fatal("not nearly guarded")
		}
	}
}

// BenchmarkE1AnswerPreservation chases Σp and rew(Σp) on citation graphs.
func BenchmarkE1AnswerPreservation(b *testing.B) {
	orig := parser.MustParseTheory(sigmaPBench)
	rew, _, err := rewrite.Rewrite(normalize.Normalize(orig), rewrite.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			d := gen.CitationGraph(n)
			for i := 0; i < b.N; i++ {
				r1, err := chase.Run(orig, d, chase.Options{Variant: chase.Restricted, MaxDepth: 6, MaxFacts: 2_000_000})
				if err != nil {
					b.Fatal(err)
				}
				r2, err := chase.Run(rew, d, chase.Options{Variant: chase.Restricted, MaxDepth: 6, MaxFacts: 2_000_000})
				if err != nil {
					b.Fatal(err)
				}
				a1 := datalog.CollectAnswers(r1.DB, "Q")
				a2 := datalog.CollectAnswers(r2.DB, "Q")
				if ok, diff := datalog.SameAnswers(a1, a2); !ok {
					b.Fatal(diff)
				}
			}
		})
	}
}

// BenchmarkE2NearlyFrontierGuarded exercises the Definition 14
// passthrough: existential core plus transitive-closure periphery.
func BenchmarkE2NearlyFrontierGuarded(b *testing.B) {
	th := normalize.Normalize(parser.MustParseTheory(`
		A(X) -> exists Y. R(X,Y).
		E(X,Y) -> T(X,Y).
		T(X,Y), T(Y,Z) -> T(X,Z).
	`))
	rew, _, err := rewrite.Rewrite(th, rewrite.Options{})
	if err != nil {
		b.Fatal(err)
	}
	d := gen.Path(32)
	for i := 0; i < 32; i++ {
		d.Add(core.NewAtom("A", core.Const(fmt.Sprintf("v%d", i))))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := chase.Run(rew, d, chase.Options{Variant: chase.Restricted, MaxDepth: 3, MaxFacts: 2_000_000})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Entails(core.NewAtom("T", core.Const("v0"), core.Const("v31"))) {
			b.Fatal("transitive closure lost")
		}
	}
}

// BenchmarkE3WeaklyFrontierGuarded measures the Theorem 2 translation and
// its evaluation.
func BenchmarkE3WeaklyFrontierGuarded(b *testing.B) {
	th := parser.MustParseTheory(`
		A(X) -> exists Y. R(Y,X).
		R(Y,X), B(X) -> S(Y).
		R(Y,X), S(Y) -> Hit(X).
	`)
	b.Run("translate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := annotate.RewriteWFG(th, rewrite.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	res, err := annotate.RewriteWFG(th, rewrite.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("evaluate", func(b *testing.B) {
		d := database.New()
		for i := 0; i < 16; i++ {
			c := core.Const(fmt.Sprintf("c%d", i))
			d.Add(core.NewAtom("A", c))
			if i%2 == 0 {
				d.Add(core.NewAtom("B", c))
			}
		}
		dRe := res.Reorder.Database(d)
		for i := 0; i < b.N; i++ {
			r, err := chase.Run(res.Rewritten, dRe, chase.Options{Variant: chase.Restricted, MaxDepth: 5, MaxFacts: 2_000_000})
			if err != nil {
				b.Fatal(err)
			}
			if len(datalog.CollectAnswers(r.DB, "Hit")) != 8 {
				b.Fatal("wrong answers")
			}
		}
	})
}

// BenchmarkE4GuardedToDatalog saturates Example 7 and random guarded
// theories of growing size (the paper's worst case is double exponential).
func BenchmarkE4GuardedToDatalog(b *testing.B) {
	b.Run("example7", func(b *testing.B) {
		th := parser.MustParseTheory(exampleSevenBench)
		for i := 0; i < b.N; i++ {
			if _, _, err := saturate.Datalog(th, saturate.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, n := range []int{4, 8, 12} {
		b.Run(fmt.Sprintf("random-%drules", n), func(b *testing.B) {
			th := gen.RandomGuardedTheory(n, int64(n))
			for i := 0; i < b.N; i++ {
				if _, _, err := saturate.Datalog(th, saturate.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE5NearlyGuardedToDatalog measures Proposition 6 end to end.
func BenchmarkE5NearlyGuardedToDatalog(b *testing.B) {
	th := parser.MustParseTheory(`
		A(X) -> exists Y. R(X,Y).
		R(X,Y) -> B(X).
		E(X,Y) -> T(X,Y).
		T(X,Y), T(Y,Z) -> T(X,Z).
		T(X,Y), B(X), B(Y) -> Linked(X,Y).
	`)
	dat, _, err := saturate.NearlyGuardedToDatalog(th, saturate.Options{})
	if err != nil {
		b.Fatal(err)
	}
	d := gen.Path(24)
	for i := 0; i < 24; i++ {
		d.Add(core.NewAtom("A", core.Const(fmt.Sprintf("v%d", i))))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := datalog.Eval(dat, d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE6NormalizeAndChaseTree measures Proposition 1 normalization
// and the chase-tree construction with Proposition 2 verification.
func BenchmarkE6NormalizeAndChaseTree(b *testing.B) {
	th := gen.RandomFrontierGuardedTheory(gen.FGTheoryOptions{Rules: 6, Seed: 3})
	d := gen.ABDatabase(8, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		norm := normalize.Normalize(th.Clone())
		tree, _, err := chase.RunTree(norm, d, chase.Options{Variant: chase.Oblivious, MaxDepth: 4, MaxFacts: 100_000})
		if err != nil {
			b.Fatal(err)
		}
		if err := tree.VerifyProposition2(norm, d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE7CaptureStringQueries measures Theorem 4: compile once, then
// decide words by chasing the compiled weakly guarded theory.
func BenchmarkE7CaptureStringQueries(b *testing.B) {
	alpha := []string{"zero", "one"}
	m := tm.EvenCount("one", alpha)
	th, err := capture.Compile(m, 1, alpha)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{3, 5, 7} {
		b.Run(fmt.Sprintf("len=%d", n), func(b *testing.B) {
			word := make([]string, n)
			for i := range word {
				word[i] = alpha[i%2]
			}
			db, err := capture.Encode(word, 1, alpha)
			if err != nil {
				b.Fatal(err)
			}
			want, err := m.Accepts(word, 0)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := chase.Run(th, db, chase.Options{Variant: chase.Restricted, MaxDepth: 3*n + 6, MaxFacts: 1_000_000})
				if err != nil {
					b.Fatal(err)
				}
				if r.Entails(core.NewAtom(capture.AcceptRel)) != want.Accepted {
					b.Fatal("disagrees with simulator")
				}
			}
		})
	}
}

// BenchmarkE8StratifiedCapture measures Theorem 5 on the even-constants
// query over growing domains (work grows super-polynomially: the ordering
// forest has d^(d+1) candidates).
func BenchmarkE8StratifiedCapture(b *testing.B) {
	m := tm.EvenLength(capture.ChrAlphabet(1))
	th, err := capture.BooleanQuery(m, []string{"R"})
	if err != nil {
		b.Fatal(err)
	}
	for _, d := range []int{2, 3} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			db := database.New()
			for i := 0; i < d; i++ {
				db.Add(core.NewAtom("R", core.Const(fmt.Sprintf("c%d", i))))
			}
			for i := 0; i < b.N; i++ {
				got, _, err := capture.EvalBoolean(th, db, d+2)
				if err != nil {
					b.Fatal(err)
				}
				if got != (d%2 == 0) {
					b.Fatal("wrong parity")
				}
			}
		})
	}
}

// BenchmarkE9Classification measures the affected-position analysis and
// fragment classification.
func BenchmarkE9Classification(b *testing.B) {
	theories := []*core.Theory{
		parser.MustParseTheory(sigmaPBench),
		parser.MustParseTheory(exampleSevenBench),
		gen.RandomFrontierGuardedTheory(gen.FGTheoryOptions{Rules: 10, Seed: 1}),
		gen.RandomGuardedTheory(10, 2),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, th := range theories {
			classify.Classify(th)
		}
	}
}

// BenchmarkE10KBPipeline measures the Section 7 pipeline against the
// direct chase.
func BenchmarkE10KBPipeline(b *testing.B) {
	th := parser.MustParseTheory(`
		A(X) -> exists Y. R(Y,X).
		R(Y,X), B(X) -> S(Y).
	`)
	q := kb.CQ{
		Answer: []core.Term{core.Var("X")},
		Atoms: []core.Atom{
			core.NewAtom("R", core.Var("Y"), core.Var("X")),
			core.NewAtom("S", core.Var("Y")),
		},
	}
	d := database.FromAtoms(parser.MustParseFacts(`A(a). A(b). A(c). B(a). B(c).`))
	b.Run("chase", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := kb.AnswerByChase(th, q, d, chase.Options{Variant: chase.Restricted, MaxDepth: 5}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pipeline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := kb.AnswerByPipeline(th, q, d, rewrite.Options{}, saturate.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE11DataComplexity contrasts polynomial Datalog evaluation with
// the exponentially growing weakly guarded ordering construction.
func BenchmarkE11DataComplexity(b *testing.B) {
	th := parser.MustParseTheory(`
		E(X,Y) -> T(X,Y).
		T(X,Y), T(Y,Z) -> T(X,Z).
	`)
	for _, n := range []int{16, 32, 64} {
		b.Run(fmt.Sprintf("datalog-n=%d", n), func(b *testing.B) {
			d := gen.Path(n)
			for i := 0; i < b.N; i++ {
				if _, err := datalog.Eval(th, d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	succ := capture.SuccProgram()
	for _, n := range []int{2, 3, 4} {
		b.Run(fmt.Sprintf("wg-orders-d=%d", n), func(b *testing.B) {
			d := database.New()
			for i := 0; i < n; i++ {
				d.Add(core.NewAtom("Obj", core.Const(fmt.Sprintf("c%d", i))))
			}
			for i := 0; i < b.N; i++ {
				if _, err := stratified.Eval(succ, d, stratified.Options{
					Chase: chase.Options{Variant: chase.Restricted, MaxDepth: n + 1, MaxFacts: 5_000_000},
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE12ACDomAxiomatization measures Proposition 5.
func BenchmarkE12ACDomAxiomatization(b *testing.B) {
	th := normalize.Normalize(parser.MustParseTheory(sigmaPBench))
	rew, _, err := rewrite.Rewrite(th, rewrite.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		star := rewrite.Axiomatize(rew)
		if len(star.Rules) <= len(rew.Rules) {
			b.Fatal("axiomatization must add rules")
		}
	}
}

// BenchmarkA1DatalogEngines is the ablation: the native semi-naive
// evaluator vs evaluation through the chase engine.
func BenchmarkA1DatalogEngines(b *testing.B) {
	th := parser.MustParseTheory(`
		E(X,Y) -> T(X,Y).
		T(X,Y), T(Y,Z) -> T(X,Z).
	`)
	d := gen.Path(32)
	b.Run("semi-naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := datalog.EvalSemiNaive(th, d); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("via-chase", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := datalog.EvalViaChase(th, d); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchWorkers lists the worker counts of the parallel benchmarks: one
// worker, plus all available CPUs when there is more than one (at
// GOMAXPROCS=1 a second entry would repeat the first).
func benchWorkers() []int {
	if n := runtime.GOMAXPROCS(0); n > 1 {
		return []int{1, n}
	}
	return []int{1}
}

// BenchmarkEvalSemiNaiveParallel measures the parallel semi-naive engine
// on transitive closure over chain forests of 1k/5k/20k edges, at 1 worker
// and at all available CPUs; the per-size ns/op trajectory is recorded in
// BENCH_datalog.json (see TestEmitDatalogBenchJSON).
func BenchmarkEvalSemiNaiveParallel(b *testing.B) {
	th := parser.MustParseTheory(`
		E(X,Y) -> T(X,Y).
		T(X,Y), T(Y,Z) -> T(X,Z).
	`)
	for _, edges := range []int{1_000, 5_000, 20_000} {
		d := gen.ChainForest(edges/49, 50)
		for _, workers := range benchWorkers() {
			b.Run(fmt.Sprintf("edges=%d/workers=%d", edges, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := datalog.EvalSemiNaiveOpts(th, d, datalog.Options{Workers: workers}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestEmitDatalogBenchJSON times the Datalog engine configurations of
// BenchmarkEvalSemiNaiveParallel once per configuration and writes
// BENCH_datalog.json, giving future PRs a perf trajectory. It only runs
// when EMIT_BENCH=1 is set, so regular test runs and CI stay fast:
//
//	EMIT_BENCH=1 go test -run TestEmitDatalogBenchJSON .
func TestEmitDatalogBenchJSON(t *testing.T) {
	if os.Getenv("EMIT_BENCH") != "1" {
		t.Skip("set EMIT_BENCH=1 to refresh BENCH_datalog.json")
	}
	th := parser.MustParseTheory(`
		E(X,Y) -> T(X,Y).
		T(X,Y), T(Y,Z) -> T(X,Z).
	`)
	type entry struct {
		Name    string `json:"name"`
		Edges   int    `json:"edges"`
		Workers int    `json:"workers"`
		NsPerOp int64  `json:"ns_per_op"`
		Facts   int    `json:"facts"`
	}
	report := struct {
		GoMaxProcs int     `json:"gomaxprocs"`
		Benchmarks []entry `json:"benchmarks"`
	}{GoMaxProcs: runtime.GOMAXPROCS(0)}
	for _, edges := range []int{1_000, 5_000, 20_000} {
		d := gen.ChainForest(edges/49, 50)
		for _, workers := range benchWorkers() {
			reps := 3
			var best time.Duration
			facts := 0
			for r := 0; r < reps; r++ {
				t0 := time.Now()
				fix, err := datalog.EvalSemiNaiveOpts(th, d, datalog.Options{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if el := time.Since(t0); r == 0 || el < best {
					best = el
				}
				facts = fix.Len()
			}
			report.Benchmarks = append(report.Benchmarks, entry{
				Name:    fmt.Sprintf("EvalSemiNaiveParallel/edges=%d/workers=%d", edges, workers),
				Edges:   edges,
				Workers: workers,
				NsPerOp: best.Nanoseconds(),
				Facts:   facts,
			})
		}
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_datalog.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote BENCH_datalog.json (%d entries)", len(report.Benchmarks))
}

// joinBenchCases are the workloads of the join-planner benchmarks: a
// recursive closure (delta-driven, plans re-fitted every round as T
// grows) and a triangle join (a 3-atom body where the access-path
// choice — seek vs two-position hash probe — dominates).
func joinBenchCases() []struct {
	name   string
	theory string
	db     *database.Database
} {
	return []struct {
		name   string
		theory string
		db     *database.Database
	}{
		{
			name: "closure",
			theory: `
				E(X,Y) -> T(X,Y).
				T(X,Y), T(Y,Z) -> T(X,Z).
			`,
			db: gen.ChainForest(40, 50),
		},
		{
			name: "triangles",
			theory: `
				E(X,Y) -> T(X,Y).
				T(X,Y), T(Y,Z), E(X,Z) -> Tri(X,Y).
			`,
			db: gen.RandomGraph(120, 600, 11),
		},
	}
}

// BenchmarkJoinPlanner times the cost-based join planner (per-round
// re-planning from live statistics) cold (stratify + compile every
// evaluation) and warm (a shared compiled Program, the serving layer's
// steady state).
func BenchmarkJoinPlanner(b *testing.B) {
	for _, c := range joinBenchCases() {
		th := parser.MustParseTheory(c.theory)
		b.Run(c.name+"/cold", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := datalog.EvalSemiNaiveOpts(th, c.db, datalog.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.name+"/warm", func(b *testing.B) {
			p, err := datalog.Compile(th)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.Eval(c.db, datalog.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestEmitJoinBenchJSON times the BenchmarkJoinPlanner grid once per
// configuration (best of 3) and writes BENCH_join.json, the planner's
// perf trajectory for future PRs. Only runs when EMIT_BENCH=1 is set:
//
//	EMIT_BENCH=1 go test -run TestEmitJoinBenchJSON .
func TestEmitJoinBenchJSON(t *testing.T) {
	if os.Getenv("EMIT_BENCH") != "1" {
		t.Skip("set EMIT_BENCH=1 to refresh BENCH_join.json")
	}
	type entry struct {
		Name    string `json:"name"`
		Mode    string `json:"mode"`
		NsPerOp int64  `json:"ns_per_op"`
		Facts   int    `json:"facts"`
	}
	report := struct {
		GoMaxProcs int     `json:"gomaxprocs"`
		Benchmarks []entry `json:"benchmarks"`
	}{GoMaxProcs: runtime.GOMAXPROCS(0)}
	for _, c := range joinBenchCases() {
		th := parser.MustParseTheory(c.theory)
		prog, err := datalog.Compile(th)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []string{"cold", "warm"} {
			var best time.Duration
			facts := 0
			for r := 0; r < 3; r++ {
				t0 := time.Now()
				var fix *database.Database
				var err error
				if mode == "cold" {
					fix, err = datalog.EvalSemiNaiveOpts(th, c.db, datalog.Options{})
				} else {
					fix, err = prog.Eval(c.db, datalog.Options{})
				}
				if err != nil {
					t.Fatal(err)
				}
				if el := time.Since(t0); r == 0 || el < best {
					best = el
				}
				facts = fix.Len()
			}
			report.Benchmarks = append(report.Benchmarks, entry{
				Name:    fmt.Sprintf("JoinPlanner/%s/%s", c.name, mode),
				Mode:    mode,
				NsPerOp: best.Nanoseconds(),
				Facts:   facts,
			})
		}
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_join.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote BENCH_join.json (%d entries)", len(report.Benchmarks))
}

// TestEmitMulticoreBenchJSON times the closure workload at worker counts
// 1/2/4/8 (best of 3) and writes BENCH_multicore.json; the multicore CI
// job runs it on a multi-CPU runner and checks the byte-identity of the
// results while it is at it. Only runs when EMIT_BENCH=1 is set:
//
//	EMIT_BENCH=1 go test -run TestEmitMulticoreBenchJSON .
func TestEmitMulticoreBenchJSON(t *testing.T) {
	if os.Getenv("EMIT_BENCH") != "1" {
		t.Skip("set EMIT_BENCH=1 to refresh BENCH_multicore.json")
	}
	th := parser.MustParseTheory(`
		E(X,Y) -> T(X,Y).
		T(X,Y), T(Y,Z) -> T(X,Z).
	`)
	d := gen.ChainForest(100, 50)
	type entry struct {
		Name    string `json:"name"`
		Workers int    `json:"workers"`
		NsPerOp int64  `json:"ns_per_op"`
		Facts   int    `json:"facts"`
	}
	report := struct {
		GoMaxProcs int     `json:"gomaxprocs"`
		Benchmarks []entry `json:"benchmarks"`
	}{GoMaxProcs: runtime.GOMAXPROCS(0)}
	var want string
	for _, workers := range []int{1, 2, 4, 8} {
		var best time.Duration
		facts := 0
		for r := 0; r < 3; r++ {
			t0 := time.Now()
			fix, err := datalog.EvalSemiNaiveOpts(th, d, datalog.Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if el := time.Since(t0); r == 0 || el < best {
				best = el
			}
			facts = fix.Len()
			if got := fix.String(); want == "" {
				want = got
			} else if got != want {
				t.Fatalf("workers=%d: result differs from workers=1", workers)
			}
		}
		report.Benchmarks = append(report.Benchmarks, entry{
			Name:    fmt.Sprintf("EvalSemiNaiveMulticore/workers=%d", workers),
			Workers: workers,
			NsPerOp: best.Nanoseconds(),
			Facts:   facts,
		})
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_multicore.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote BENCH_multicore.json (%d entries)", len(report.Benchmarks))
}

// BenchmarkChaseParallel measures the id-space chase's re-sharded trigger
// collection on the running example over growing citation graphs, at 1
// worker and at all available CPUs. Results are byte-identical across
// worker counts by construction; on single-core machines both
// configurations degenerate to the sequential path. The per-size ns/op
// trajectory is recorded in BENCH_chase.json (see TestEmitChaseBenchJSON).
func BenchmarkChaseParallel(b *testing.B) {
	th := parser.MustParseTheory(sigmaPBench)
	for _, n := range []int{8, 24, 48} {
		d := gen.CitationGraph(n)
		for _, workers := range benchWorkers() {
			b.Run(fmt.Sprintf("n=%d/workers=%d", n, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					opts := chase.Options{Variant: chase.Restricted, MaxDepth: 4, MaxFacts: 2_000_000, Workers: workers}
					if _, err := chase.Run(th, d, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestEmitChaseBenchJSON times the chase configurations of
// BenchmarkChaseParallel once per configuration and writes
// BENCH_chase.json (same schema as BENCH_datalog.json), giving future
// PRs a perf trajectory. It only runs when EMIT_BENCH=1 is set:
//
//	EMIT_BENCH=1 go test -run TestEmitChaseBenchJSON .
func TestEmitChaseBenchJSON(t *testing.T) {
	if os.Getenv("EMIT_BENCH") != "1" {
		t.Skip("set EMIT_BENCH=1 to refresh BENCH_chase.json")
	}
	th := parser.MustParseTheory(sigmaPBench)
	type entry struct {
		Name    string `json:"name"`
		N       int    `json:"n"`
		Workers int    `json:"workers"`
		NsPerOp int64  `json:"ns_per_op"`
		Facts   int    `json:"facts"`
	}
	report := struct {
		GoMaxProcs int     `json:"gomaxprocs"`
		Benchmarks []entry `json:"benchmarks"`
	}{GoMaxProcs: runtime.GOMAXPROCS(0)}
	for _, n := range []int{8, 24, 48} {
		d := gen.CitationGraph(n)
		for _, workers := range benchWorkers() {
			reps := 3
			var best time.Duration
			facts := 0
			for r := 0; r < reps; r++ {
				t0 := time.Now()
				res, err := chase.Run(th, d, chase.Options{
					Variant: chase.Restricted, MaxDepth: 4, MaxFacts: 2_000_000, Workers: workers,
				})
				if err != nil {
					t.Fatal(err)
				}
				if el := time.Since(t0); r == 0 || el < best {
					best = el
				}
				facts = res.DB.Len()
			}
			report.Benchmarks = append(report.Benchmarks, entry{
				Name:    fmt.Sprintf("ChaseParallel/n=%d/workers=%d", n, workers),
				N:       n,
				Workers: workers,
				NsPerOp: best.Nanoseconds(),
				Facts:   facts,
			})
		}
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_chase.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote BENCH_chase.json (%d entries)", len(report.Benchmarks))
}

// TestEmitTerminationBenchJSON times the full acyclicity-hierarchy
// analysis (WA graph, JA dependency graph, critical-instance check,
// certificate construction) on the class-separating theory families at
// growing rule counts and writes BENCH_termination.json, giving future
// PRs a perf trajectory for the analyzer. Only runs when EMIT_BENCH=1
// is set:
//
//	EMIT_BENCH=1 go test -run TestEmitTerminationBenchJSON .
func TestEmitTerminationBenchJSON(t *testing.T) {
	if os.Getenv("EMIT_BENCH") != "1" {
		t.Skip("set EMIT_BENCH=1 to refresh BENCH_termination.json")
	}
	families := []struct {
		name string
		mk   func(n int) *core.Theory
	}{
		{"wa-chain", gen.WAChainTheory},
		{"ja-not-wa", gen.JANotWATheory},
		{"swa-not-ja", gen.SWANotJATheory},
	}
	type entry struct {
		Name    string `json:"name"`
		N       int    `json:"n"`
		Class   string `json:"class"`
		NsPerOp int64  `json:"ns_per_op"`
	}
	report := struct {
		GoMaxProcs int     `json:"gomaxprocs"`
		Benchmarks []entry `json:"benchmarks"`
	}{GoMaxProcs: runtime.GOMAXPROCS(0)}
	for _, fam := range families {
		for _, n := range []int{4, 16, 64} {
			th := fam.mk(n)
			reps := 3
			var best time.Duration
			var class termination.Class
			for r := 0; r < reps; r++ {
				t0 := time.Now()
				rep := termination.Analyze(th)
				if el := time.Since(t0); r == 0 || el < best {
					best = el
				}
				class = rep.Class
			}
			report.Benchmarks = append(report.Benchmarks, entry{
				Name:    fmt.Sprintf("Termination/%s/n=%d", fam.name, n),
				N:       n,
				Class:   class.String(),
				NsPerOp: best.Nanoseconds(),
			})
		}
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_termination.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote BENCH_termination.json (%d entries)", len(report.Benchmarks))
}

// BenchmarkIncrementalMaintenance contrasts from-scratch re-evaluation
// with delta-driven maintenance on the E11 transitive-closure workload:
// each maintained op is one single-edge batch (an insert extending the
// path by a fresh tail node, then the retract that undoes it, keeping
// the handle in steady state across iterations).
func BenchmarkIncrementalMaintenance(b *testing.B) {
	th := parser.MustParseTheory(`
		E(X,Y) -> T(X,Y).
		T(X,Y), T(Y,Z) -> T(X,Z).
	`)
	prog, err := datalog.Compile(th)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{16, 32, 64} {
		d := gen.Path(n)
		edge := parser.MustParseFacts(fmt.Sprintf("E(v%d,w).", n-1))
		b.Run(fmt.Sprintf("from-scratch/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := prog.Eval(d, datalog.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("insert+retract/n=%d", n), func(b *testing.B) {
			m, err := datalog.NewMaintained(prog, d, datalog.Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := m.Apply(edge, nil, datalog.Options{}); err != nil {
					b.Fatal(err)
				}
				if _, _, err := m.Apply(nil, edge, datalog.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestEmitIncrementalBenchJSON times from-scratch evaluation against
// single-fact incremental insert/retract on the E11 closure workload
// (best of 5) and writes BENCH_incremental.json. It also enforces the
// headline claim: at n=64 a single-fact insert must be at least 10x
// faster than re-evaluating from scratch. Only runs when EMIT_BENCH=1
// is set:
//
//	EMIT_BENCH=1 go test -run TestEmitIncrementalBenchJSON .
func TestEmitIncrementalBenchJSON(t *testing.T) {
	if os.Getenv("EMIT_BENCH") != "1" {
		t.Skip("set EMIT_BENCH=1 to refresh BENCH_incremental.json")
	}
	th := parser.MustParseTheory(`
		E(X,Y) -> T(X,Y).
		T(X,Y), T(Y,Z) -> T(X,Z).
	`)
	prog, err := datalog.Compile(th)
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name    string `json:"name"`
		N       int    `json:"n"`
		Mode    string `json:"mode"`
		NsPerOp int64  `json:"ns_per_op"`
		Facts   int    `json:"facts"`
	}
	report := struct {
		GoMaxProcs      int     `json:"gomaxprocs"`
		Benchmarks      []entry `json:"benchmarks"`
		SpeedupInsert64 float64 `json:"speedup_insert_n64"`
	}{GoMaxProcs: runtime.GOMAXPROCS(0)}
	const reps = 5
	for _, n := range []int{16, 32, 64} {
		d := gen.Path(n)
		edge := parser.MustParseFacts(fmt.Sprintf("E(v%d,w).", n-1))

		var scratch time.Duration
		scratchFacts := 0
		for r := 0; r < reps; r++ {
			t0 := time.Now()
			fix, err := prog.Eval(d, datalog.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if el := time.Since(t0); r == 0 || el < scratch {
				scratch = el
			}
			scratchFacts = fix.Len()
		}

		m, err := datalog.NewMaintained(prog, d, datalog.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var insert, retract time.Duration
		insertFacts := 0
		for r := 0; r < reps; r++ {
			t0 := time.Now()
			if _, _, err := m.Apply(edge, nil, datalog.Options{}); err != nil {
				t.Fatal(err)
			}
			if el := time.Since(t0); r == 0 || el < insert {
				insert = el
			}
			insertFacts = m.Current().Len()
			t0 = time.Now()
			if _, _, err := m.Apply(nil, edge, datalog.Options{}); err != nil {
				t.Fatal(err)
			}
			if el := time.Since(t0); r == 0 || el < retract {
				retract = el
			}
		}
		report.Benchmarks = append(report.Benchmarks,
			entry{Name: fmt.Sprintf("Incremental/n=%d/from-scratch", n), N: n, Mode: "from-scratch", NsPerOp: scratch.Nanoseconds(), Facts: scratchFacts},
			entry{Name: fmt.Sprintf("Incremental/n=%d/insert", n), N: n, Mode: "insert", NsPerOp: insert.Nanoseconds(), Facts: insertFacts},
			entry{Name: fmt.Sprintf("Incremental/n=%d/retract", n), N: n, Mode: "retract", NsPerOp: retract.Nanoseconds(), Facts: scratchFacts},
		)
	}
	// Headline check: single-fact insert at n=64 must beat from-scratch
	// by at least 10x.
	var scratch64, insert64 int64
	for _, e := range report.Benchmarks {
		if e.N == 64 && e.Mode == "from-scratch" {
			scratch64 = e.NsPerOp
		}
		if e.N == 64 && e.Mode == "insert" {
			insert64 = e.NsPerOp
		}
	}
	report.SpeedupInsert64 = float64(scratch64) / float64(insert64)
	if report.SpeedupInsert64 < 10 {
		t.Fatalf("n=64 single-fact insert speedup %.1fx, want >= 10x (scratch %dns, insert %dns)",
			report.SpeedupInsert64, scratch64, insert64)
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_incremental.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote BENCH_incremental.json (speedup %.1fx)", report.SpeedupInsert64)
}

// BenchmarkA2ChaseVariants is the ablation: oblivious vs restricted chase
// on the running example.
func BenchmarkA2ChaseVariants(b *testing.B) {
	th := parser.MustParseTheory(sigmaPBench)
	d := gen.CitationGraph(8)
	for _, v := range []struct {
		name    string
		variant chase.Variant
	}{{"oblivious", chase.Oblivious}, {"restricted", chase.Restricted}} {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := chase.Run(th, d, chase.Options{Variant: v.variant, MaxDepth: 6, MaxFacts: 2_000_000}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkA3WeakAcyclicity measures the termination analysis.
func BenchmarkA3WeakAcyclicity(b *testing.B) {
	theories := make([]*core.Theory, 0, 10)
	for seed := int64(0); seed < 10; seed++ {
		theories = append(theories, gen.RandomFrontierGuardedTheory(gen.FGTheoryOptions{Rules: 8, Seed: seed}))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, th := range theories {
			termination.Analyze(th)
		}
	}
}

// BenchmarkA4CoreMinimization measures core computation of chase results.
func BenchmarkA4CoreMinimization(b *testing.B) {
	th := parser.MustParseTheory(`
		A(X) -> exists Y. R(X,Y).
		R(X,Y) -> B(Y).
	`)
	d := database.FromAtoms(parser.MustParseFacts(`A(a). A(b). A(c). R(a,w).`))
	res, err := chase.Run(th, d, chase.Options{Variant: chase.Oblivious})
	if err != nil {
		b.Fatal(err)
	}
	atoms := res.DB.UserFacts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, exact := hom.Core(atoms, 0); !exact {
			b.Fatal("core search must be exact here")
		}
	}
}
