package main

import (
	"fmt"
	"time"

	"guardedrules/internal/chase"
	"guardedrules/internal/core"
	"guardedrules/internal/database"
	"guardedrules/internal/datalog"
	"guardedrules/internal/gen"
	"guardedrules/internal/hom"
	"guardedrules/internal/parser"
	"guardedrules/internal/termination"
)

// runA1: ablation — the native semi-naive Datalog evaluator vs routing
// evaluation through the generic chase engine (which pays a trigger memo
// that Datalog does not need).
func runA1(quick bool) error {
	th := parser.MustParseTheory(`
		E(X,Y) -> T(X,Y).
		T(X,Y), T(Y,Z) -> T(X,Z).
	`)
	sizes := []int{16, 32, 48}
	if quick {
		sizes = []int{16, 32}
	}
	fmt.Printf("%-8s %-14s %-14s %-8s\n", "n", "semi-naive", "via chase", "speedup")
	for _, n := range sizes {
		d := gen.Path(n)
		t0 := time.Now()
		a, err := datalog.EvalSemiNaive(th, d)
		if err != nil {
			return err
		}
		native := time.Since(t0)
		t1 := time.Now()
		b, err := datalog.EvalViaChase(th, d)
		if err != nil {
			return err
		}
		viaChase := time.Since(t1)
		if ok, diff := database.SameGroundAtoms(a, b); !ok {
			return fmt.Errorf("engines disagree: %s", diff)
		}
		fmt.Printf("%-8d %-14v %-14v %.1fx\n",
			n, native.Round(time.Microsecond), viaChase.Round(time.Microsecond),
			float64(viaChase)/float64(native))
	}
	return nil
}

// runA2: ablation — oblivious vs restricted chase: the restricted chase
// skips triggers whose head is already satisfied and stays smaller, while
// both stay homomorphically equivalent (same core).
func runA2(quick bool) error {
	th := parser.MustParseTheory(`
		Publication(X) -> exists K1,K2. Keywords(X,K1,K2).
		Keywords(X,K1,K2) -> hasTopic(X,K1).
		hasTopic(X,Z) -> exists W. Keywords(X,Z,W).
	`)
	sizes := []int{2, 4, 8}
	if quick {
		sizes = []int{2, 4}
	}
	fmt.Printf("%-6s %-12s %-12s %-12s %-12s %-12s %s\n",
		"n", "oblivious", "ob time", "restricted", "re time", "same core", "ground agree")
	for _, n := range sizes {
		d := gen.CitationGraph(n)
		t0 := time.Now()
		ob, err := chase.Run(th, d, govern(chase.Options{Variant: chase.Oblivious, MaxDepth: 3, MaxFacts: 500_000}))
		if err != nil {
			return err
		}
		obTime := time.Since(t0)
		t1 := time.Now()
		re, err := chase.Run(th, d, govern(chase.Options{Variant: chase.Restricted, MaxDepth: 3, MaxFacts: 500_000}))
		if err != nil {
			return err
		}
		reTime := time.Since(t1)
		same, what := database.SameGroundAtoms(ob.DB, re.DB)
		coreAgree := hom.Equivalent(ob.DB.UserFacts(), re.DB.UserFacts())
		fmt.Printf("%-6d %-12d %-12v %-12d %-12v %-12v %s\n",
			n, ob.DB.Len(), obTime.Round(time.Microsecond),
			re.DB.Len(), reTime.Round(time.Microsecond), coreAgree, check(same, what))
		if !same || !coreAgree {
			return fmt.Errorf("variants disagree at n=%d", n)
		}
		if re.DB.Len() > ob.DB.Len() {
			return fmt.Errorf("restricted chase larger than oblivious at n=%d", n)
		}
	}
	return nil
}

// runA3: ablation — weak-acyclicity analysis as a chase-termination
// oracle, cross-checked against actual chase behaviour on generated
// theories.
func runA3(quick bool) error {
	n := 30
	if quick {
		n = 12
	}
	wa, nonWA, waSaturated, checked := 0, 0, 0, 0
	for seed := int64(0); seed < int64(n); seed++ {
		th := gen.RandomFrontierGuardedTheory(gen.FGTheoryOptions{Rules: 5, Seed: seed})
		if termination.IsWeaklyAcyclic(th) {
			wa++
			d := gen.ABDatabase(5, seed)
			res, err := chase.Run(th, d, govern(chase.Options{Variant: chase.Restricted, MaxFacts: 200_000, MaxRounds: 5_000}))
			if err != nil {
				return err
			}
			checked++
			if res.Saturated {
				waSaturated++
			} else {
				return fmt.Errorf("seed %d: weakly acyclic theory did not saturate", seed)
			}
		} else {
			nonWA++
		}
	}
	fmt.Printf("theories: %d weakly acyclic, %d not\n", wa, nonWA)
	fmt.Printf("chase saturated on %d/%d weakly acyclic samples (must be all)\n", waSaturated, checked)
	// The classic infinite example is flagged.
	loop := parser.MustParseTheory(`Person(X) -> exists Y. hasParent(X,Y). hasParent(X,Y) -> Person(Y).`)
	rep := termination.Analyze(loop)
	kind := "normal"
	if rep.Witness.Special {
		kind = "special"
	}
	fmt.Printf("ancestor loop flagged non-terminating: %v (witness %v -> %v, %s)\n",
		!rep.WeaklyAcyclic, rep.Witness.From, rep.Witness.To, kind)
	if rep.WeaklyAcyclic {
		return fmt.Errorf("ancestor loop not flagged")
	}
	return nil
}

// runA4: ablation — core minimization of chase results: the oblivious
// chase of the running example carries redundant nulls that the core
// removes, certifying the universal model minimal.
func runA4(bool) error {
	th := parser.MustParseTheory(`
		A(X) -> exists Y. R(X,Y).
		R(X,Y) -> B(Y).
	`)
	d := database.FromAtoms(parser.MustParseFacts(`A(a). A(b). R(a,c).`))
	ob, err := chase.Run(th, d, govern(chase.Options{Variant: chase.Oblivious}))
	if err != nil {
		return err
	}
	coreAtoms, exact := hom.Core(ob.DB.UserFacts(), 0)
	fmt.Printf("oblivious chase: %d atoms; core: %d atoms (exact=%v)\n",
		len(ob.DB.UserFacts()), len(coreAtoms), exact)
	if !hom.Equivalent(ob.DB.UserFacts(), coreAtoms) {
		return fmt.Errorf("core not equivalent to chase")
	}
	if !hom.IsCore(coreAtoms, 0) {
		return fmt.Errorf("result is not a core")
	}
	return nil
}

// runA5: ablation — magic sets vs full bottom-up evaluation: the rewritten
// program only explores the part of the data reachable from the query's
// bound constants.
func runA5(quick bool) error {
	th := parser.MustParseTheory(`
		Par(X,Y) -> Anc(X,Y).
		Par(X,Z), Anc(Z,Y) -> Anc(X,Y).
	`)
	sizes := []int{16, 32}
	if quick {
		sizes = []int{16}
	}
	fmt.Printf("%-6s %-12s %-12s %-12s %-12s\n", "n", "full facts", "magic facts", "full time", "magic time")
	for _, n := range sizes {
		d := database.New()
		for i := 0; i+1 < n; i++ {
			d.Add(core.NewAtom("Par", core.Const(fmt.Sprintf("a%d", i)), core.Const(fmt.Sprintf("a%d", i+1))))
			d.Add(core.NewAtom("Par", core.Const(fmt.Sprintf("z%d", i)), core.Const(fmt.Sprintf("z%d", i+1))))
		}
		t0 := time.Now()
		full, err := datalog.Eval(th, d)
		if err != nil {
			return err
		}
		fullTime := time.Since(t0)
		t1 := time.Now()
		ans, fix, err := datalog.AnswerWithMagic(th, core.NewAtom("Anc", core.Const("a0"), core.Var("Y")), d)
		if err != nil {
			return err
		}
		magicTime := time.Since(t1)
		if len(ans) != n-1 {
			return fmt.Errorf("n=%d: expected %d answers, got %d", n, n-1, len(ans))
		}
		fmt.Printf("%-6d %-12d %-12d %-12v %-12v\n",
			n, full.Len(), fix.Len(), fullTime.Round(time.Microsecond), magicTime.Round(time.Microsecond))
	}
	return nil
}

// runA6: ablation — parallel trigger collection: rule matching reads the
// database only, so it parallelizes across (rule × delta-shard) work
// items over a fixed worker pool; work items are merged in deterministic
// order, so the result is byte-identical to the sequential one.
func runA6(quick bool) error {
	th := parser.MustParseTheory(`
		Obj(X) -> exists U. OMin(X,U).
		OMin(X,U), Obj(Y) -> exists V. Edge(X,Y,U,V).
		Edge(X,Y,U,V) -> Seen(Y,V).
		Edge(X,Y,U,V), Seen(X,U) -> Chain(X,Y).
		Seen(Y,V), Obj(Y) -> Mark(Y).
	`)
	n := 24
	if quick {
		n = 12
	}
	d := database.New()
	for i := 0; i < n; i++ {
		d.Add(core.NewAtom("Obj", core.Const(fmt.Sprintf("o%d", i))))
	}
	opts := govern(chase.Options{Variant: chase.Restricted, MaxDepth: 3, MaxFacts: 3_000_000})
	t0 := time.Now()
	seq, err := chase.Run(th, d, opts)
	if err != nil {
		return err
	}
	seqTime := time.Since(t0)
	seqStr := seq.DB.String()
	fmt.Printf("%-9s %-12s %-12s %-8s\n", "workers", "facts", "time", "speedup")
	fmt.Printf("%-9d %-12d %-12v %-8s\n", 1, seq.DB.Len(), seqTime.Round(time.Millisecond), "1.0x")
	for _, w := range []int{2, 4, 8} {
		opts.Workers = w
		t1 := time.Now()
		par, err := chase.Run(th, d, opts)
		if err != nil {
			return err
		}
		dt := time.Since(t1)
		if par.Steps != seq.Steps || par.DB.String() != seqStr {
			return fmt.Errorf("workers=%d diverged from the sequential run", w)
		}
		fmt.Printf("%-9d %-12d %-12v %.1fx\n", w, par.DB.Len(), dt.Round(time.Millisecond),
			float64(seqTime)/float64(dt))
	}
	return nil
}

// runA8: ablation — certified budget-free chase vs the bounded fallback.
// The termination analyzer certifies each theory's class and, for weakly
// acyclic ones, derives an exact fact bound for the concrete database;
// chase.RunCertified then runs with no user-supplied ceiling at all
// (the certificate IS the ceiling) and must saturate. The bounded
// fallback runs the same chase under the generic defensive budget. Both
// paths must produce byte-identical fixpoints.
func runA8(quick bool) error {
	cases := []struct {
		name   string
		theory *core.Theory
		db     *database.Database
	}{
		{"publication", parser.MustParseTheory(`
			Publication(X) -> exists K1,K2. Keywords(X,K1,K2).
			Keywords(X,K1,K2) -> hasTopic(X,K1).
		`), gen.CitationGraph(12)},
		{"wa-chain", gen.WAChainTheory(12), gen.ABDatabase(40, 3)},
		{"ja-not-wa", gen.JANotWATheory(3), gen.ABDatabase(30, 5)},
	}
	if quick {
		cases[0].db = gen.CitationGraph(4)
		cases[1].db = gen.ABDatabase(12, 3)
		cases[2].db = gen.ABDatabase(10, 5)
	}
	fmt.Printf("%-13s %-7s %-10s %-10s %-14s %-14s %-8s\n",
		"workload", "class", "bound", "facts", "certified", "bounded", "ratio")
	for _, c := range cases {
		rep := termination.Analyze(c.theory)
		if !rep.Class.Terminating() {
			return fmt.Errorf("%s: expected a terminating class, got %s", c.name, rep.Class)
		}
		if err := rep.Certificate.Verify(c.theory); err != nil {
			return fmt.Errorf("%s: certificate fails verification: %v", c.name, err)
		}
		bound := 0
		boundStr := "-"
		if rep.Bound != nil {
			n0 := c.db.InternEpoch() + len(c.theory.Constants())
			if b, ok := rep.Bound.Facts(n0, c.db.Len()); ok {
				bound = b
				boundStr = fmt.Sprintf("%d", b)
			}
		}
		// Best of 3 per path: single-shot chase timings swing with GC noise.
		var certRes *chase.Result
		var certTime time.Duration
		for r := 0; r < 3; r++ {
			t0 := time.Now()
			res, err := chase.RunCertified(c.theory, c.db, bound, chase.Options{Variant: chase.Restricted})
			if err != nil {
				return fmt.Errorf("%s: certified chase: %v", c.name, err)
			}
			if dt := time.Since(t0); r == 0 || dt < certTime {
				certTime = dt
			}
			certRes = res
		}
		if !certRes.Saturated {
			return fmt.Errorf("%s: certified chase did not saturate", c.name)
		}
		var boundRes *chase.Result
		var boundTime time.Duration
		for r := 0; r < 3; r++ {
			t0 := time.Now()
			res, err := chase.Run(c.theory, c.db, govern(chase.Options{Variant: chase.Restricted, MaxDepth: 12, MaxFacts: 500_000}))
			if err != nil {
				return fmt.Errorf("%s: bounded chase: %v", c.name, err)
			}
			if dt := time.Since(t0); r == 0 || dt < boundTime {
				boundTime = dt
			}
			boundRes = res
		}
		if certRes.DB.String() != boundRes.DB.String() {
			return fmt.Errorf("%s: certified and bounded chases derived different fixpoints", c.name)
		}
		fmt.Printf("%-13s %-7s %-10s %-10d %-14v %-14v %.2fx\n",
			c.name, rep.Class, boundStr, certRes.DB.Len(),
			certTime.Round(time.Microsecond), boundTime.Round(time.Microsecond),
			float64(boundTime)/float64(certTime))
	}
	return nil
}
