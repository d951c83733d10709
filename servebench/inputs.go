package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// hotTheory is the nearly guarded theory every read and write op runs
// against (the load generator's hot shape): guarded value invention
// feeding a transitive closure, compiled to dat(Σ) (Theorem 3). Nulls
// only ever occupy the second position of R, so every relation the
// benchmark's queries touch holds constants only.
const hotTheory = `A(X) -> exists Y. R(X,Y).
R(X,Y) -> B(X).
E(X,Y) -> T(X,Y).
T(X,Y), T(Y,Z) -> T(X,Z).
T(X,Y), B(X), B(Y) -> Linked(X,Y).
`

// hotCQs are the conjunctive-query shapes of read_hot; each is one
// cached plan (dat(Σ∪q)) after warm-up.
var hotCQs = []string{
	"Linked(X,Y) -> Ans(X,Y).",
	"T(X,Y), T(Y,Z), B(X), B(Y) -> Ans(X,Z).",
	"T(X,Y), E(Y,X) -> Ans(X,Y).",
	"B(X), T(X,X) -> Ans(X).",
}

// liveCQ is the subscribed query of the write path; liveReadCQs are the
// shapes the writer reads back after each batch (see liveReadCQ).
const liveCQ = "Linked(X,Y) -> Ans(X,Y)."

// liveHeavyCQ joins the closure with itself and returns every 2-step
// path into a B node (n²/2·n rows), which costs about 5x the other
// read-backs on the write_live graph.
const liveHeavyCQ = "T(X,Y), T(Y,Z), B(Z) -> Ans(X,Y,Z)."

var liveReadCQs = []string{liveCQ, "T(X,Y), E(Y,X) -> Ans(X,Y).", liveHeavyCQ}

// heavyEvery spaces the heavy read-backs: one in heavyEvery.
const heavyEvery = 32

// liveReadCQ is the shape of the writer's i-th read-back: the two light
// shapes alternate, and every heavyEvery-th read-back is liveHeavyCQ.
// A p99 over read-backs of one cost is made of host scheduling stalls
// alone and swings by half from run to run; the heavy share (1/32,
// three times the 1% a p99 leaves) puts it inside the heavy reads'
// spread, on query work.
func liveReadCQ(i int) string {
	if i%heavyEvery == heavyEvery-1 {
		return liveHeavyCQ
	}
	return liveReadCQs[i%2]
}

// atomQuery is the magic-sets path of read_hot: T with a bound first
// argument.
func atomQuery(node int) string { return fmt.Sprintf("T(v%d,Y)", node) }

// graphSize sizes a ring-with-chords graph.
type graphSize struct{ nodes, chords int }

var (
	// hotSize puts one read_hot fixpoint at roughly 5–20 ms on a
	// 2-CPU x86 box: the ring makes the graph strongly connected, so
	// T is always nodes² facts and the cost barely depends on the seed.
	hotSize = graphSize{nodes: 32, chords: 16}
	// liveSize keeps write_live's per-version reference cheap.
	liveSize = graphSize{nodes: 20, chords: 10}
	// probeSize is the small mutable DB of the write probe.
	probeSize = graphSize{nodes: 10, chords: 5}
)

const hotDBs = 8

// graph is a mutable ring-with-chords digraph plus the unary A facts.
// The ring edges are never retracted, so every version stays strongly
// connected and the closure's size is fixed; writes toggle chords and
// A facts around their initial counts.
type graph struct {
	size   graphSize
	chords map[[2]int]bool
	a      map[int]bool
}

func newGraph(size graphSize, rng *rand.Rand) *graph {
	g := &graph{size: size, chords: map[[2]int]bool{}, a: map[int]bool{}}
	for len(g.chords) < size.chords {
		g.chords[g.randomChord(rng)] = true
	}
	for _, i := range rng.Perm(size.nodes)[:size.nodes/2] {
		g.a[i] = true
	}
	return g
}

// chordSpans are the lengths a chord may skip along the ring. Drawing
// the span from this fixed set and only the start node at random keeps
// the graphs' shortcut structure — and with it the number of
// semi-naive rounds of the closure — alike across seeds.
var chordSpans = []int{2, 3, 5, 8, 13, 21}

// randomChord picks a non-ring edge u → u+span.
func (g *graph) randomChord(rng *rand.Rand) [2]int {
	n := g.size.nodes
	var spans []int
	for _, s := range chordSpans {
		if s < n {
			spans = append(spans, s)
		}
	}
	u := rng.Intn(n)
	return [2]int{u, (u + spans[rng.Intn(len(spans))]) % n}
}

func edgeFact(e [2]int) string { return fmt.Sprintf("E(v%d,v%d).", e[0], e[1]) }
func aFact(i int) string       { return fmt.Sprintf("A(v%d).", i) }

// facts renders the current fact set in a fixed order.
func (g *graph) facts() string {
	var lines []string
	for i := 0; i < g.size.nodes; i++ {
		lines = append(lines, edgeFact([2]int{i, (i + 1) % g.size.nodes}))
	}
	var chords []string
	for e := range g.chords {
		chords = append(chords, edgeFact(e))
	}
	sort.Strings(chords)
	lines = append(lines, chords...)
	var as []int
	for i := range g.a {
		as = append(as, i)
	}
	sort.Ints(as)
	for _, i := range as {
		lines = append(lines, aFact(i))
	}
	return strings.Join(lines, "\n") + "\n"
}

func (g *graph) clone() *graph {
	c := &graph{size: g.size, chords: map[[2]int]bool{}, a: map[int]bool{}}
	for e := range g.chords {
		c.chords[e] = true
	}
	for i := range g.a {
		c.a[i] = true
	}
	return c
}

// batch is one mutation: facts to retract, then facts to add.
type batch struct {
	add, retract []string
}

func (b batch) addText() string     { return strings.Join(b.add, " ") }
func (b batch) retractText() string { return strings.Join(b.retract, " ") }

// nextBatch draws 1–3 mutations that each change the fact set and
// applies them to g. A mutation toggles an A fact, or with probability
// 1/8 a chord; chord and A counts stay within ±2 of their initial
// sizes. Retracting a chord makes DRed over-delete and re-derive most
// of the transitive closure (10–30× a toggle of A), so about one batch
// in eight pays that cascade: write p99 measures it, while p50 stays
// on the common A-toggle batch instead of flipping between the two
// cost modes from seed to seed.
func (g *graph) nextBatch(rng *rand.Rand) batch {
	var b batch
	touched := map[string]bool{}
	for k := 1 + rng.Intn(3); k > 0; k-- {
		var kinds []int
		if rng.Intn(8) == 0 {
			if len(g.chords) < g.size.chords+2 {
				kinds = append(kinds, 0)
			}
			if len(g.chords) > g.size.chords-2 {
				kinds = append(kinds, 1)
			}
		} else {
			if len(g.a) < g.size.nodes/2+2 {
				kinds = append(kinds, 2)
			}
			if len(g.a) > g.size.nodes/2-2 {
				kinds = append(kinds, 3)
			}
		}
		switch kinds[rng.Intn(len(kinds))] {
		case 0:
			e := g.randomChord(rng)
			if f := edgeFact(e); !g.chords[e] && !touched[f] {
				g.chords[e], touched[f] = true, true
				b.add = append(b.add, f)
			}
		case 1:
			e := pickEdge(g.chords, rng)
			if f := edgeFact(e); !touched[f] {
				delete(g.chords, e)
				touched[f] = true
				b.retract = append(b.retract, f)
			}
		case 2:
			i := rng.Intn(g.size.nodes)
			if f := aFact(i); !g.a[i] && !touched[f] {
				g.a[i], touched[f] = true, true
				b.add = append(b.add, f)
			}
		case 3:
			i := pickInt(g.a, rng)
			if f := aFact(i); !touched[f] {
				delete(g.a, i)
				touched[f] = true
				b.retract = append(b.retract, f)
			}
		}
	}
	if len(b.add) == 0 && len(b.retract) == 0 {
		return g.nextBatch(rng)
	}
	return b
}

func pickEdge(m map[[2]int]bool, rng *rand.Rand) [2]int {
	keys := make([][2]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		return keys[i][0] < keys[j][0] || keys[i][0] == keys[j][0] && keys[i][1] < keys[j][1]
	})
	return keys[rng.Intn(len(keys))]
}

func pickInt(m map[int]bool, rng *rand.Rand) int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys[rng.Intn(len(keys))]
}

// hotQuery is one read_hot request: a CQ shape or an atom query over
// one of the fixture DBs.
type hotQuery struct {
	db    int
	cq    int    // index into hotCQs (0 for a live read-back), or -1 for the atom query
	atom  string // set when cq == -1
	label string // the CQ's source, or the atom
}

// hotNext draws the n-th read_hot request of a caller: every fifth is
// an atom query on a random node, the rest cycle the CQ shapes; the DB
// is drawn uniformly.
func hotNext(rng *rand.Rand, n int) hotQuery {
	q := hotQuery{db: rng.Intn(hotDBs), cq: n % (len(hotCQs) + 1)}
	if q.cq == len(hotCQs) {
		q.cq = -1
		q.atom = atomQuery(rng.Intn(hotSize.nodes))
		q.label = q.atom
	} else {
		q.label = hotCQs[q.cq]
	}
	return q
}
