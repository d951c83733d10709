package hom

import (
	"fmt"
	"strings"

	"guardedrules/internal/core"
)

// This file is the cost-based join layer shared by the fixpoint engines:
// a planner that fixes the atom order and the access path of every join
// step from the database's cardinality statistics, and an executor
// (State.SearchPlan) that runs the fixed plan with composable access
// paths — full scan, index seek, and a pre-sized hash-join probe.
//
// Determinism: for a fixed plan, every access path enumerates an atom's
// matching facts in insertion order (a scan trivially, a seek because
// posting lists are built in insertion order, a probe because bucket
// lists are built in insertion order), so the complete enumeration order
// is a function of the plan alone. Engines that compute the plan once
// per round on the single writer therefore derive byte-identical results
// for every worker count — and switching an access path (say, disabling
// the hash cache) cannot change the order either.

// Stats is the statistics surface the planner reads; *database.Database
// implements it with exact, incrementally maintained counters.
type Stats interface {
	// RelSize returns the fact count of the relation.
	RelSize(rk core.RelKey) int
	// DistinctAt returns the distinct-id count at one flat position.
	DistinctAt(rk core.RelKey, pos int) int
	// CountWithID returns the posting-list length of (pos, id) — the
	// exact candidate count for a position bound to a known id.
	CountWithID(rk core.RelKey, pos int, id uint32) int
}

// AccessKind is a step's planned access path.
type AccessKind uint8

const (
	// AccessScan enumerates the whole relation (no position bound).
	AccessScan AccessKind = iota
	// AccessSeek walks the posting list of one bound position; Match
	// filters the remaining positions (the pushed-down filter).
	AccessSeek
	// AccessProbe probes a two-position hash table (see JoinCache) built
	// once per round, falling back to a seek on Pos when no table was
	// prepared. Chosen when at least two positions are bound.
	AccessProbe
)

// Step is one planned join step: which atom to expand and how.
type Step struct {
	Atom int        // index into the planned atom slice
	Kind AccessKind // access path
	Pos  int        // Seek/Probe: first bound flat position (-1 for Scan)
	Pos2 int        // Probe: second bound flat position (-1 otherwise)
	Est  float64    // planner's cardinality estimate for this step
}

// Plan is a fixed join order with per-step access paths. The zero value
// is an empty plan (a body with no atoms).
type Plan struct {
	Steps []Step
	// Cost is the planner's estimate of the enumerated intermediate
	// results, the sum of the step estimate products. Metadata only.
	Cost float64
}

// String renders the plan compactly, for plan-cache introspection and
// tests: one step per arrow, e.g. "R[seek 0]->S[probe 0,1]".
func (p Plan) String() string {
	var sb strings.Builder
	for i, s := range p.Steps {
		if i > 0 {
			sb.WriteString("->")
		}
		switch s.Kind {
		case AccessScan:
			fmt.Fprintf(&sb, "#%d[scan]", s.Atom)
		case AccessSeek:
			fmt.Fprintf(&sb, "#%d[seek %d]", s.Atom, s.Pos)
		case AccessProbe:
			fmt.Fprintf(&sb, "#%d[probe %d,%d]", s.Atom, s.Pos, s.Pos2)
		}
	}
	return sb.String()
}

// estimate returns the planner's cardinality estimate for expanding ca
// under the bound-slot mask, together with the bound flat positions.
// Ground positions use their exact posting-list length (constants are
// resolved before planning); bound variable positions use the average
// list length RelSize/DistinctAt. Independence of positions is assumed,
// as usual. An unresolved ground term yields 0: the atom matches
// nothing, and ordering it first kills the branch immediately.
func estimate(ca *CAtom, bound []bool, st Stats) (float64, []int) {
	size := st.RelSize(ca.RK)
	est := float64(size)
	var pos []int
	for k := range ca.Pos {
		p := &ca.Pos[k]
		if p.Slot >= 0 {
			if !bound[p.Slot] {
				continue
			}
			pos = append(pos, k)
			if d := st.DistinctAt(ca.RK, k); d > 0 {
				est /= float64(d)
			}
			continue
		}
		if !p.OK {
			return 0, nil
		}
		pos = append(pos, k)
		c := st.CountWithID(ca.RK, k, p.ID)
		if c == 0 {
			return 0, nil
		}
		if size > 0 {
			est *= float64(c) / float64(size)
		}
	}
	return est, pos
}

// accessFor picks the access path for ca given its bound positions: the
// two most selective bound positions become a hash probe, a single bound
// position an index seek, none a scan. Selectivity of a position is its
// (estimated) posting-list length; ties break on the lower position, so
// the choice is deterministic.
func accessFor(ca *CAtom, boundPos []int, st Stats) (AccessKind, int, int) {
	switch len(boundPos) {
	case 0:
		return AccessScan, -1, -1
	case 1:
		return AccessSeek, boundPos[0], -1
	}
	size := st.RelSize(ca.RK)
	listLen := func(k int) float64 {
		p := &ca.Pos[k]
		if p.Slot < 0 {
			return float64(st.CountWithID(ca.RK, k, p.ID))
		}
		if d := st.DistinctAt(ca.RK, k); d > 0 {
			return float64(size) / float64(d)
		}
		return float64(size)
	}
	b1, b2 := boundPos[0], boundPos[1]
	if listLen(b2) < listLen(b1) {
		b1, b2 = b2, b1
	}
	for _, k := range boundPos[2:] {
		l := listLen(k)
		switch {
		case l < listLen(b1):
			b1, b2 = k, b1
		case l < listLen(b2):
			b2 = k
		}
	}
	// Canonical position order, so steps over the same relation share one
	// table in the JoinCache.
	if b1 > b2 {
		b1, b2 = b2, b1
	}
	return AccessProbe, b1, b2
}

// planSteps builds the steps for the given atom order, threading the
// bound mask through the steps and accumulating the cost estimate.
func planSteps(atoms []CAtom, order []int, bound []bool, st Stats) Plan {
	var p Plan
	width := 1.0
	for _, ai := range order {
		ca := &atoms[ai]
		est, boundPos := estimate(ca, bound, st)
		kind, p1, p2 := accessFor(ca, boundPos, st)
		p.Steps = append(p.Steps, Step{Atom: ai, Kind: kind, Pos: p1, Pos2: p2, Est: est})
		width *= est
		p.Cost += width
		for k := range ca.Pos {
			if s := ca.Pos[k].Slot; s >= 0 {
				bound[s] = true
			}
		}
	}
	return p
}

// PlanBody plans a join over atoms: a greedy cost-based order (always
// expand the atom with the smallest cardinality estimate next; ties
// break on the lower atom index) with per-step access paths. bound marks
// the slots already bound before the first step — a delta-driven engine
// passes the pattern atom's slots — with one entry per slot of the
// compiled atoms; it is not modified. Atoms must be Resolved against the
// statistics' database first: the estimates use the resolved constant
// ids, and an unresolved constant (est 0) is ordered first so execution
// dies out before touching any index.
func PlanBody(atoms []CAtom, bound []bool, st Stats) Plan {
	b := append([]bool(nil), bound...)
	order := make([]int, 0, len(atoms))
	taken := make([]bool, len(atoms))
	for len(order) < len(atoms) {
		best, bestEst := -1, 0.0
		for i := range atoms {
			if taken[i] {
				continue
			}
			est, _ := estimate(&atoms[i], b, st)
			if best == -1 || est < bestEst {
				best, bestEst = i, est
			}
		}
		taken[best] = true
		order = append(order, best)
		for k := range atoms[best].Pos {
			if s := atoms[best].Pos[k].Slot; s >= 0 {
				b[s] = true
			}
		}
	}
	return planSteps(atoms, order, append(b[:0:0], bound...), st)
}

// tableKey identifies one two-position hash table: a relation and the
// canonical (ascending) position pair.
type tableKey struct {
	rk     core.RelKey
	p1, p2 int
}

// joinTable is a two-position hash table over one relation: bucket lists
// of fact ordinals keyed by the packed (id1, id2) pair, in insertion
// order. built is the fact count covered so far; tables are extended
// incrementally as the relation grows, so a table costs O(total facts)
// across all rounds of a fixpoint, not O(facts × rounds).
type joinTable struct {
	m     map[uint64][]int32
	built int
}

// JoinCache holds the hash tables of one fixpoint evaluation. The single
// writer prepares the tables needed by the round's plans (Prepare)
// before the worker fan-out; workers then only read (Probe). Tables
// persist across rounds and are extended with the newly merged facts.
type JoinCache struct {
	db     DB
	tables map[tableKey]*joinTable
	builds int
}

// NewJoinCache returns an empty cache over db.
func NewJoinCache(db DB) *JoinCache {
	return &JoinCache{db: db, tables: make(map[tableKey]*joinTable)}
}

// Builds reports how many tables were created, for engine metrics.
func (jc *JoinCache) Builds() int { return jc.builds }

// Prepare ensures the tables needed by the plan's probe steps exist and
// cover the database's current facts. Writer-only.
func (jc *JoinCache) Prepare(atoms []CAtom, plan *Plan) {
	for _, s := range plan.Steps {
		if s.Kind != AccessProbe {
			continue
		}
		jc.ensure(atoms[s.Atom].RK, len(atoms[s.Atom].Pos), s.Pos, s.Pos2)
	}
}

func (jc *JoinCache) ensure(rk core.RelKey, w, p1, p2 int) {
	k := tableKey{rk, p1, p2}
	t := jc.tables[k]
	n := jc.db.RelSize(rk)
	if t == nil {
		// Pre-size to the relation's fact count: resizing a map that will
		// hold one entry per (nearly) distinct pair is pure waste.
		t = &joinTable{m: make(map[uint64][]int32, n)}
		jc.tables[k] = t
		jc.builds++
	}
	if t.built >= n {
		return
	}
	tuples := jc.db.IDTuples(rk)
	for ix := t.built; ix < n; ix++ {
		key := uint64(tuples[ix*w+p1])<<32 | uint64(tuples[ix*w+p2])
		t.m[key] = append(t.m[key], int32(ix))
	}
	t.built = n
}

// Probe returns the bucket of fact ordinals matching (id1 at p1, id2 at
// p2), and whether a prepared table covers the relation. Read-only.
func (jc *JoinCache) Probe(rk core.RelKey, p1, p2 int, id1, id2 uint32) ([]int32, bool) {
	t := jc.tables[tableKey{rk, p1, p2}]
	if t == nil || t.built < jc.db.RelSize(rk) {
		return nil, false
	}
	return t.m[uint64(id1)<<32|uint64(id2)], true
}

// posIDOf resolves flat position k of ca under the current bindings; ok
// is false for an unresolved ground term or an unbound slot (the planner
// only emits seek/probe steps on statically bound positions, so an
// unbound slot here means a planner bug — treated as a dead branch, the
// sound direction).
func (st *State) posIDOf(ca *CAtom, k int) (uint32, bool) {
	p := &ca.Pos[k]
	if p.Slot >= 0 {
		return st.B[p.Slot], st.Bd[p.Slot]
	}
	return p.ID, p.OK
}

// SearchPlan enumerates all matches of atoms in the fixed order given by
// plan, calling fn at every complete match; fn returning false stops the
// enumeration, and SearchPlan reports whether it ran to completion.
// Bindings made during the search are unwound before returning. jc may
// be nil (probe steps then degrade to seeks). Unlike Search, the order
// is static: the enumeration order is exactly (plan, insertion order of
// each relation), independent of worker count and access-path choices.
func (st *State) SearchPlan(atoms []CAtom, plan *Plan, jc *JoinCache, fn func() bool) bool {
	return st.searchStep(atoms, plan.Steps, jc, fn)
}

func (st *State) searchStep(atoms []CAtom, steps []Step, jc *JoinCache, fn func() bool) bool {
	if len(steps) == 0 {
		return fn()
	}
	s := &steps[0]
	ca := &atoms[s.Atom]
	w := len(ca.Pos)
	tuples := st.DB.IDTuples(ca.RK)
	cont := true
	try := func(ix int) bool {
		mark := len(st.trail)
		if st.Match(ca, tuples[ix*w:ix*w+w]) {
			if !st.searchStep(atoms, steps[1:], jc, fn) {
				cont = false
			}
		}
		st.Unwind(mark)
		return cont
	}
	switch s.Kind {
	case AccessProbe:
		id1, ok1 := st.posIDOf(ca, s.Pos)
		id2, ok2 := st.posIDOf(ca, s.Pos2)
		if !ok1 || !ok2 {
			return cont
		}
		if jc != nil {
			if bucket, ok := jc.Probe(ca.RK, s.Pos, s.Pos2, id1, id2); ok {
				for _, ix := range bucket {
					if !try(int(ix)) {
						break
					}
				}
				return cont
			}
		}
		// No table prepared: seek the first position, Match filters the
		// second — same matches, same insertion order.
		st.DB.ForEachIndexWithID(ca.RK, s.Pos, id1, try)
	case AccessSeek:
		id, ok := st.posIDOf(ca, s.Pos)
		if !ok {
			return cont
		}
		st.DB.ForEachIndexWithID(ca.RK, s.Pos, id, try)
	default: // AccessScan
		n := st.DB.RelSize(ca.RK)
		for ix := 0; ix < n; ix++ {
			if !try(ix) {
				break
			}
		}
	}
	return cont
}

// PackIDs appends the packed id tuple of ca's instantiation under the
// current bindings to dst (the id-slice sibling of PackApplied, pairing
// with Database.SeenIDs). ok is false when a position is an unbound
// variable or an unresolved ground term.
func (st *State) PackIDs(dst []uint32, ca *CAtom) ([]uint32, bool) {
	for k := range ca.Pos {
		id, ok := st.posIDOf(ca, k)
		if !ok {
			return dst, false
		}
		dst = append(dst, id)
	}
	return dst, true
}
