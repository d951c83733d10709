package datalog

import (
	"encoding/binary"
	"fmt"
	"runtime/debug"
	"sort"

	"guardedrules/internal/budget"
	"guardedrules/internal/core"
	"guardedrules/internal/database"
	"guardedrules/internal/hom"
	"guardedrules/internal/par"
)

// factKey returns a canonical injective byte encoding of a ground atom,
// used as the map key of the incremental bookkeeping sets. Atom.String
// is NOT injective (a constant named "a, b" renders like two arguments),
// so the key is built from length-prefixed fields: relation name,
// annotation terms, argument terms, each term tagged with its kind.
func factKey(a core.Atom) string {
	b := make([]byte, 0, 16+2*len(a.Relation))
	b = binary.AppendUvarint(b, uint64(len(a.Relation)))
	b = append(b, a.Relation...)
	b = binary.AppendUvarint(b, uint64(len(a.Annotation)))
	for _, t := range a.Annotation {
		b = appendTermKey(b, t)
	}
	b = binary.AppendUvarint(b, uint64(len(a.Args)))
	for _, t := range a.Args {
		b = appendTermKey(b, t)
	}
	return string(b)
}

func appendTermKey(b []byte, t core.Term) []byte {
	b = append(b, byte(t.Kind))
	b = binary.AppendUvarint(b, uint64(len(t.Name)))
	return append(b, t.Name...)
}

// Delta is the net answer-set change of one Apply: the facts present
// after the batch but not before, and vice versa. Both slices are sorted
// by canonical fact key, so equal deltas are structurally identical.
type Delta struct {
	Added   []core.Atom
	Removed []core.Atom
}

// Maintained is an incrementally maintained fixpoint: a compiled program
// together with its current materialization and the base (explicit) fact
// set. Apply folds a batch of base-fact insertions and retractions into
// the materialization without recomputing it from scratch — insertion
// resumes the semi-naive fixpoint with the new facts as the initial
// delta, deletion runs DRed (delete-and-rederive) over the stratified
// program — and the maintained database is always byte-identical
// (Database.String) to a from-scratch evaluation of the current base, at
// any worker count.
//
// A Maintained value is not safe for concurrent use; callers serialize
// Apply (the serving layer holds one writer per mutable DB). The
// databases returned by Current and Apply are immutable snapshots:
// Apply never mutates a previously returned database.
type Maintained struct {
	p    *Program
	cur  *database.Database
	base map[string]core.Atom
	// baseConst counts, per constant, its occurrences across the base
	// facts (arguments and annotation, with multiplicity). Maintained
	// only for ACDom-reading programs (nil otherwise): the retraction
	// cascade uses it to decide in O(1) whether a constant's domain
	// membership is still grounded in the base after the staged batch.
	baseConst map[core.Term]int
}

// constOccs calls fn for every constant occurrence of f (arguments and
// annotation, with multiplicity).
func constOccs(f core.Atom, fn func(core.Term)) {
	for _, t := range f.Args {
		if t.IsConst() {
			fn(t)
		}
	}
	for _, t := range f.Annotation {
		if t.IsConst() {
			fn(t)
		}
	}
}

// NewMaintained evaluates the program over base and returns a maintained
// handle positioned at that fixpoint. The base fact set is snapshotted
// from base.UserFacts(); explicitly added ACDom facts are not part of it
// and cannot be retracted through Apply.
func NewMaintained(p *Program, base database.Store, opts Options) (*Maintained, error) {
	fix, err := p.Eval(base, opts)
	if err != nil {
		return nil, err
	}
	m := &Maintained{p: p, cur: fix, base: make(map[string]core.Atom, base.Len())}
	if p.readsACDom {
		m.baseConst = make(map[core.Term]int)
	}
	for _, f := range base.UserFacts() {
		m.base[factKey(f)] = f
		if m.baseConst != nil {
			constOccs(f, func(t core.Term) { m.baseConst[t]++ })
		}
	}
	return m, nil
}

// Program returns the compiled program of the handle.
func (m *Maintained) Program() *Program { return m.p }

// Current returns the current materialized fixpoint. The returned
// database must be treated as read-only; it remains valid (and
// unchanged) after subsequent Apply calls.
func (m *Maintained) Current() *database.Database { return m.cur }

// BaseLen returns the number of base (explicit) facts.
func (m *Maintained) BaseLen() int { return len(m.base) }

// Apply folds a batch of base-fact mutations into the maintained
// fixpoint: retractions are staged first, then additions (so a retract
// and an add of the same fact in one batch cancel). Facts retracted that
// are not in the base, and facts added that already are, are ignored.
// On success it returns the new materialization and the net delta of the
// derived fact set. On any error — budget exhaustion (checkpoints run
// through the same tracker as every other engine), a contained panic, a
// non-ground fact — the handle is unchanged: the current materialization
// is still the pre-batch version.
func (m *Maintained) Apply(add, retract []core.Atom, opts Options) (res *database.Database, delta Delta, err error) {
	// Stage the batch against the base set.
	baseDel := make(map[string]core.Atom)
	for _, f := range retract {
		if !f.IsGround() {
			return nil, Delta{}, fmt.Errorf("datalog: apply: retract %s: %w", f, database.ErrNotGround)
		}
		k := factKey(f)
		if _, ok := m.base[k]; ok {
			baseDel[k] = f
		}
	}
	baseAdd := make(map[string]core.Atom)
	for _, f := range add {
		if !f.IsGround() {
			return nil, Delta{}, fmt.Errorf("datalog: apply: add %s: %w", f, database.ErrNotGround)
		}
		k := factKey(f)
		if _, ok := baseDel[k]; ok {
			delete(baseDel, k)
			continue
		}
		if _, ok := m.base[k]; ok {
			continue
		}
		baseAdd[k] = f
	}
	if len(baseAdd)+len(baseDel) == 0 {
		return m.cur, Delta{}, nil
	}
	inBase := func(k string) bool {
		if _, ok := baseAdd[k]; ok {
			return true
		}
		if _, ok := baseDel[k]; ok {
			return false
		}
		_, ok := m.base[k]
		return ok
	}

	// Net and gross change tracking. The net sets cancel (a fact deleted
	// then rederived never surfaces in the delta); the gross logs drive
	// the DRed frontiers and the forced deltas, in event order.
	addedSet := make(map[string]core.Atom)
	removedSet := make(map[string]core.Atom)
	var grossAdds, grossDels []core.Atom
	noteAdd := func(a core.Atom) {
		k := factKey(a)
		if _, ok := removedSet[k]; ok {
			delete(removedSet, k)
		} else {
			addedSet[k] = a
		}
		grossAdds = append(grossAdds, a)
	}
	noteDel := func(a core.Atom) {
		k := factKey(a)
		if _, ok := addedSet[k]; ok {
			delete(addedSet, k)
		} else {
			removedSet[k] = a
		}
		grossDels = append(grossDels, a)
	}

	tk := budget.Start(opts.Budget)
	defer tk.Stop()
	// Same panic seam as Program.Eval: a fault anywhere in maintenance
	// surfaces as one failed batch, with the handle untouched.
	defer func() {
		if v := recover(); v != nil {
			res, delta, err = nil, Delta{}, fmt.Errorf("datalog: apply: %w",
				&par.PanicError{Unit: -1, Value: v, Stack: debug.Stack()})
		}
	}()

	// occDelta is the batch's net effect on base constant occurrences;
	// together with baseConst it answers "does the post-batch base still
	// contain t" during the retraction cascade of ACDom-reading programs.
	var occDelta map[core.Term]int
	if m.baseConst != nil {
		occDelta = make(map[core.Term]int)
		for _, f := range baseDel {
			constOccs(f, func(t core.Term) { occDelta[t]-- })
		}
		for _, f := range baseAdd {
			constOccs(f, func(t core.Term) { occDelta[t]++ })
		}
	}

	addsList := sortedFacts(baseAdd)
	var work *database.Database
	if len(baseDel) == 0 && !m.p.hasNeg {
		work, err = m.applyMonotone(addsList, opts, tk, noteAdd)
	} else {
		work, err = m.applyDRed(addsList, sortedFacts(baseDel), inBase, occDelta, opts, tk, noteAdd, noteDel, &grossAdds, &grossDels, addedSet, removedSet)
	}
	if err != nil {
		return nil, Delta{}, err
	}

	// Commit: the staged base changes and the new materialization become
	// visible atomically from the caller's perspective (no error path
	// below this point).
	for k := range baseDel {
		delete(m.base, k)
	}
	for k, f := range baseAdd {
		m.base[k] = f
	}
	if m.baseConst != nil {
		for t, n := range occDelta {
			if m.baseConst[t] += n; m.baseConst[t] <= 0 {
				delete(m.baseConst, t)
			}
		}
	}
	m.cur = work
	return work, Delta{Added: sortedFactVals(addedSet), Removed: sortedFactVals(removedSet)}, nil
}

// applyMonotone is the insertion-only fast path for programs without
// negation: the fixpoint is monotone in the base, so resuming the
// semi-naive loop with the inserted facts as the initial delta computes
// exactly the from-scratch fixpoint of the grown base.
func (m *Maintained) applyMonotone(adds []core.Atom, opts Options, tk *budget.Tracker, noteAdd func(core.Atom)) (*database.Database, error) {
	work := m.cur.Clone()
	var grossAdds []core.Atom
	onAdd := func(a core.Atom) { grossAdds = append(grossAdds, a); noteAdd(a) }
	for i := range m.p.strata {
		cs := &m.p.strata[i]
		items := instantiate(cs.items)
		jc := hom.NewJoinCache(work)
		var bufs [][]core.Atom
		if i == 0 {
			bufs = [][]core.Atom{adds}
		}
		// Everything inserted so far — the batch plus all lower-strata
		// derivations — is the initial delta of this stratum: any new
		// firing of a stratum-i rule must use at least one of them.
		force := grossAdds[:len(grossAdds):len(grossAdds)]
		if err := runDeltaRounds(items, work, opts, tk, jc, m.noteBuilds(jc, opts.Stats), bufs, force, onAdd); err != nil {
			return nil, fmt.Errorf("datalog: apply: stratum %d: %w", i, err)
		}
	}
	return work, nil
}

// applyDRed handles batches with deletions (or programs with negation,
// where even pure insertions can retract derived facts) by
// delete-and-rederive, stratum by stratum: over-delete every derivation
// that may have used a deleted fact or become blocked by an added one
// (phase D, joined against the pristine pre-batch database — a safe
// over-approximation), re-add over-deleted facts still in the base or
// still one-step derivable (phase R), then resume the semi-naive
// insertion rounds with the rederived and added facts as the delta
// (phase I, including firings newly unblocked by deletions).
//
// Every deletion runs through retractCascade: for ACDom-reading
// programs, a constant whose last trusted support dies drags its
// remaining (possibly self-supporting) derived supports into the
// frontier too — see the method comment for why refcounts alone
// under-delete there.
func (m *Maintained) applyDRed(adds, dels []core.Atom, inBase func(string) bool, occDelta map[core.Term]int, opts Options, tk *budget.Tracker, noteAdd, noteDel func(core.Atom), grossAdds, grossDels *[]core.Atom, addedSet, removedSet map[string]core.Atom) (*database.Database, error) {
	old := m.cur
	work := old.Clone()
	js := opts.Stats
	maxFacts := 0
	if opts.Budget != nil {
		maxFacts = opts.Budget.MaxFacts
	}

	// Base retractions come first; cascaded ACDom deaths ride the same
	// notification into the deletion frontier.
	for _, f := range dels {
		if err := m.retractCascade(work, f, 0, occDelta, tk, noteDel); err != nil {
			return nil, fmt.Errorf("datalog: apply: retract %s: %w", f, err)
		}
	}

	for i := range m.p.strata {
		cs := &m.p.strata[i]
		jcOld := hom.NewJoinCache(old)
		jc := hom.NewJoinCache(work)

		// Phase D: over-deletion. Joins run against the frozen pre-batch
		// database — every derivation that existed before the batch and
		// touched a deleted fact (or was blocked-to-be by an added one)
		// is a deletion candidate; rederivation repairs the overshoot.
		dItems := instantiate(cs.items)
		for j := range dItems {
			dItems[j].resolve(old)
			dItems[j].replan(old, jcOld, js)
		}
		deleteHeads := func(cands []core.Atom) error {
			for _, h := range cands {
				if !work.Has(h) {
					continue
				}
				if err := m.retractCascade(work, h, i, occDelta, tk, noteDel); err != nil {
					return fmt.Errorf("datalog: apply: over-delete %s: %w", h, err)
				}
			}
			return nil
		}
		if len(cs.negItems) > 0 && len(*grossAdds) > 0 {
			// Block sweep: an added fact matching a negated literal kills
			// the firings it now blocks. The template's own negated
			// literals are checked against the pre-batch database, so a
			// fact that was already present (e.g. over-deleted elsewhere
			// and rederived) blocks nothing spuriously.
			bItems := instantiate(cs.negItems)
			for j := range bItems {
				bItems[j].resolve(old)
				bItems[j].replan(old, jcOld, js)
			}
			cands, err := sweepMatches(bItems, old, (*grossAdds)[:len(*grossAdds):len(*grossAdds)], jcOld, tk)
			if err != nil {
				return nil, err
			}
			if err := deleteHeads(cands); err != nil {
				return nil, err
			}
		}
		for cursor := 0; cursor < len(*grossDels); {
			// Round checkpoint: FailAt injection and cancellation observe
			// over-deletion rounds exactly like semi-naive merge rounds.
			if err := tk.Check(); err != nil {
				return nil, err
			}
			batch := (*grossDels)[cursor:]
			cursor = len(*grossDels)
			cands, err := sweepMatches(dItems, old, batch, jcOld, tk)
			if err != nil {
				return nil, err
			}
			if err := deleteHeads(cands); err != nil {
				return nil, err
			}
		}

		// Phase R: rederivation. An over-deleted fact of this stratum's
		// head relations returns if it is in the effective new base, or
		// if some surviving body instantiation still derives it (the
		// diamond case: a retracted base fact that is independently
		// derivable must not lose its derived copy).
		rItems := instantiate(cs.redItems)
		for j := range rItems {
			rItems[j].resolve(work)
			rItems[j].replan(work, jc, js)
		}
		readds := 0
		for _, k := range sortedKeys(removedSet) {
			f, live := removedSet[k]
			if !live || f.Relation == core.ACDom || !cs.headRels[f.Key()] {
				continue
			}
			if !inBase(k) && !oneStepDerivable(&f, rItems, work, jc, tk) {
				continue
			}
			if maxFacts > 0 && tk.Usage().Facts+readds+work.AddCost(f) > maxFacts {
				tk.AddFacts(readds)
				return nil, tk.Exhausted(budget.ErrFactLimit)
			}
			if _, err := work.AddNotify(f, func(a core.Atom) { noteAdd(a); readds++ }); err != nil {
				return nil, fmt.Errorf("datalog: apply: rederive %s: %w", f, err)
			}
		}
		tk.AddFacts(readds)
		if err := tk.Check(); err != nil {
			return nil, err
		}

		// Phase I: insertion. Deletions may have unblocked firings of
		// this stratum's negated rules — their heads join the candidate
		// buffers (the emitter re-checks every negated literal against
		// the current database, so nothing still blocked fires). The
		// batch additions are offered at EVERY stratum, not just the
		// first: a batch-added fact of a higher-stratum head relation can
		// be over-deleted by that stratum's phase D after it merged at
		// stratum 0, and phase R only watches the net-removed set (the
		// deletion canceled against the earlier add). The merge dedups,
		// so re-offering already-present facts costs one lookup each.
		var bufs [][]core.Atom
		if len(adds) > 0 {
			bufs = append(bufs, adds)
		}
		if len(cs.negItems) > 0 && len(*grossDels) > 0 {
			uItems := instantiate(cs.negItems)
			for j := range uItems {
				uItems[j].resolve(work)
				uItems[j].replan(work, jc, js)
			}
			ubuf, err := unblockCandidates(uItems, work, (*grossDels)[:len(*grossDels):len(*grossDels)], jc, tk)
			if err != nil {
				return nil, err
			}
			if len(ubuf) > 0 {
				bufs = append(bufs, ubuf)
			}
		}
		items := instantiate(cs.items)
		force := (*grossAdds)[:len(*grossAdds):len(*grossAdds)]
		if err := runDeltaRounds(items, work, opts, tk, jc, m.noteBuilds(jc, js), bufs, force, noteAdd); err != nil {
			return nil, fmt.Errorf("datalog: apply: stratum %d: %w", i, err)
		}
	}
	return work, nil
}

// retractCascade removes f from work (with ACDom refcount maintenance
// via DeleteNotify) and closes the refcount blind spot of ACDom-reading
// programs: ACDom is maintained by occurrence counting, and counting is
// unsound under deletion once rules derive facts FROM domain membership
// — with `ACDom(X) -> R(X)`, the derived R(c) supports its own ACDom(c)
// guard, so retracting the last real support leaves the pair alive on
// mutual support and DRed's phase D never sees the ACDom deletion.
//
// The repair is a trusted-support test per constant of every deleted
// fact: a constant is trusted while the post-batch base still contains
// it (baseConst adjusted by occDelta), its ACDom fact is explicitly
// pinned, or it occurs in a fact of a relation whose last deriving
// stratum precedes the current one (those facts are final — phase D
// can no longer touch them — and base facts exist from stratum 0, so
// the timing matches a from-scratch stratified run). When a deletion
// drops an occurrence of an untrusted constant, every remaining fact
// containing it is suspect of circular support and joins the deletion
// worklist; the last support's DeleteNotify then retracts ACDom(c) with
// notification, feeding DRed's frontier. All of this is a safe
// over-approximation in the DRed sense: the suspect facts sit at
// strata >= the current one (a surviving earlier-stratum fact would
// have made the constant trusted), so their rederivation phases are
// still ahead and restore whatever a surviving derivation justifies.
//
// Programs that never read ACDom skip the test entirely: their ACDom
// facts have no consequences, and refcounts alone maintain them
// exactly.
func (m *Maintained) retractCascade(work *database.Database, f core.Atom, stratum int, occDelta map[core.Term]int, tk *budget.Tracker, noteDel func(core.Atom)) error {
	if !m.p.readsACDom {
		_, err := work.DeleteNotify(f, noteDel)
		return err
	}
	trusted := func(t core.Term) bool {
		if m.baseConst[t]+occDelta[t] > 0 || work.ACDomPinned(t) {
			return true
		}
		for rk, last := range m.p.lastStratum {
			if last < stratum && work.TermOccursIn(rk, t) {
				return true
			}
		}
		return false
	}
	// cascaded marks constants whose remaining supports were already
	// enqueued in this call: every fact on the worklist is deleted before
	// returning, so re-testing them while the queue drains is redundant.
	var cascaded map[core.Term]bool
	queue := []core.Atom{f}
	for n := 0; len(queue) > 0; n++ {
		if n%64 == 63 {
			// Checkpoint: a huge cascade observes cancellation and FailAt
			// injection like every other engine loop.
			if err := tk.Check(); err != nil {
				return err
			}
		}
		a := queue[0]
		queue = queue[1:]
		removed, err := work.DeleteNotify(a, noteDel)
		if err != nil {
			return err
		}
		if !removed || a.Relation == core.ACDom {
			continue
		}
		constOccs(a, func(t core.Term) {
			if cascaded[t] || work.ACDomSupport(t) == 0 || trusted(t) {
				return // refcount already cascaded, or membership still grounded
			}
			if cascaded == nil {
				cascaded = make(map[core.Term]bool)
			}
			cascaded[t] = true
			queue = append(queue, work.FactsContaining(t)...)
		})
	}
	return nil
}

// noteBuilds returns the hash-table counter hook shared with
// evalStratum, bound to one join cache.
func (m *Maintained) noteBuilds(jc *hom.JoinCache, js *JoinStats) func() {
	prev := 0
	return func() {
		if js != nil && jc.Builds() != prev {
			js.HashTables.Add(int64(jc.Builds() - prev))
		}
		prev = jc.Builds()
	}
}

// collector is the phase-D match sink: unlike the emitter it
// materializes every ground head — facts already present are exactly the
// over-deletion candidates — deduplicating within one item via the
// packed-id keyset. Negated literals are checked against the same frozen
// database the join runs over.
type collector struct {
	c       *citem
	st      *hom.State
	db      *database.Database
	tk      *budget.Tracker
	out     []core.Atom
	local   keyset
	scratch []uint32
	polls   int
}

func (e *collector) leaf() bool {
	if e.polls++; e.polls%pollInterval == 0 && e.tk.Canceled() {
		return false
	}
	c := e.c
	for i := range c.neg {
		ids, ok := e.st.PackIDs(e.scratch[:0], &c.neg[i])
		if ok && e.db.SeenIDs(c.neg[i].RK, ids) {
			return true
		}
	}
	for i := range c.heads {
		h := &c.heads[i]
		ids, ok := e.st.PackIDs(e.scratch[:0], h)
		if !ok {
			e.out = append(e.out, e.st.Materialize(h))
			continue
		}
		if !e.local.add(uint32(i), ids) {
			continue
		}
		e.out = append(e.out, e.st.Materialize(h))
	}
	return true
}

// sweepMatches matches each fact's id tuple against every item whose
// pattern relation matches and collects all ground heads of the
// resulting body matches in db. Facts with terms never interned in db
// are skipped: no derivation in db can have touched them.
func sweepMatches(items []citem, db *database.Database, facts []core.Atom, jc *hom.JoinCache, tk *budget.Tracker) ([]core.Atom, error) {
	groups := groupTuples(db, facts)
	var out []core.Atom
	for i := range items {
		c := &items[i]
		g := groups[c.pattern.RK]
		if g == nil || !c.patternOK() {
			continue
		}
		em := &collector{c: c, st: hom.NewState(db, c.t.nvars), db: db, tk: tk,
			scratch: make([]uint32, 0, 16)}
		w := c.pattern.RK.Arity + c.pattern.RK.AnnArity
		for j := 0; j < g.n; j++ {
			mark := em.st.Mark()
			if em.st.Match(&c.pattern, g.ids[j*w:(j+1)*w]) {
				if !em.st.SearchPlan(c.rest, &c.plan, jc, em.leaf) {
					em.st.Unwind(mark)
					if err := tk.Check(); err != nil {
						return nil, err
					}
				}
			}
			em.st.Unwind(mark)
		}
		out = append(out, em.out...)
	}
	return out, nil
}

// unblockCandidates matches deleted facts against the negated-literal
// templates over the CURRENT database: a deletion that falsified a
// negated literal may have unblocked firings. The emitter's leaf
// re-checks every negated literal (including the pattern's own) against
// the current database and skips heads already present, so the returned
// atoms are genuine insertion candidates.
func unblockCandidates(items []citem, db *database.Database, facts []core.Atom, jc *hom.JoinCache, tk *budget.Tracker) ([]core.Atom, error) {
	groups := groupTuples(db, facts)
	var out []core.Atom
	for i := range items {
		c := &items[i]
		g := groups[c.pattern.RK]
		if g == nil || !c.patternOK() {
			continue
		}
		em := &emitter{c: c, st: hom.NewState(db, c.t.nvars), db: db, tk: tk,
			scratch: make([]uint32, 0, 16)}
		w := c.pattern.RK.Arity + c.pattern.RK.AnnArity
		for j := 0; j < g.n; j++ {
			mark := em.st.Mark()
			if em.st.Match(&c.pattern, g.ids[j*w:(j+1)*w]) {
				if !em.st.SearchPlan(c.rest, &c.plan, jc, em.leaf) {
					em.st.Unwind(mark)
					if err := tk.Check(); err != nil {
						return nil, err
					}
				}
			}
			em.st.Unwind(mark)
		}
		out = append(out, em.out...)
	}
	return out, nil
}

// tupleGroup is a flat list of same-relation id tuples.
type tupleGroup struct {
	n   int
	ids []uint32
}

func groupTuples(db *database.Database, facts []core.Atom) map[core.RelKey]*tupleGroup {
	groups := make(map[core.RelKey]*tupleGroup)
	var scratch []uint32
	for _, f := range facts {
		ids, ok := db.FactIDs(scratch[:0], f)
		if !ok {
			continue
		}
		rk := f.Key()
		g := groups[rk]
		if g == nil {
			g = &tupleGroup{}
			groups[rk] = g
		}
		g.ids = append(g.ids, ids...)
		g.n++
	}
	return groups
}

// oneStepDerivable reports whether some body instantiation in db still
// derives f, by matching f against the head-pattern templates of its
// stratum and searching the positive body, with every negated literal
// checked against db.
func oneStepDerivable(f *core.Atom, items []citem, db *database.Database, jc *hom.JoinCache, tk *budget.Tracker) bool {
	var tuple []uint32
	rk := f.Key()
	for i := range items {
		c := &items[i]
		if c.pattern.RK != rk || !c.patternOK() {
			continue
		}
		ids, ok := db.FactIDs(tuple[:0], *f)
		if !ok {
			return false
		}
		tuple = ids
		st := hom.NewState(db, c.t.nvars)
		found := false
		polls := 0
		var scratch []uint32
		mark := st.Mark()
		if st.Match(&c.pattern, tuple) {
			st.SearchPlan(c.rest, &c.plan, jc, func() bool {
				if polls++; polls%pollInterval == 0 && tk.Canceled() {
					return false
				}
				for k := range c.neg {
					nids, ok := st.PackIDs(scratch[:0], &c.neg[k])
					if ok && db.SeenIDs(c.neg[k].RK, nids) {
						return true // this instantiation is blocked; keep searching
					}
				}
				found = true
				return false
			})
		}
		st.Unwind(mark)
		if found {
			return true
		}
	}
	return false
}

func sortedFacts(m map[string]core.Atom) []core.Atom {
	keys := sortedKeys(m)
	out := make([]core.Atom, 0, len(keys))
	for _, k := range keys {
		out = append(out, m[k])
	}
	return out
}

func sortedFactVals(m map[string]core.Atom) []core.Atom {
	if len(m) == 0 {
		return nil
	}
	return sortedFacts(m)
}

func sortedKeys(m map[string]core.Atom) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
