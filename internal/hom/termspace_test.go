package hom

import "guardedrules/internal/core"

// This file keeps the term-space homomorphism search — substitution maps
// instead of id slots — as the enumeration-order oracle of the id-space
// searcher: idspace_test.go checks that State.ForEach enumerates exactly
// the homomorphisms of ForEach below, in the same order. The engines
// derive their determinism (the chase its null numbering, core
// computation its retraction) from that order.

// ForEach enumerates homomorphisms h extending init such that h(atoms) ⊆
// db, calling fn for each. Enumeration stops early when fn returns false.
// ForEach reports whether enumeration ran to completion (i.e. fn never
// returned false). Atoms must not contain negated literals; only variables
// are free (nulls in atoms must match exactly).
//
// For performance the search binds variables in place: fn receives the
// shared substitution, valid only for the duration of the call — clone it
// to retain it. The init map is used as the working map and is restored
// to its original contents when ForEach returns.
func ForEach(atoms []core.Atom, db DB, init core.Subst, fn func(core.Subst) bool) bool {
	s := init
	if s == nil {
		s = core.Subst{}
	}
	return search(atoms, make([]bool, len(atoms)), db, s, fn)
}

// search backtracks over the unmatched atoms, always expanding the most
// constrained one (fewest candidate facts under the current substitution).
// Bindings are made in place on the shared substitution and undone via a
// trail, so no maps are cloned on the hot path; callbacks receive the
// shared map and must copy it if they retain it.
func search(atoms []core.Atom, done []bool, db DB, s core.Subst, fn func(core.Subst) bool) bool {
	best := -1
	bestCount := -1
	bestPos := -1
	var bestID uint32
	for i, a := range atoms {
		if done[i] {
			continue
		}
		pos, id, count := bestIndex(a, db, s)
		if best == -1 || count < bestCount {
			best, bestCount, bestPos, bestID = i, count, pos, id
			if count == 0 {
				return true // dead branch
			}
		}
	}
	if best == -1 {
		return fn(s)
	}
	done[best] = true
	defer func() { done[best] = false }()
	pattern := atoms[best]
	rk := pattern.Key()
	cont := true
	try := func(fact core.Atom) bool {
		trail, ok := MatchInPlace(pattern, fact, s)
		if ok {
			if !search(atoms, done, db, s, fn) {
				cont = false
			}
		}
		for _, v := range trail {
			delete(s, v)
		}
		return cont
	}
	if bestPos >= 0 {
		db.ForEachWithID(rk, bestPos, bestID, try)
	} else {
		db.ForEachFact(rk, try)
	}
	return cont
}

// bestIndex picks the tightest index for the pattern under the current
// bindings: the ground position with the fewest facts, or the whole
// relation when no position is ground. It returns the flat position (-1
// for a full scan), the interned id of its term, and the candidate count.
// Terms are resolved to database ids once here, so the subsequent index
// scan avoids re-hashing term structs.
func bestIndex(pattern core.Atom, db DB, s core.Subst) (int, uint32, int) {
	rk := pattern.Key()
	bestPos := -1
	var bestID uint32
	bestCount := db.RelSize(rk)
	consider := func(flatPos int, t core.Term) {
		if t.IsVar() {
			t = s.Apply(t)
			if t.IsVar() {
				return
			}
		}
		// A term the database has never interned occurs in no fact: the
		// position has zero candidates and the branch is dead.
		c := 0
		var id uint32
		if tid, ok := db.TermID(t); ok {
			id = tid
			c = db.CountWithID(rk, flatPos, tid)
		}
		if c < bestCount || bestPos == -1 && c <= bestCount {
			bestCount = c
			bestPos = flatPos
			bestID = id
		}
	}
	for i, t := range pattern.Args {
		consider(i, t)
	}
	for i, t := range pattern.Annotation {
		consider(len(pattern.Args)+i, t)
	}
	return bestPos, bestID, bestCount
}
