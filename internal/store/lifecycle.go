package store

import (
	"repro/internal/spec"
	"repro/internal/txn"
)

// This file is the store's half of the lifecycle layer (internal/
// lifecycle): the lock that lets a garbage-collection sweep exclude
// mutations, the pin registry that keeps in-progress build DAGs out of
// the collectable set, and the lock-free record-removal staging a sweep
// uses while it holds the lifecycle lock itself.

// MarkImplicit clears an installed configuration's explicit flag — the
// inverse of MarkExplicit. A demoted root stops anchoring its dependency
// cone in the garbage collector's live set; anything no other root (or
// env lockfile) reaches becomes reclaimable. Reports whether the
// configuration was present.
func (st *Store) MarkImplicit(s *spec.Spec) bool {
	return st.index.Demote(s.FullHash())
}

// Pin marks full DAG hashes as live for lifecycle sweeps, returning a
// release function. The builder pins a DAG's nodes for the duration of a
// build, so implicit dependencies installed mid-DAG — not yet referenced
// by any indexed root — are never collected out from under the nodes
// about to link against them. Pins nest: a hash stays pinned until every
// Pin covering it has been released.
func (st *Store) Pin(hashes ...string) func() {
	st.pinMu.Lock()
	for _, h := range hashes {
		st.pins[h]++
	}
	st.pinMu.Unlock()
	released := false
	return func() {
		st.pinMu.Lock()
		defer st.pinMu.Unlock()
		if released {
			return
		}
		released = true
		for _, h := range hashes {
			if st.pins[h]--; st.pins[h] <= 0 {
				delete(st.pins, h)
			}
		}
	}
}

// Pinned snapshots the currently pinned hash set.
func (st *Store) Pinned() map[string]bool {
	st.pinMu.Lock()
	defer st.pinMu.Unlock()
	out := make(map[string]bool, len(st.pins))
	for h := range st.pins {
		out[h] = true
	}
	return out
}

// Quiesce runs fn while holding the lifecycle lock exclusively: every
// install and uninstall transaction holds it for its whole duration, so
// inside fn no mutation overlaps — the garbage collector's
// window for computing a live set and staging deletions against a store
// that cannot shift underneath it. In-flight installs finish before fn
// starts; new ones wait until it returns.
func (st *Store) Quiesce(fn func() error) error {
	st.gcMu.Lock()
	defer st.gcMu.Unlock()
	return fn()
}

// ForgetTxn stages the removal of one installed record — index record
// plus prefix tree (externals keep their site-owned prefix) — into a
// caller-owned transaction, exactly like UninstallTxn but without
// dependent checks or the lifecycle lock: it exists for the
// garbage collector, which holds the lock exclusively (via Quiesce) and
// has already established that nothing live references the record.
// The record leaves the in-memory index immediately; a rollback hook
// restores it. Reports whether the hash was present.
func (st *Store) ForgetTxn(t *txn.Txn, hash string) bool {
	r, ok := st.index.Lookup(hash)
	if !ok {
		return false
	}
	st.index.Remove(hash)
	t.OnRollback(func() { st.index.Insert(hash, r) })
	t.StageRemoveRecord(hash)
	if !r.Spec.External {
		t.StageRemovePrefix(r.Prefix)
	}
	return true
}
