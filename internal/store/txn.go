package store

import (
	"errors"
	"fmt"

	"repro/internal/spec"
	"repro/internal/syntax"
	"repro/internal/txn"
)

// journalDirName is the write-ahead journal directory, a sibling of the
// database shards under <root>/.spack-db.
const journalDirName = "journal"

// JournalDir returns the store's transaction journal directory. Views and
// module generators journal into the same directory, so one transaction
// covers mutations across all the layers the store anchors.
func (st *Store) JournalDir() string { return st.dbDir() + "/" + journalDirName }

// applier applies journaled record operations to this store's index.
// sync selects whether Commit/Recover also persist the database:
// environment-level transactions and crash recovery do; per-node auto
// transactions leave persistence to the caller's explicit Save, matching
// the historical Install contract.
type applier struct {
	st   *Store
	sync bool
}

func (a applier) InsertRecord(hash string, specJSON []byte, prefix string, meta txn.RecordMeta) error {
	if _, ok := a.st.index.Lookup(hash); ok {
		// Replay over a live index (or a recovered record): converge.
		if meta.Explicit {
			a.st.index.Promote(hash)
		}
		return nil
	}
	s, err := syntax.DecodeJSON(specJSON)
	if err != nil {
		return fmt.Errorf("store: corrupt journal record %s: %w", hash, err)
	}
	a.st.index.Insert(hash, &Record{Spec: s, Prefix: prefix, Explicit: meta.Explicit,
		Origin: meta.Origin, SplicedFrom: meta.SplicedFrom, Lineage: meta.Lineage})
	return nil
}

func (a applier) RemoveRecord(hash string) error {
	a.st.index.Remove(hash)
	return nil
}

func (a applier) Sync() error {
	if !a.sync {
		return nil
	}
	return a.st.Save()
}

// Applier returns the store-side applier for transaction commit and
// recovery: record operations land in this store's index and Sync
// persists the database.
func (st *Store) Applier() txn.Applier { return applier{st: st, sync: true} }

// Recover replays committed journals and rolls back interrupted ones,
// restoring the all-or-nothing guarantee after a crash. Open calls it
// automatically; it is exported for tests and tooling. When anything was
// replayed the database is saved.
func (st *Store) Recover() (txn.RecoverStats, error) {
	return txn.Recover(st.FS, st.JournalDir(), applier{st: st, sync: true})
}

// InstallTxn is Install staged into a caller-owned transaction, carrying
// full record metadata: the origin label (source build, binary-cache
// pull, splice; externals are always recorded as OriginExternal) plus
// splice provenance, so a spliced or re-pulled install records what it
// was rewired from. The prefix is journaled before creation and the index
// record is staged as a redo operation, so t.Commit/Rollback (or crash
// recovery) moves all of the transaction's installs together. A nil
// transaction gives each install its own journaled transaction, committed
// before returning — the Install behaviour.
//
// The record is inserted into the in-memory index immediately (not at
// commit), so later work in the same transaction — dependency prefix
// lookups, view computation — sees it; a rollback hook takes it back out.
func (st *Store) InstallTxn(t *txn.Txn, s *spec.Spec, meta txn.RecordMeta, builder func(prefix string) error) (*Record, bool, error) {
	if !s.NodeConcrete() {
		return nil, false, &InstallError{Spec: s.String(), Err: fmt.Errorf("spec is not concrete")}
	}
	hash := s.FullHash()
	if r, ok := st.lookupPromote(hash, meta.Explicit); ok {
		return r, false, nil
	}

	// Hold the lifecycle lock shared for the whole install (including the
	// waiter path), so a garbage-collection sweep never observes — or
	// deletes — a half-made prefix. InstallTxn never nests within itself,
	// so the shared lock cannot self-deadlock against a waiting sweep.
	st.gcMu.RLock()
	defer st.gcMu.RUnlock()

	// A caller arriving while another goroutine builds this configuration
	// waits for it and shares the result.
	ran := false
	rec, shared, err := st.flights.Do(hash, func() (*Record, error) {
		r, leaderRan, err := st.installLeader(t, s, hash, meta, builder)
		ran = leaderRan
		return r, err
	})
	if err != nil {
		return nil, false, err
	}
	if shared && meta.Explicit {
		st.index.Promote(hash)
	}
	return rec, ran, nil
}

// installLeader performs the actual build + record staging for the single
// flight leader of a hash.
func (st *Store) installLeader(t *txn.Txn, s *spec.Spec, hash string, meta txn.RecordMeta, builder func(prefix string) error) (*Record, bool, error) {
	// Re-check under the flight: a previous leader may have finished
	// between our fast-path miss and flight registration.
	if r, ok := st.lookupPromote(hash, meta.Explicit); ok {
		return r, false, nil
	}

	auto := t == nil
	if auto {
		t = txn.Begin(st.FS, st.JournalDir())
	}
	// fail aborts this node's install: an auto transaction rolls back
	// whole; a shared one keeps its other work and lets the owner decide.
	fail := func(err error) (*Record, bool, error) {
		if auto {
			_ = t.Rollback()
		}
		return nil, false, &InstallError{Spec: s.String(), Err: err}
	}

	prefix := st.Prefix(s)
	ran := false
	if s.External {
		// Externals are recorded but never built or written (§4.4).
		prefix = s.Path
		meta.Origin = OriginExternal
	} else {
		ran = true
		// Journal the prefix before its first byte exists, so a crash at
		// any later point lets recovery remove the partial tree.
		if err := t.RecordPrefix(prefix); err != nil {
			return fail(err)
		}
		if err := st.FS.MkdirAll(prefix); err != nil {
			return fail(err)
		}
		if err := builder(prefix); err != nil {
			// Clean the partial prefix so a retry starts fresh. In a shared
			// transaction only this node's work is undone here; the owner
			// rolls back the rest.
			_ = st.FS.RemoveAll(prefix)
			return fail(err)
		}
		if err := st.writeProvenance(s, prefix); err != nil {
			_ = st.FS.RemoveAll(prefix)
			return fail(err)
		}
	}

	r := &Record{Spec: s.Clone(), Prefix: prefix, Explicit: meta.Explicit,
		Origin: meta.Origin, SplicedFrom: meta.SplicedFrom, Lineage: meta.Lineage}
	if winner, inserted := st.index.Insert(hash, r); !inserted {
		// A concurrent writer (e.g. Reindex) beat us to the hash; reuse its
		// record. The winner owns the (identical) prefix, so do not roll
		// the transaction back over it.
		if auto {
			_ = t.Commit(nil)
		}
		return winner, false, nil
	}
	t.OnRollback(func() { st.index.Remove(hash) })
	specJSON, err := syntax.EncodeJSON(r.Spec)
	if err != nil {
		st.index.Remove(hash)
		return fail(err)
	}
	t.StageInsertRecord(hash, specJSON, prefix, meta)

	if auto {
		if err := t.Commit(applier{st: st}); err != nil {
			var ce *txn.CommitError
			if !errors.As(err, &ce) {
				// Pre-commit-point failure: undo this install entirely.
				_ = t.Rollback()
			}
			return nil, false, &InstallError{Spec: s.String(), Err: err}
		}
	}
	return r, ran, nil
}

// UninstallTxn is Uninstall staged into a caller-owned transaction: the
// record removal and prefix deletion become redo operations, applied only
// after the commit point (a deleted prefix cannot be rolled back). A nil
// transaction commits immediately — the Uninstall behaviour.
//
// The record leaves the in-memory index immediately so later dependent
// checks and view computation in the same transaction see the post-state;
// a rollback hook restores it.
//
// It holds the lifecycle lock exclusively: an install of the same hash
// that overlapped it could miss the departing record and build into the
// prefix this removal deletes.
func (st *Store) UninstallTxn(t *txn.Txn, s *spec.Spec, force bool) error {
	st.gcMu.Lock()
	defer st.gcMu.Unlock()
	hash := s.FullHash()
	r, ok := st.index.Lookup(hash)
	if !ok {
		return &UninstallError{Spec: s.String(), Err: fmt.Errorf("not installed")}
	}
	if !force {
		deps := st.DependentsOf(s)
		if len(deps) > 0 {
			var names []string
			for _, d := range deps {
				names = append(names, d.Spec.Name)
			}
			return &UninstallError{Spec: s.String(), Dependents: names}
		}
	}

	auto := t == nil
	if auto {
		t = txn.Begin(st.FS, st.JournalDir())
	}
	st.index.Remove(hash)
	t.OnRollback(func() { st.index.Insert(hash, r) })
	t.StageRemoveRecord(hash)
	if !r.Spec.External {
		t.StageRemovePrefix(r.Prefix)
	}
	if auto {
		if err := t.Commit(applier{st: st}); err != nil {
			var ce *txn.CommitError
			if !errors.As(err, &ce) {
				_ = t.Rollback()
			}
			return &UninstallError{Spec: s.String(), Err: err}
		}
	}
	return nil
}
