package store

import (
	"repro/internal/simfs"
	"repro/internal/spec"
)

// Entry is a field-by-field snapshot of one installed record, copied under
// the index lock so persistence never reads Explicit (which a concurrent
// Install may promote) through an unsynchronized pointer. The spec pointer
// is shared: specs are cloned on insert and never mutated afterwards, so
// only the mutable scalar fields need copying.
type Entry struct {
	Hash     string
	Spec     *spec.Spec
	Prefix   string
	Explicit bool
	Origin   string
	// SplicedFrom and Lineage are immutable after insert (like Spec), so
	// the snapshot shares them.
	SplicedFrom string
	Lineage     []string
}

// Index is the seam between the store and its installation database: a
// map from full DAG hash to record. ShardedIndex is the one
// implementation; the interface exists so instrumentation can wrap it.
// Implementations must be safe for concurrent use; Snapshot and Select
// copy the mutable record fields (or hand out records only for reading)
// under their own locking so callers never race with Promote.
type Index interface {
	// Lookup returns the record for a DAG hash.
	Lookup(hash string) (*Record, bool)
	// Insert adds a record for a hash. When a record already exists the
	// existing one wins and is returned with inserted=false.
	Insert(hash string, r *Record) (winner *Record, inserted bool)
	// Promote marks an installed hash explicit (§3.4.3's user-asked-for
	// flag), reporting whether the hash was present. The flip happens
	// under the index lock so snapshots never observe a torn record.
	Promote(hash string) bool
	// Demote clears the explicit flag — the inverse of Promote, used when
	// a root is released so garbage collection may reclaim its exclusive
	// cone. Reports whether the hash was present.
	Demote(hash string) bool
	// Remove deletes a hash; missing hashes are a no-op.
	Remove(hash string)
	// Len counts records.
	Len() int
	// Generation is a counter that advances on every mutation (insert,
	// promote, remove, replace). It fingerprints the index contents
	// cheaply: equal generations on one process's index imply an unchanged
	// candidate set, which the concretizer's reuse snapshot and memo-cache
	// keys rely on.
	Generation() uint64
	// Select returns records accepted by filter (nil accepts everything),
	// sorted by prefix — the snapshot iterator consumers use instead of
	// copying the whole index.
	Select(filter func(*Record) bool) []*Record
	// Snapshot returns every entry with scalar fields copied under the
	// lock, sorted by prefix. This is the persistence-safe view.
	Snapshot() []Entry
	// Replace swaps the entire contents (Load/Reindex) and marks
	// everything dirty for the next Save.
	Replace(records map[string]*Record)
	// Save persists the index under dbDir on fs; implementations write
	// atomically (temp file + rename) and may skip clean state.
	Save(fs *simfs.FS, dbDir string) error
	// Load replaces the contents from dbDir, returning ErrNoDatabase
	// when nothing has been saved there yet.
	Load(fs *simfs.FS, dbDir string) error
}
