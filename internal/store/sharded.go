package store

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/simfs"
)

// hashAlphabet is the character set of spec.FullHash (lowercase base32).
// One shard owns each leading character, so a shard's on-disk file is
// literally named after the hash prefix it covers.
const hashAlphabet = "abcdefghijklmnopqrstuvwxyz234567"

// numShards is the stripe count of ShardedIndex: one shard per possible
// first hash character.
const numShards = len(hashAlphabet)

// shardOf maps a full DAG hash to its shard number. Hashes are uniform
// (SHA-256), so the stripes are statistically balanced; anything that is
// not a well-formed hash lands deterministically in shard 0.
func shardOf(hash string) int {
	if hash == "" {
		return 0
	}
	c := hash[0]
	switch {
	case c >= 'a' && c <= 'z':
		return int(c - 'a')
	case c >= '2' && c <= '7':
		return 26 + int(c-'2')
	default:
		return 0
	}
}

// shard is one stripe: its own lock, map, and generation counters, so
// builders touching different hash prefixes never contend.
type shard struct {
	mu      sync.RWMutex
	records map[string]*Record
	// gen increments on every mutation; savedGen records the generation
	// last persisted. gen != savedGen means the shard is dirty and Save
	// must rewrite its file.
	gen      uint64
	savedGen uint64
}

// ShardedIndex is the lock-striped installation database: numShards
// independent shards keyed by hash prefix, each persisted to its own file
// .spack-db/shards/<prefix>.json plus a manifest, so concurrent builders
// working on different specs share no lock and Save only rewrites shards
// that changed since the last Save.
type ShardedIndex struct {
	shards [numShards]shard
	// saveMu serializes Save/Load so concurrent savers do not interleave
	// shard files and the manifest. Mutations do not take it.
	saveMu sync.Mutex
}

// NewShardedIndex returns an empty lock-striped index.
func NewShardedIndex() *ShardedIndex {
	ix := &ShardedIndex{}
	for i := range ix.shards {
		ix.shards[i].records = make(map[string]*Record)
	}
	return ix
}

func (ix *ShardedIndex) Lookup(hash string) (*Record, bool) {
	sh := &ix.shards[shardOf(hash)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	r, ok := sh.records[hash]
	return r, ok
}

func (ix *ShardedIndex) Insert(hash string, r *Record) (*Record, bool) {
	sh := &ix.shards[shardOf(hash)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if existing, ok := sh.records[hash]; ok {
		return existing, false
	}
	sh.records[hash] = r
	sh.gen++
	return r, true
}

func (ix *ShardedIndex) Promote(hash string) bool {
	sh := &ix.shards[shardOf(hash)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	r, ok := sh.records[hash]
	if !ok {
		return false
	}
	if !r.Explicit {
		r.Explicit = true
		sh.gen++
	}
	return true
}

func (ix *ShardedIndex) Demote(hash string) bool {
	sh := &ix.shards[shardOf(hash)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	r, ok := sh.records[hash]
	if !ok {
		return false
	}
	if r.Explicit {
		r.Explicit = false
		sh.gen++
	}
	return true
}

func (ix *ShardedIndex) Remove(hash string) {
	sh := &ix.shards[shardOf(hash)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.records[hash]; ok {
		delete(sh.records, hash)
		sh.gen++
	}
}

func (ix *ShardedIndex) Len() int {
	n := 0
	for i := range ix.shards {
		sh := &ix.shards[i]
		sh.mu.RLock()
		n += len(sh.records)
		sh.mu.RUnlock()
	}
	return n
}

// Generation sums the per-shard generation counters. Any mutation bumps
// exactly one shard's counter, so the sum advances on every mutation; it
// can only stand still while the contents stand still.
func (ix *ShardedIndex) Generation() uint64 {
	var gen uint64
	for i := range ix.shards {
		sh := &ix.shards[i]
		sh.mu.RLock()
		gen += sh.gen
		sh.mu.RUnlock()
	}
	return gen
}

func (ix *ShardedIndex) Select(filter func(*Record) bool) []*Record {
	var out []*Record
	for i := range ix.shards {
		sh := &ix.shards[i]
		sh.mu.RLock()
		for _, r := range sh.records {
			if filter == nil || filter(r) {
				out = append(out, r)
			}
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Prefix < out[j].Prefix })
	return out
}

func (ix *ShardedIndex) Snapshot() []Entry {
	var out []Entry
	for i := range ix.shards {
		out = append(out, ix.snapshotShard(i)...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Prefix < out[j].Prefix })
	return out
}

// snapshotShard copies one shard's entries under its read lock.
func (ix *ShardedIndex) snapshotShard(i int) []Entry {
	sh := &ix.shards[i]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	out := make([]Entry, 0, len(sh.records))
	for h, r := range sh.records {
		out = append(out, Entry{Hash: h, Spec: r.Spec, Prefix: r.Prefix, Explicit: r.Explicit,
			Origin: r.Origin, SplicedFrom: r.SplicedFrom, Lineage: r.Lineage})
	}
	return out
}

func (ix *ShardedIndex) Replace(records map[string]*Record) {
	for i := range ix.shards {
		sh := &ix.shards[i]
		sh.mu.Lock()
		sh.records = make(map[string]*Record)
		sh.gen++
	}
	for h, r := range records {
		sh := &ix.shards[shardOf(h)]
		sh.records[h] = r
	}
	for i := range ix.shards {
		ix.shards[i].mu.Unlock()
	}
}

// manifest is the sharded layout's table of contents: which shard files
// exist, how many records each holds, and its generation at save time.
type manifest struct {
	Version int             `json:"version"`
	Shards  []manifestShard `json:"shards"`
}

type manifestShard struct {
	Prefix string `json:"prefix"`
	Count  int    `json:"count"`
	Gen    uint64 `json:"gen"`
}

// Save rewrites only dirty shards (temp file + rename each) and then the
// manifest. A shard emptied by uninstalls keeps an empty file so Load and
// the manifest stay consistent.
func (ix *ShardedIndex) Save(fs *simfs.FS, dbDir string) error {
	ix.saveMu.Lock()
	defer ix.saveMu.Unlock()

	shardsDir := dbDir + "/" + shardsDirName
	mkdirDone := false
	var man manifest
	man.Version = shardedLayoutVersion
	dirtyWritten := false
	for i := range ix.shards {
		sh := &ix.shards[i]
		sh.mu.RLock()
		gen, saved, count := sh.gen, sh.savedGen, len(sh.records)
		sh.mu.RUnlock()
		if count == 0 && gen == saved {
			continue // never-populated (or already-persisted-empty) shard
		}
		prefix := string(hashAlphabet[i])
		if gen != saved {
			entries := ix.snapshotShard(i)
			data, err := encodeEntries(entries)
			if err != nil {
				return err
			}
			if !mkdirDone {
				if err := fs.MkdirAll(shardsDir); err != nil {
					return err
				}
				mkdirDone = true
			}
			if err := writeFileAtomic(fs, shardPath(dbDir, prefix), data); err != nil {
				return err
			}
			count = len(entries)
			sh.mu.Lock()
			sh.savedGen = gen
			sh.mu.Unlock()
			dirtyWritten = true
		}
		man.Shards = append(man.Shards, manifestShard{Prefix: prefix, Count: count, Gen: gen})
	}
	if !dirtyWritten {
		// Nothing changed since the last Save; the manifest on disk is
		// still accurate — unless nothing was ever written, in which case
		// an empty store still persists an empty manifest.
		if ex, _ := fs.Stat(dbDir + "/" + manifestFile); ex {
			return nil
		}
	}
	if err := fs.MkdirAll(dbDir); err != nil {
		return err
	}
	data, err := encodeManifest(man)
	if err != nil {
		return err
	}
	return writeFileAtomic(fs, dbDir+"/"+manifestFile, data)
}

// Load replaces the contents from the manifest and the shard files it
// names, returning ErrNoDatabase when no manifest was ever saved.
func (ix *ShardedIndex) Load(fs *simfs.FS, dbDir string) error {
	ix.saveMu.Lock()
	man, err := readManifest(fs, dbDir)
	ix.saveMu.Unlock()
	if err != nil {
		return err
	}

	records := make(map[string]*Record)
	// behind marks shards whose file disagrees with the manifest count: a
	// crash between a shard rename and the manifest rename (Save writes
	// shards first, manifest last) leaves the manifest one step stale. The
	// shard file is the newer truth — adopt it and mark the shard dirty so
	// the next Save rewrites the manifest back into agreement.
	behind := make(map[string]bool)
	for _, ms := range man.Shards {
		path := shardPath(dbDir, ms.Prefix)
		data, err := fs.ReadFile(path)
		if err != nil {
			return fmt.Errorf("store: manifest names missing shard %s: %w", path, err)
		}
		entries, err := decodeEntries(data)
		if err != nil {
			return fmt.Errorf("store: corrupt shard %s: %w", path, err)
		}
		if len(entries) != ms.Count {
			behind[ms.Prefix] = true
		}
		for h, r := range entries {
			records[h] = r
		}
	}
	ix.Replace(records)
	// Adopt the manifest's generations so an immediately following Save
	// rewrites nothing — except shards the manifest trails, which stay
	// dirty until a Save reconciles them.
	ix.saveMu.Lock()
	for i := range ix.shards {
		sh := &ix.shards[i]
		sh.mu.Lock()
		sh.gen = 0
		sh.savedGen = 0
		sh.mu.Unlock()
	}
	for _, ms := range man.Shards {
		sh := &ix.shards[shardOf(ms.Prefix)]
		sh.mu.Lock()
		sh.gen = ms.Gen
		sh.savedGen = ms.Gen
		if behind[ms.Prefix] {
			sh.gen = ms.Gen + 1
		}
		sh.mu.Unlock()
	}
	ix.saveMu.Unlock()
	return nil
}

var _ Index = (*ShardedIndex)(nil)
