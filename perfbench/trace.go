package main

import (
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/ares"
	"repro/internal/buildcache"
	"repro/internal/concretize"
	"repro/internal/core"
	"repro/internal/fetch"
	"repro/internal/simfs"
	"repro/internal/store"
)

// The traced run wraps the seams the layers already expose, so each
// layer's calls get their own clock without touching the program. The
// untraced run uses the unwrapped implementations.

// tracedBackend times the buildcache's byte transport. Embedding the
// mirror backend keeps its optional refinements (Sum, Usage) visible to
// the cache, so tracing does not change which code paths run.
type tracedBackend struct {
	*buildcache.MirrorBackend
	put, get           clock
	bytesPut, bytesGot atomic.Int64
}

func (b *tracedBackend) Put(name string, data []byte) error {
	defer b.put.since(time.Now())
	b.bytesPut.Add(int64(len(data)))
	return b.MirrorBackend.Put(name, data)
}

func (b *tracedBackend) Get(name string) ([]byte, bool, error) {
	defer b.get.since(time.Now())
	data, ok, err := b.MirrorBackend.Get(name)
	b.bytesGot.Add(int64(len(data)))
	return data, ok, err
}

// tracedIndex times the store's installation database.
type tracedIndex struct {
	store.Index
	lookup, insert, save clock
}

func (ix *tracedIndex) Lookup(hash string) (*store.Record, bool) {
	defer ix.lookup.since(time.Now())
	return ix.Index.Lookup(hash)
}

func (ix *tracedIndex) Insert(hash string, r *store.Record) (*store.Record, bool) {
	defer ix.insert.since(time.Now())
	return ix.Index.Insert(hash, r)
}

func (ix *tracedIndex) Save(fs *simfs.FS, dbDir string) error {
	defer ix.save.since(time.Now())
	return ix.Index.Save(fs, dbDir)
}

// tracedSigner and tracedVerifier time the cache's signing seams.
type tracedSigner struct {
	buildcache.Signer
	c *clock
}

func (s tracedSigner) Sign(message string) ([]byte, error) {
	defer s.c.since(time.Now())
	return s.Signer.Sign(message)
}

type tracedVerifier struct {
	buildcache.Verifier
	c *clock
}

func (v tracedVerifier) VerifySignature(message string, sig []byte) error {
	defer v.c.since(time.Now())
	return v.Verifier.VerifySignature(message, sig)
}

// passSeams holds one traced pass's seam wrappers. A nil *passSeams is a
// plain pass: its methods then hand out the unwrapped implementations.
type passSeams struct {
	backend      *tracedBackend
	sign, verify clock
	indexes      []*tracedIndex
}

// cacheBackend is the buildcache backend over a mirror that the pass's
// sites share.
func (p *passSeams) cacheBackend(m *fetch.Mirror) buildcache.Backend {
	mb := buildcache.NewMirrorBackend(m)
	if p == nil {
		return mb
	}
	p.backend = &tracedBackend{MirrorBackend: mb}
	return p.backend
}

// newSite assembles a fresh core instance with the ARES repository over
// a shared buildcache backend; in a traced pass its store index and its
// cache's signing seams are wrapped.
func (p *passSeams) newSite(be buildcache.Backend, opts ...core.Option) (*core.Spack, error) {
	opts = append(opts, core.WithRepos(ares.Repo()), core.WithBuildCacheBackend(be))
	if p != nil {
		ix := &tracedIndex{Index: store.NewShardedIndex()}
		p.indexes = append(p.indexes, ix)
		opts = append(opts, core.WithStoreIndex(ix))
	}
	s, err := core.New(opts...)
	if err != nil {
		return nil, err
	}
	if p != nil {
		s.BuildCache.Signer = tracedSigner{s.BuildCache.Signer, &p.sign}
		s.BuildCache.Verifier = tracedVerifier{s.BuildCache.Verifier, &p.verify}
	}
	return s, nil
}

// addLayers records the seams' clocks and counters into a traced pass's
// per-layer values.
func (p *passSeams) addLayers(l layerSet) {
	for _, ix := range p.indexes {
		l["store.index_lookups"] += ix.lookup.count()
		l["store.index_lookup_us_total"] += ix.lookup.totalMS() * 1000
		l["store.index_inserts"] += ix.insert.count()
		l["store.index_saves"] += ix.save.count()
		l["store.index_save_ms_total"] += ix.save.totalMS()
	}
	l["buildcache.backend_put_ms_total"] = p.backend.put.totalMS()
	l["buildcache.backend_get_ms_total"] = p.backend.get.totalMS()
	l["buildcache.bytes_put_mb"] = float64(p.backend.bytesPut.Load()) / (1 << 20)
	l["buildcache.bytes_got_mb"] = float64(p.backend.bytesGot.Load()) / (1 << 20)
	l["lifecycle.sign_ms_total"] = p.sign.totalMS()
	l["lifecycle.verify_ms_total"] = p.verify.totalMS()
	l["lifecycle.verifies"] = p.verify.count()
}

// addSolverLayers records concretizer counters into a traced pass's
// per-layer values.
func addSolverLayers(l layerSet, concretizers ...*concretize.Concretizer) {
	var solves, iters, hits, misses float64
	for _, c := range concretizers {
		st := &c.Stats
		solves += float64(st.Runs())
		iters += float64(st.Iterations())
		l["concretize.backtracks"] += float64(st.Backtracks())
		l["concretize.solved_nodes"] += float64(st.SolvedNodes())
		hits += float64(st.CacheHits())
		misses += float64(st.CacheMisses())
	}
	l["concretize.iterations_per_solve"] = ratio(iters, solves)
	l["concretize.memo_hit_ratio"] = ratio(hits, hits+misses)
}

// timedHandler records the server-side time of every daemon request.
type timedHandler struct {
	h http.Handler
	d dist
}

func (t *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer t.d.sinceMS(time.Now())
	t.h.ServeHTTP(w, r)
}
