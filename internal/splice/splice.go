// Package splice rewires installed binaries onto a replacement
// dependency without rebuilding them — the operational payoff of the
// relocation machinery §3.5's rpath isolation bought. Replacing one
// dependency of an installed DAG invalidates the full hash of every
// node on a path to it (the splice cone); instead of recompiling that
// cone, the splicer re-materializes each cone prefix from its cached
// archive (or, failing that, from the installed prefix itself) with
// every store path rewritten to the new DAG's prefixes, and installs
// the result under the new hash with OriginSpliced provenance.
//
// The whole cone lands in ONE journaled transaction: new prefixes, new
// index records, regenerated module files, refreshed view links, and
// rewritten environment lockfiles commit together or not at all — a
// crash at any point leaves the site exactly pre- or post-splice after
// recovery. The original install is left in place (its record gains
// nothing and loses nothing); a later GC reclaims it once nothing
// anchors it.
package splice

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/buildcache"
	"repro/internal/env"
	"repro/internal/modules"
	"repro/internal/relocate"
	"repro/internal/simfs"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/syntax"
	"repro/internal/txn"
	"repro/internal/views"
)

// Splicer wires the layers a splice touches. Store is required; every
// other seam is optional and skipped when nil (mirroring lifecycle.GC).
type Splicer struct {
	Store *store.Store
	// Cache provides archived payloads to re-materialize from; without
	// one (or on a per-node cache miss) the splicer snapshots the
	// installed prefix instead.
	Cache *buildcache.Cache
	// Modules regenerates module files for the spliced records; Views
	// refreshes view links over ViewDirs.
	Modules  *modules.Generator
	Views    *views.Manager
	ViewDirs []string
	// EnvRoots are environment collection directories whose lockfiles
	// are retargeted when they pin the spliced root's old hash.
	EnvRoots []string
}

// NodeChange is one cone node's rewiring: the installed configuration it
// replaces and where the new prefix lands.
type NodeChange struct {
	Name      string
	OldHash   string
	NewHash   string
	OldPrefix string
	NewPrefix string
	// FromArchive reports whether the cache holds the old configuration's
	// archive — the preferred payload source (it carries a verified
	// relocation table; a live-prefix snapshot does not).
	FromArchive bool
}

// Plan is the dry-run answer: the rewired DAG and exactly what executing
// the splice would touch.
type Plan struct {
	Target string
	// Replacement renders the replacement spec; ReplacementName is its
	// package name (the node the cut edges now point at — it may differ
	// from Target when swapping providers).
	Replacement     string
	ReplacementName string
	OldRoot         *spec.Spec
	NewRoot         *spec.Spec
	OldRootHash     string
	NewRootHash     string
	// Cone lists the affected nodes bottom-up (dependencies first) — the
	// order Run materializes them in.
	Cone []NodeChange
	// Envs are the lockfile paths pinning the old root hash, retargeted
	// in the same transaction.
	Envs []string
}

// Result reports an executed splice.
type Result struct {
	Plan *Plan
	// Installed counts cone prefixes materialized; Reused counts nodes
	// whose new hash was already installed (an idempotent re-splice).
	Installed int
	Reused    int
	// FromArchive/FromPrefix split Installed by payload source.
	FromArchive int
	FromPrefix  int
	ModuleFiles int
	Envs        int
	// Time is the virtual cost of the relocation work — what the splice
	// paid instead of a rebuild.
	Time time.Duration
	// Warnings carries non-blocking trust complaints from archive
	// fetches and notes about per-node archive fallbacks.
	Warnings []string
}

// Plan computes the rewired DAG and the work a splice would do, without
// touching anything. The root must be installed; the replacement's whole
// closure must already be installed too — a splice relocates, it never
// builds.
func (sp *Splicer) Plan(root *spec.Spec, target string, repl *spec.Spec) (*Plan, error) {
	fail := func(format string, args ...any) (*Plan, error) {
		return nil, fmt.Errorf("splice %s: %s", root.String(), fmt.Sprintf(format, args...))
	}
	rec, ok := sp.Store.Lookup(root)
	if !ok {
		return fail("root is not installed")
	}
	for _, n := range repl.TopoOrder() {
		if n.External {
			continue
		}
		if _, ok := sp.Store.Lookup(n); !ok {
			return fail("replacement dependency %s is not installed (a splice relocates; it never builds)", n.String())
		}
	}

	newRoot, err := spec.SpliceDep(rec.Spec, target, repl)
	if err != nil {
		return nil, err
	}
	p := &Plan{
		Target:          target,
		Replacement:     repl.String(),
		ReplacementName: repl.Name,
		OldRoot:         rec.Spec,
		NewRoot:         newRoot,
		OldRootHash:     rec.Spec.FullHash(),
		NewRootHash:     newRoot.FullHash(),
	}

	oldByName := nodesByName(rec.Spec)
	newByName := nodesByName(newRoot)
	for _, name := range spec.SpliceCone(rec.Spec, target) {
		oldNode, newNode := oldByName[name], newByName[name]
		oldRec, ok := sp.Store.Lookup(oldNode)
		if !ok {
			return fail("cone node %s is not installed", oldNode.String())
		}
		oldHash := oldNode.FullHash()
		p.Cone = append(p.Cone, NodeChange{
			Name:        name,
			OldHash:     oldHash,
			NewHash:     newNode.FullHash(),
			OldPrefix:   oldRec.Prefix,
			NewPrefix:   sp.Store.Prefix(newNode),
			FromArchive: sp.Cache != nil && sp.Cache.Has(oldHash),
		})
	}

	for _, envRoot := range sp.EnvRoots {
		for _, name := range env.List(sp.Store.FS, envRoot) {
			e, err := env.Open(sp.Store.FS, envRoot, name)
			if err != nil {
				continue
			}
			lock, err := e.ReadLock()
			if err != nil {
				continue
			}
			for _, lr := range lock.Roots {
				if lr.Hash == p.OldRootHash {
					p.Envs = append(p.Envs, e.LockPath())
					break
				}
			}
		}
	}
	return p, nil
}

func nodesByName(root *spec.Spec) map[string]*spec.Spec {
	out := make(map[string]*spec.Spec)
	for _, n := range root.Nodes() {
		out[n.Name] = n
	}
	return out
}

// Run executes a splice: compute the plan, then materialize the whole
// cone — bottom-up, so each node's dependencies exist when its rpaths
// are checked — inside one journaled transaction together with module
// files, view links, and environment lockfile rewrites. With dryRun the
// plan is returned untouched.
//
// A txn.CommitError means the commit point was reached: the splice is
// durable and crash recovery rolls it forward, so callers should treat
// it as "spliced, pending replay".
func (sp *Splicer) Run(root *spec.Spec, target string, repl *spec.Spec, dryRun bool) (*Result, error) {
	p, err := sp.Plan(root, target, repl)
	if err != nil {
		return nil, err
	}
	res := &Result{Plan: p}
	if dryRun {
		return res, nil
	}

	st := sp.Store
	// Local rewrite table: every old-DAG prefix maps to its same-name
	// node's prefix in the new DAG, plus the replaced dependency's prefix
	// mapping onto the replacement's (the names may differ — swapping MPI
	// providers). Used when a cone node is materialized from its live
	// prefix; archive materialization builds its own table from the
	// archive's recorded source paths.
	localPairs, err := sp.localPairs(p)
	if err != nil {
		return nil, err
	}

	meter := simfs.NewMeter()
	prefixFS := st.FS.WithMeter(meter)
	t := txn.Begin(st.FS, st.JournalDir())
	abort := func(err error) (*Result, error) {
		_ = t.Rollback()
		return nil, err
	}

	newByName := nodesByName(p.NewRoot)
	oldByName := nodesByName(p.OldRoot)
	for _, ch := range p.Cone {
		ch := ch
		newNode := newByName[ch.Name]
		oldRec, ok := st.Lookup(oldByName[ch.Name])
		if !ok {
			return abort(fmt.Errorf("splice: cone node %s vanished mid-splice", ch.Name))
		}
		meta := txn.RecordMeta{
			Explicit:    oldRec.Explicit,
			Origin:      store.OriginSpliced,
			SplicedFrom: ch.OldHash,
			Lineage:     append(append([]string{}, oldRec.Lineage...), ch.OldHash),
		}
		fromArchive := false
		rec, ran, err := st.InstallTxn(t, newNode, meta, func(prefix string) error {
			files, opts, usedArchive, warn := sp.payload(&ch, newByName, localPairs)
			if warn != "" {
				res.Warnings = append(res.Warnings, warn)
			}
			fromArchive = usedArchive
			opts.Meter = meter
			if _, err := relocate.Materialize(prefixFS, prefix, files, opts); err != nil {
				return err
			}
			return nil
		})
		if err != nil {
			return abort(err)
		}
		if ran {
			res.Installed++
			if fromArchive {
				res.FromArchive++
			} else {
				res.FromPrefix++
			}
		} else {
			res.Reused++
		}
		if sp.Modules != nil {
			sp.Modules.StageGenerate(t, newNode, rec.Prefix)
			res.ModuleFiles++
		}
	}

	if err := sp.stageEnvRewrites(t, p, res); err != nil {
		return abort(err)
	}
	if sp.Views != nil {
		// The new records entered the in-memory index above, so the
		// recomputed desired link set already points at the spliced
		// prefixes.
		if _, err := sp.Views.StageRefresh(t, st, sp.ViewDirs...); err != nil {
			return abort(err)
		}
	}

	if err := t.Commit(st.Applier()); err != nil {
		var ce *txn.CommitError
		if !errors.As(err, &ce) {
			_ = t.Rollback()
		}
		return nil, err
	}
	res.Time = meter.Cost()
	return res, nil
}

// payload picks a cone node's file set and relocation options: the
// cached archive when one exists and verifies (its recorded relocation
// table re-checks every rewrite), else a snapshot of the installed
// prefix relocated through the local pair table. Never fails — the
// prefix snapshot is the universal fallback and Materialize verifies
// whatever table is chosen.
func (sp *Splicer) payload(ch *NodeChange, newByName map[string]*spec.Spec, localPairs map[string]string) ([]relocate.File, relocate.Options, bool, string) {
	if ch.FromArchive {
		ar, warn, err := sp.Cache.Fetch(ch.OldHash)
		if err == nil {
			pairs := map[string]string{
				ar.Prefix:    ch.NewPrefix,
				ar.StoreRoot: sp.Store.Root,
			}
			ok := true
			for depName, srcPrefix := range ar.DepPrefixes {
				dst, found := sp.depPrefix(depName, newByName)
				if !found {
					ok = false
					break
				}
				pairs[srcPrefix] = dst
			}
			if ok {
				forbid := ""
				if ar.StoreRoot != sp.Store.Root {
					forbid = ar.StoreRoot
				}
				return ar.RelocFiles(), relocate.Options{
					Table:      relocate.NewTable(pairs),
					Want:       ar.WantCounts(),
					ForbidRoot: forbid,
				}, true, warn
			}
			err = fmt.Errorf("archive names a dependency absent from the spliced DAG")
		}
		warn = fmt.Sprintf("splice %s: archive unusable, re-materializing from installed prefix: %v", ch.Name, err)
		files, opts, snapErr := sp.snapshotPayload(ch, localPairs)
		if snapErr != nil {
			// Surface the snapshot failure through Materialize: an empty
			// file set with an impossible Want entry fails verification.
			return nil, relocate.Options{Want: map[string]map[string]int{"": {ch.OldPrefix: 1}}}, false, warn
		}
		return files, opts, false, warn
	}
	files, opts, err := sp.snapshotPayload(ch, localPairs)
	if err != nil {
		return nil, relocate.Options{Want: map[string]map[string]int{"": {ch.OldPrefix: 1}}}, false,
			fmt.Sprintf("splice %s: snapshot failed: %v", ch.Name, err)
	}
	return files, opts, false, ""
}

func (sp *Splicer) snapshotPayload(ch *NodeChange, localPairs map[string]string) ([]relocate.File, relocate.Options, error) {
	files, err := relocate.Snapshot(sp.Store.FS, ch.OldPrefix)
	if err != nil {
		return nil, relocate.Options{}, err
	}
	return files, relocate.Options{Table: relocate.NewTable(localPairs)}, nil
}

// depPrefix resolves an old-DAG dependency name to its prefix in the
// spliced world: same-name nodes keep or change their prefix with their
// hash; the replaced target resolves through whatever node absorbed its
// edges (the replacement may carry a different name).
func (sp *Splicer) depPrefix(depName string, newByName map[string]*spec.Spec) (string, bool) {
	n, ok := newByName[depName]
	if !ok {
		return "", false
	}
	if n.External {
		return n.Path, true
	}
	if rec, ok := sp.Store.Lookup(n); ok {
		return rec.Prefix, true
	}
	return sp.Store.Prefix(n), true
}

// localPairs builds the live-prefix rewrite table for a plan: every node
// of the old DAG whose same-name counterpart moved maps old prefix →
// new prefix, and the replaced dependency maps onto the replacement.
func (sp *Splicer) localPairs(p *Plan) (map[string]string, error) {
	pairs := make(map[string]string)
	newByName := nodesByName(p.NewRoot)
	for _, oldNode := range p.OldRoot.Nodes() {
		if oldNode.External {
			continue
		}
		name := oldNode.Name
		if name == p.Target {
			// The replacement absorbed this node's edges.
			name = p.ReplacementName
		}
		dst, ok := sp.depPrefix(name, newByName)
		if !ok {
			continue
		}
		oldRec, ok := sp.Store.Lookup(oldNode)
		if !ok || oldRec.Prefix == dst {
			continue
		}
		pairs[oldRec.Prefix] = dst
	}
	if len(pairs) == 0 {
		return nil, fmt.Errorf("splice: nothing to rewrite (replacement resolves to the installed dependency)")
	}
	return pairs, nil
}

// stageEnvRewrites retargets every lockfile pinning the old root hash:
// the root entry moves to the new hash and the Specs table swaps the old
// DAG for the spliced one (keeping the old entry when another lock root
// still references it).
func (sp *Splicer) stageEnvRewrites(t *txn.Txn, p *Plan, res *Result) error {
	if len(p.Envs) == 0 {
		return nil
	}
	specJSON, err := encodeSpec(p.NewRoot)
	if err != nil {
		return err
	}
	inPlan := make(map[string]bool, len(p.Envs))
	for _, path := range p.Envs {
		inPlan[path] = true
	}
	for _, envRoot := range sp.EnvRoots {
		for _, name := range env.List(sp.Store.FS, envRoot) {
			e, err := env.Open(sp.Store.FS, envRoot, name)
			if err != nil || !inPlan[e.LockPath()] {
				continue
			}
			lock, err := e.ReadLock()
			if err != nil {
				continue
			}
			// Every root pinned to the old hash moves; once none is left
			// the old Specs entry is dead weight.
			for i := range lock.Roots {
				if lock.Roots[i].Hash == p.OldRootHash {
					lock.Roots[i].Hash = p.NewRootHash
				}
			}
			delete(lock.Specs, p.OldRootHash)
			lock.Specs[p.NewRootHash] = specJSON
			data, err := json.MarshalIndent(lock, "", "  ")
			if err != nil {
				return err
			}
			t.StageWriteFile(e.LockPath(), append(data, '\n'))
			res.Envs++
		}
	}
	return nil
}

func encodeSpec(s *spec.Spec) (json.RawMessage, error) {
	data, err := syntax.EncodeJSON(s)
	if err != nil {
		return nil, err
	}
	return json.RawMessage(data), nil
}
