package main

import (
	"fmt"
	"time"

	"repro/internal/build"
	"repro/internal/buildcache"
	"repro/internal/core"
	"repro/internal/fetch"
	"repro/internal/lifecycle"
	"repro/internal/spec"
	"repro/internal/splice"
	"repro/internal/store"
	"repro/internal/syntax"
)

// installClocks times the public calls core.Install makes, one clock
// each, for the traced run.
type installClocks struct {
	parse                     dist // microseconds
	find, solve, build, views dist // milliseconds
	modules                   clock
}

// install runs one core.Install; with clocks it issues the same public
// calls as core.Install, in the same order, with a clock around each.
func install(s *core.Spack, expr string, k *installClocks) (*build.Result, error) {
	if k == nil {
		return s.Install(expr)
	}
	t0 := time.Now()
	abstract, err := syntax.Parse(expr)
	k.parse.add(float64(time.Since(t0)) / float64(time.Microsecond))
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	recs := s.Store.Find(abstract)
	k.find.sinceMS(t0)
	var concrete *spec.Spec
	if len(recs) > 0 {
		concrete = recs[0].Spec.Clone()
	} else {
		t0 = time.Now()
		concrete, err = s.Concretizer.Concretize(abstract)
		k.solve.sinceMS(t0)
		if err != nil {
			return nil, err
		}
	}
	t0 = time.Now()
	res, err := s.Builder.Build(concrete)
	k.build.sinceMS(t0)
	if err != nil {
		return nil, err
	}
	for _, n := range concrete.TopoOrder() {
		if n.External {
			continue
		}
		rec, ok := s.Store.Lookup(n)
		if !ok {
			continue
		}
		t0 = time.Now()
		_, err := s.Modules.Generate(n, rec.Prefix)
		k.modules.since(t0)
		if err != nil {
			return nil, err
		}
	}
	t0 = time.Now()
	_, err = s.Views.Refresh(s.Store)
	k.views.sinceMS(t0)
	return res, err
}

// relocatedLayout is the Spack layout one directory deeper. Sites that
// install from the farm's archives use it, so every prefix differs from
// the farm's and each binary install relocates every store path.
type relocatedLayout struct{}

func (relocatedLayout) Name() string { return "relocated" }

func (relocatedLayout) RelPath(s *spec.Spec) string {
	return "relocated/" + store.SpackLayout{}.RelPath(s)
}

// trustOnly makes a site accept only archives signed by the named key.
func trustOnly(s *core.Spack, name string, public []byte) error {
	if err := s.Keyring.Add(name, public); err != nil {
		return err
	}
	if err := s.Keyring.Trust(name); err != nil {
		return err
	}
	if err := s.Keyring.SetPolicy(buildcache.TrustEnforce); err != nil {
		return err
	}
	s.BuildCache.Policy = buildcache.TrustEnforce
	return nil
}

// countReport adds one build report to a pass's node counters.
func countReport(l layerSet, rep *build.Report) {
	switch {
	case rep.Reused:
		l["build.nodes_reused"]++
	case rep.FromCache, rep.External:
	default:
		l["build.nodes_built"]++
	}
}

// rolloutTimes pools one kind of pass's op timings.
type rolloutTimes struct {
	source, push, binary, splice, gc dist
}

// rolloutRun is what a rollout run keeps across its passes.
type rolloutRun struct {
	o    *outcome
	seed int64
	// repls maps each ares@15.07 config to its replacement zlib; zlibs
	// lists the distinct replacements.
	repls map[string]string
	zlibs []string
	// hashes is each config's root hash in the first pass that built it.
	hashes map[string]string
	times  map[passKind]*rolloutTimes
	// Traced passes only: per-call clocks and per-pass layer values.
	farmClocks, consumerClocks installClocks
	splicePlan                 dist
	layers                     []layerSet
}

// rolloutPass is one pass: a source-only signing farm and an enforcing
// consumer sharing one buildcache backend.
type rolloutPass struct {
	*rolloutRun
	ops            []string
	times          *rolloutTimes
	seams          *passSeams // nil in plain passes
	farm, consumer *core.Spack
	farmClocks     *installClocks
	consumerClocks *installClocks
	l              layerSet
	// setup is the pass's untimed fixture work; work the timed ops.
	setup, work time.Duration
}

func (r *rolloutRun) newPass(pass int, kind passKind) (*rolloutPass, error) {
	t0 := time.Now()
	p := &rolloutPass{rolloutRun: r, ops: rolloutOps(r.seed, pass), times: r.times[kind], l: layerSet{}}
	if kind == traced {
		p.seams = &passSeams{}
		p.farmClocks, p.consumerClocks = &r.farmClocks, &r.consumerClocks
	}
	be := p.seams.cacheBackend(fetch.NewMirror())
	var err error
	if p.farm, err = p.seams.newSite(be, core.WithCachePolicy(build.CacheNever)); err != nil {
		return nil, err
	}
	pub, err := p.farm.Keyring.Generate("farm")
	if err != nil {
		return nil, err
	}
	if p.consumer, err = p.seams.newSite(be, core.WithLayout(relocatedLayout{})); err != nil {
		return nil, err
	}
	if err := trustOnly(p.consumer, "farm", pub); err != nil {
		return nil, err
	}
	p.setup = time.Since(t0)
	return p, nil
}

// timed runs one op, adds its wall time to d and to the pass's timed
// work, and counts it as attempted.
func (p *rolloutPass) timed(d *dist, fn func() error) (time.Duration, error) {
	t0 := time.Now()
	err := fn()
	el := time.Since(t0)
	p.work += el
	d.add(ms(el))
	p.o.attempted++
	return el, err
}

// buildAndPush installs every config from source on the farm, then
// pushes each DAG.
func (p *rolloutPass) buildAndPush() {
	o, l := p.o, p.l
	roots := make(map[string]*spec.Spec, len(p.ops))
	files := p.farm.FS.FileCount()
	for _, expr := range p.ops {
		var res *build.Result
		_, err := p.timed(&p.times.source, func() (err error) {
			res, err = install(p.farm, expr, p.farmClocks)
			return err
		})
		if err != nil {
			o.fail("farm install %s: %v", expr, err)
			continue
		}
		roots[expr] = res.Root
		h := res.Root.FullHash()
		if want, ok := p.hashes[expr]; ok && want != h {
			o.fail("farm install %s: hash %s, an earlier pass built %s", expr, h, want)
		}
		p.hashes[expr] = h
		l["build.virtual_s"] += res.WallTime.Seconds()
		for _, rep := range res.Reports {
			l["build.wrapper_virtual_s"] += rep.WrapperOverhead.Seconds()
			countReport(l, rep)
		}
	}
	l["simfs.files_per_install"] = float64(p.farm.FS.FileCount()-files) / float64(len(p.ops))
	l["fetch.source_fetches"] = float64(p.farm.Mirror.FetchCount())

	pushed := map[string]bool{}
	for _, expr := range p.ops {
		var entries []*buildcache.Entry
		_, err := p.timed(&p.times.push, func() (err error) {
			if roots[expr] == nil {
				return fmt.Errorf("nothing installed")
			}
			entries, err = p.farm.BuildCache.PushDAG(p.farm.Store, roots[expr])
			return err
		})
		if err != nil {
			o.fail("push %s: %v", expr, err)
		}
		for _, e := range entries {
			pushed[e.FullHash] = true
		}
		l["buildcache.pushes"] += float64(len(entries))
	}
	l["buildcache.archives_new"] = float64(len(pushed))
	l["buildcache.push_useful_ratio"] = ratio(l["buildcache.archives_new"], l["buildcache.pushes"])
	o.info["farm_records"] = p.farm.Store.Len()
}

// pull installs every config on the consumer from the signed cache and
// checks each against the farm. It returns the installed roots by config.
func (p *rolloutPass) pull() (map[string]*spec.Spec, error) {
	o, l := p.o, p.l
	roots := make(map[string]*spec.Spec, len(p.ops))
	bad := map[string]error{} // config → its first failed check
	var hits, misses float64
	for _, expr := range p.ops {
		var res *build.Result
		_, err := p.timed(&p.times.binary, func() (err error) {
			res, err = install(p.consumer, expr, p.consumerClocks)
			return err
		})
		if err != nil {
			o.fail("consumer install %s: %v", expr, err)
			continue
		}
		roots[expr] = res.Root
		hits += float64(res.CacheHits)
		misses += float64(res.CacheMisses)
		l["buildcache.fallbacks"] += float64(res.CacheFallbacks)
		for _, rep := range res.Reports {
			countReport(l, rep)
		}
		if err := checkBinaryInstall(p.consumer.Store, res, p.hashes[expr]); err != nil {
			bad[expr] = err
		}
	}
	l["buildcache.hit_ratio"] = ratio(hits, hits+misses)
	mismatched, err := comparePulledTrees(p.farm.Store, p.consumer.Store, roots)
	if err != nil {
		return nil, fmt.Errorf("read pulled trees: %w", err)
	}
	for expr, err := range mismatched {
		if bad[expr] == nil {
			bad[expr] = err
		}
	}
	for expr, err := range bad {
		o.fail("consumer install %s: %v", expr, err)
	}
	return roots, nil
}

// splice rewires every ares@15.07 config onto its zlib@1.2.7, then demotes
// the pre-splice root so the sweep may reclaim its old cone.
func (p *rolloutPass) splice(roots map[string]*spec.Spec) error {
	o, l := p.o, p.l

	// Fixture: the replacement zlibs, built from source on the consumer
	// (the farm never published them).
	t0 := time.Now()
	repls := map[string]*spec.Spec{}
	for _, z := range p.zlibs {
		res, err := p.consumer.Install(z)
		if err != nil {
			return fmt.Errorf("install splice replacement %s: %w", z, err)
		}
		repls[z] = res.Root
	}
	o.info["consumer_records"] = p.consumer.Store.Len()
	p.setup += time.Since(t0)

	sp := p.consumer.Splicer()
	var installed, fromArchive float64
	for _, expr := range p.ops {
		z, ok := p.repls[expr]
		if !ok {
			continue
		}
		root, repl := roots[expr], repls[z]
		if p.seams != nil && root != nil {
			t0 := time.Now()
			_, err := sp.Plan(root, "zlib", repl)
			p.splicePlan.sinceMS(t0)
			if err != nil {
				o.fail("splice plan %s: %v", expr, err)
			}
		}
		var res *splice.Result
		_, err := p.timed(&p.times.splice, func() (err error) {
			if root == nil {
				return fmt.Errorf("nothing installed")
			}
			res, err = sp.Run(root, "zlib", repl, false)
			return err
		})
		if err != nil {
			o.fail("splice %s: %v", expr, err)
			continue
		}
		cone := len(res.Plan.Cone)
		if res.Installed+res.Reused != cone || res.FromArchive != res.Installed {
			o.fail("splice %s: %d of a %d-node cone installed (%d from archives), %d already present",
				expr, res.Installed, cone, res.FromArchive, res.Reused)
		}
		installed += float64(res.Installed)
		fromArchive += float64(res.FromArchive)
		l["splice.cone_nodes"] += float64(cone)
		l["splice.virtual_s"] += res.Time.Seconds()
		p.consumer.Store.MarkImplicit(root)
	}
	l["splice.from_archive_ratio"] = ratio(fromArchive, installed)
	return nil
}

// collect runs the pass's one GC sweep and checks that live prefixes stay
// byte-identical and exactly the planned dead bytes are reclaimed.
func (p *rolloutPass) collect() error {
	o, l := p.o, p.l
	g := p.consumer.GC()
	t0 := time.Now()
	plan, err := g.Plan()
	if err != nil {
		return fmt.Errorf("gc plan: %w", err)
	}
	l["lifecycle.gc_plan_ms"] = ms(time.Since(t0))
	dead := map[string]bool{}
	for _, d := range plan.Dead {
		dead[d.FullHash] = true
	}
	live, storeBytes, deadBytes, err := liveDigests(p.consumer.Store, dead)
	if err != nil {
		return fmt.Errorf("gc fixture: %w", err)
	}
	var res *lifecycle.Result
	el, err := p.timed(&p.times.gc, func() (err error) {
		res, err = g.Run(false)
		return err
	})
	if err != nil {
		o.fail("gc: %v", err)
		return nil
	}
	if err := checkSweep(p.consumer.Store, plan, res, live, deadBytes); err != nil {
		o.fail("gc: %v", err)
	}
	l["lifecycle.gc_run_ms"] = ms(el)
	l["lifecycle.gc_records"] = float64(res.Records)
	l["lifecycle.gc_reclaim_ratio"] = ratio(float64(res.Reclaimed), float64(storeBytes))
	o.info["consumer_records_after_gc"] = p.consumer.Store.Len()
	return nil
}

// runRollout rolls the ARES matrix out pass after pass: source installs
// and pushes on a fresh farm, binary installs on a fresh consumer, a
// splice of every ares@15.07 config onto zlib@1.2.7, and one GC sweep.
func runRollout(c settings) (*outcome, error) {
	o := newOutcome(0.9, [3]string{"install_source_p50_ms", "install_source_p90_ms", "configs_per_s"})
	r, err := oneTimeSetup(o, func() (*rolloutRun, error) {
		r := &rolloutRun{
			o:      o,
			seed:   c.seed,
			repls:  spliceReplacements(),
			hashes: map[string]string{},
			times:  map[passKind]*rolloutTimes{warmup: {}, plain: {}, traced: {}},
		}
		seen := map[string]bool{}
		for _, expr := range exactMatrixSpecs() {
			if z, ok := r.repls[expr]; ok && !seen[z] {
				seen[z] = true
				r.zlibs = append(r.zlibs, z)
			}
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}

	err = runPasses(c, o, func(pass int, kind passKind) error {
		p, err := r.newPass(pass, kind)
		if err != nil {
			return err
		}
		p.buildAndPush()
		roots, err := p.pull()
		if err != nil {
			return err
		}
		if err := p.splice(roots); err != nil {
			return err
		}
		if err := p.collect(); err != nil {
			return err
		}
		o.passSetup = append(o.passSetup, p.setup.Seconds())
		switch kind {
		case plain:
			src := p.times.source.values()
			o.opTimes = append(o.opTimes, src[len(src)-len(p.ops):])
			o.rates = append(o.rates, float64(len(p.ops))/p.work.Seconds())
		case traced:
			p.seams.addLayers(p.l)
			addSolverLayers(p.l, p.farm.Concretizer, p.consumer.Concretizer)
			p.l["store.records"] = float64(p.farm.Store.Len() + p.consumer.Store.Len())
			p.l["syntax.parses"] = float64(2 * len(p.ops))
			r.layers = append(r.layers, p.l)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	u := r.times[plain]
	o.name("push_p50_ms", u.push.q(0.5), "ms", u.push.len())
	o.name("install_binary_p50_ms", u.binary.q(0.5), "ms", u.binary.len())
	o.name("install_binary_p90_ms", u.binary.q(0.9), "ms", u.binary.len())
	o.name("splice_p50_ms", u.splice.q(0.5), "ms", u.splice.len())
	o.name("gc_p50_ms", u.gc.q(0.5), "ms", u.gc.len())

	if c.trace {
		t := r.times[traced]
		f, cs := &r.farmClocks, &r.consumerClocks
		o.layers = medianLayers(r.layers)
		o.layers["syntax.parse_us_p50"] = quantile(append(f.parse.values(), cs.parse.values()...), 0.5)
		solves := append(f.solve.values(), cs.solve.values()...)
		o.layers["concretize.solve_ms_p50"] = quantile(solves, 0.5)
		o.layers["concretize.solve_ms_p99"] = quantile(solves, 0.99)
		o.layers["build.build_ms_p50"] = f.build.q(0.5)
		o.layers["store.find_ms_p50"] = quantile(append(f.find.values(), cs.find.values()...), 0.5)
		installs := float64(f.build.len() + cs.build.len())
		o.layers["modules.generate_ms_per_install"] = ratio(f.modules.totalMS()+cs.modules.totalMS(), installs)
		o.layers["views.refresh_ms_p50"] = quantile(append(f.views.values(), cs.views.values()...), 0.5)
		o.layers["buildcache.push_ms_p50"] = t.push.q(0.5)
		o.layers["splice.plan_ms_p50"] = r.splicePlan.q(0.5)
		o.layers["splice.run_ms_p50"] = t.splice.q(0.5)
		o.layers["bench.trace_overhead_frac"] = ratio(t.source.q(0.5), u.source.q(0.5)) - 1
	}
	return o, nil
}
