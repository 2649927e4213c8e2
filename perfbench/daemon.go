package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ares"
	"repro/internal/build"
	"repro/internal/buildcache"
	"repro/internal/compiler"
	"repro/internal/concretize"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/syntax"
)

// clients is the daemon workload's closed-loop client count: one per CPU,
// so the numbers measure the daemon rather than the Go scheduler.
const clients = 2

// traceLen is the number of requests one daemon pass replays.
const traceLen = 3000

// daemonFixture is the one-time set-up: a signing farm that built and
// pushed the whole matrix, the request trace, and the answers a serial
// solve gives for every spec in it.
type daemonFixture struct {
	farm  *core.Spack
	pub   []byte
	trace []request
	// hashes maps each requested spec to its serial solve's full hash;
	// sums maps each archive blob to its SHA-256.
	hashes map[string]string
	sums   map[string]string
}

func newDaemonFixture(seed int64) (*daemonFixture, error) {
	farm, err := core.New(core.WithRepos(ares.Repo()), core.WithCachePolicy(build.CacheNever))
	if err != nil {
		return nil, err
	}
	pub, err := farm.Keyring.Generate("farm")
	if err != nil {
		return nil, err
	}
	for _, expr := range exactMatrixSpecs() {
		res, err := farm.Install(expr)
		if err != nil {
			return nil, fmt.Errorf("farm install %s: %w", expr, err)
		}
		if _, err := farm.BuildCache.PushDAG(farm.Store, res.Root); err != nil {
			return nil, fmt.Errorf("farm push %s: %w", expr, err)
		}
	}

	f := &daemonFixture{farm: farm, pub: pub, hashes: map[string]string{}, sums: map[string]string{}}
	be := buildcache.NewMirrorBackend(farm.Mirror)
	names, err := be.List()
	if err != nil {
		return nil, err
	}
	var archives []string
	for _, name := range names {
		if !strings.HasSuffix(name, ".spack.json") {
			continue // checksum, metadata, and signature sidecars
		}
		data, _, err := be.Get(name)
		if err != nil {
			return nil, err
		}
		sum := sha256.Sum256(data)
		f.sums[name] = hex.EncodeToString(sum[:])
		archives = append(archives, name)
	}
	f.trace = daemonTrace(seed, farm.Repos.Names(), matrixSpecs(), archives, traceLen)

	solver := concretize.New(farm.Repos, config.New(), compiler.LLNLRegistry())
	for _, r := range f.trace {
		if r.Kind == reqBlob || f.hashes[r.Arg] != "" {
			continue
		}
		a, err := syntax.Parse(r.Arg)
		if err != nil {
			return nil, err
		}
		out, err := solver.Concretize(a)
		if err != nil {
			return nil, fmt.Errorf("serial solve %s: %w", r.Arg, err)
		}
		f.hashes[r.Arg] = out.FullHash()
	}
	return f, nil
}

// daemon is one pass's fresh server: an empty store, a cold memo cache,
// and the farm's signed archives behind an enforcing trust policy.
type daemon struct {
	site   *core.Spack
	srv    *service.Server
	seams  *passSeams    // nil in plain passes
	server *timedHandler // nil in plain passes
	hs     *http.Server
	served chan error
	tr     *http.Transport
	client *service.Client
	blobs  *service.HTTPBackend
}

func startDaemon(f *daemonFixture, isTraced bool) (*daemon, error) {
	d := &daemon{}
	if isTraced {
		d.seams = &passSeams{}
	}
	var err error
	if d.site, err = d.seams.newSite(d.seams.cacheBackend(f.farm.Mirror), core.WithLayout(relocatedLayout{})); err != nil {
		return nil, err
	}
	if err := trustOnly(d.site, "farm", f.pub); err != nil {
		return nil, err
	}
	d.srv = service.NewServer(service.Config{
		Mirror:      f.farm.Mirror,
		Concretizer: d.site.Concretizer,
		Builder:     d.site.Builder,
		Verifier:    d.site.Keyring,
		TrustPolicy: buildcache.TrustEnforce,
	})
	var h http.Handler = d.srv
	if isTraced {
		d.server = &timedHandler{h: d.srv}
		h = d.server
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d.hs = &http.Server{Handler: h}
	d.served = make(chan error, 1)
	go func() { d.served <- d.hs.Serve(lis) }()

	base := "http://" + lis.Addr().String()
	d.tr = &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}
	hc := &http.Client{Transport: d.tr}
	d.client = &service.Client{BaseURL: base, HTTP: hc}
	d.blobs = service.NewHTTPBackend(base)
	d.blobs.HTTP = hc
	return d, nil
}

// stop shuts the server down and waits for it to exit.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	d.tr.CloseIdleConnections()
	return err
}

// reply is what one request returned, for the checks.
type reply struct {
	lat         float64
	err         error
	cacheHits   int
	sourceBuilt int
}

// do sends one request and checks its answer.
func (d *daemon) do(f *daemonFixture, r request) reply {
	t0 := time.Now()
	var rep reply
	switch r.Kind {
	case reqConcretize:
		resp, err := d.client.Concretize(r.Arg)
		rep.lat = ms(time.Since(t0))
		if rep.err = err; err == nil && resp.FullHash != f.hashes[r.Arg] {
			rep.err = fmt.Errorf("hash %s, a serial solve gives %s", resp.FullHash, f.hashes[r.Arg])
		}
	case reqInstall:
		resp, err := d.client.Install(r.Arg)
		rep.lat = ms(time.Since(t0))
		if err != nil {
			rep.err = err
			break
		}
		if !resp.Coalesced {
			rep.cacheHits, rep.sourceBuilt = resp.CacheHits, resp.SourceBuilt
		}
		switch {
		case resp.FullHash != f.hashes[r.Arg]:
			rep.err = fmt.Errorf("hash %s, a serial solve gives %s", resp.FullHash, f.hashes[r.Arg])
		case resp.SourceBuilt != 0:
			rep.err = fmt.Errorf("%d nodes built from source", resp.SourceBuilt)
		}
	case reqBlob:
		data, ok, err := d.blobs.Get(r.Arg)
		rep.lat = ms(time.Since(t0))
		sum := sha256.Sum256(data)
		switch {
		case err != nil:
			rep.err = err
		case !ok || hex.EncodeToString(sum[:]) != f.sums[r.Arg]:
			rep.err = errors.New("missing, or not the bytes the farm stored")
		}
	}
	if rep.err != nil {
		rep.err = fmt.Errorf("%s %s: %w", r.Kind, r.Arg, rep.err)
	}
	return rep
}

// replay runs the trace through the clients, each sending its next
// request only when the previous one answered, and returns the replies
// in trace order with the replay's wall time.
func (d *daemon) replay(f *daemonFixture) ([]reply, time.Duration) {
	out := make([]reply, len(f.trace))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(f.trace); i = int(next.Add(1)) - 1 {
				out[i] = d.do(f, f.trace[i])
			}
		}()
	}
	wg.Wait()
	return out, time.Since(t0)
}

// runDaemon replays the seeded trace against a fresh daemon, pass after
// pass.
func runDaemon(c settings) (*outcome, error) {
	o := newOutcome(0.995, [3]string{"concretize_p50_ms", "request_p995_ms", "requests_per_s"})
	f, err := oneTimeSetup(o, func() (*daemonFixture, error) { return newDaemonFixture(c.seed) })
	if err != nil {
		return nil, err
	}

	var (
		byKind    = map[string]*dist{} // plain passes, by request kind
		cold      []float64            // each pass's share of cold requests
		all       dist                 // plain passes, every request
		tracedSol dist                 // traced passes, concretize requests
		layers    []layerSet
		parse     dist
	)
	for _, k := range []string{reqConcretize, reqInstall, reqBlob} {
		byKind[k] = &dist{}
	}
	err = runPasses(c, o, func(_ int, kind passKind) error {
		isTraced := kind == traced
		t0 := time.Now()
		d, err := startDaemon(f, isTraced)
		if err != nil {
			return err
		}
		o.passSetup = append(o.passSetup, time.Since(t0).Seconds())

		replies, wall := d.replay(f)
		st := d.srv.Stats()
		if err := d.stop(); err != nil {
			return fmt.Errorf("stop daemon: %w", err)
		}
		var hits, built, pulling float64
		var passAll, passSolves []float64
		failedBefore := o.failed
		for i, r := range replies {
			o.attempted++
			if r.err != nil {
				o.fail("%v", r.err)
			}
			k := f.trace[i].Kind
			passAll = append(passAll, r.lat)
			if k == reqConcretize {
				passSolves = append(passSolves, r.lat)
			}
			switch kind {
			case plain:
				byKind[k].add(r.lat)
				all.add(r.lat)
			case traced:
				if k == reqConcretize {
					tracedSol.add(r.lat)
				}
			}
			hits += float64(r.cacheHits)
			built += float64(r.sourceBuilt)
			if r.cacheHits > 0 {
				pulling++
			}
		}
		// Cold requests: concretizations the memo cache missed, and installs
		// that pulled and relocated at least one archive.
		misses := float64(st.Concretize.Requests - st.Concretize.Hits)
		cold = append(cold, (misses+pulling)/float64(len(replies)))
		if st.SourceBuilds != 0 && o.failed == failedBefore {
			// The install replies already count the builds they saw.
			o.fail("daemon pass: %d installs built from source", st.SourceBuilds)
		}
		o.info["daemon_records"] = d.site.Store.Len()

		switch kind {
		case plain:
			o.opTimes = append(o.opTimes, passAll)
			o.p50Times = append(o.p50Times, passSolves)
			o.rates = append(o.rates, float64(len(replies))/wall.Seconds())
		case traced:
			for _, r := range f.trace {
				if r.Kind != reqBlob {
					t0 := time.Now()
					_, _ = syntax.Parse(r.Arg) // parsed without error when the fixture was built
					parse.add(float64(time.Since(t0)) / float64(time.Microsecond))
				}
			}
			l := layerSet{
				"syntax.parses":                  float64(st.Concretize.Requests + st.Install.Requests),
				"store.records":                  float64(d.site.Store.Len()),
				"buildcache.hit_ratio":           ratio(hits, hits+built),
				"service.concretize_p50_ms":      st.Concretize.P50MS,
				"service.concretize_p99_ms":      st.Concretize.P99MS,
				"service.install_p50_ms":         st.Install.P50MS,
				"service.install_p99_ms":         st.Install.P99MS,
				"service.blobs_p50_ms":           st.Blobs.P50MS,
				"service.concretize_hit_ratio":   ratio(float64(st.Concretize.Hits), float64(st.Concretize.Requests)),
				"service.install_coalesced":      float64(st.Install.Coalesced),
				"service.source_builds":          float64(st.SourceBuilds),
				"service.bytes_out_mb":           float64(st.Blobs.BytesOut+st.Concretize.BytesOut+st.Install.BytesOut) / (1 << 20),
				"service.client_overhead_ms_p50": median(passAll) - d.server.d.q(0.5),
			}
			d.seams.addLayers(l)
			addSolverLayers(l, d.site.Concretizer)
			layers = append(layers, l)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	o.info["cold_request_frac"] = median(cold)
	o.name("request_p50_ms", all.q(0.5), "ms", all.len())
	o.name("install_p50_ms", byKind[reqInstall].q(0.5), "ms", byKind[reqInstall].len())
	o.name("install_p99_ms", byKind[reqInstall].q(0.99), "ms", byKind[reqInstall].len())
	o.name("blob_p50_ms", byKind[reqBlob].q(0.5), "ms", byKind[reqBlob].len())
	if c.trace {
		o.layers = medianLayers(layers)
		o.layers["syntax.parse_us_p50"] = parse.q(0.5)
		o.layers["bench.trace_overhead_frac"] = ratio(tracedSol.q(0.5), byKind[reqConcretize].q(0.5)) - 1
	}
	return o, nil
}
