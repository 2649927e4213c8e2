# Convenience targets; everything is plain `go` underneath (stdlib only).

.PHONY: all test race bench bench-concretize bench-store bench-buildcache bench-env bench-service bench-sched bench-lifecycle bench-splice bench-check crash-race experiments examples vet lint clean

all: vet test

# STATICCHECK pins the analyzer version so local runs and CI lint with
# the same binary; bump the pin here and nowhere else.
STATICCHECK := honnef.co/go/tools/cmd/staticcheck@2025.1.1

# One lint entry point for local runs and CI: gofmt drift, go vet, and
# the pinned staticcheck. Fetching staticcheck needs the module proxy;
# on an offline machine that step degrades to a warning instead of
# failing the build (vet and gofmt still gate).
lint:
	@fmt_out="$$(gofmt -l .)"; if [ -n "$$fmt_out" ]; then \
		echo "gofmt drift in:"; echo "$$fmt_out"; exit 1; fi
	go vet ./...
	@if go run $(STATICCHECK) -version >/dev/null 2>&1; then \
		go run $(STATICCHECK) ./...; \
	else \
		echo "warning: staticcheck unavailable (offline?); skipped"; \
	fi

test:
	go test ./...

race:
	go test -race ./...

vet:
	go vet ./...

bench:
	go test -bench=. -benchmem ./...

# Concretizer fast-path benchmarks: cold sweep, warm memo cache, parallel
# batch, and the per-hit micro-benchmark, rendered to BENCH_concretize.json
# (including the derived warm-cache and parallel speedups).
bench-concretize:
	go test -run '^$$' -bench 'Fig8|ConcretizeCacheHit|ARESConcretize(GreedyCold|Reuse)' -benchmem . \
		| tee bench_concretize.txt \
		| go run ./cmd/benchjson -o BENCH_concretize.json
	cat BENCH_concretize.json

# Store contention benchmarks: 1/2/4/8 concurrent builders saving the
# database after every install vs. once at the end, plus concurrent
# readers (lookup), rendered to BENCH_store.json with the derived
# save-cost ratio at 8 workers.
bench-store:
	go test -run '^$$' -bench 'StoreContention|StoreLookupContention' -benchmem . \
		| tee bench_store.txt \
		| go run ./cmd/benchjson -o BENCH_store.json
	cat BENCH_store.json

# Binary-cache benchmarks: the 47-package ARES stack installed from
# source vs. pulled from a seeded cache at Jobs=8, rendered to
# BENCH_buildcache.json with the derived cached-install speedup.
bench-buildcache:
	go test -run '^$$' -bench 'BuildcacheARES' -benchmem . \
		| tee bench_buildcache.txt \
		| go run ./cmd/benchjson -o BENCH_buildcache.json
	cat BENCH_buildcache.json

# Environment benchmarks: `env install` of a three-root manifest on a
# fresh machine vs. re-run against the unchanged lockfile, rendered to
# BENCH_env.json with the derived warm-lockfile speedup.
bench-env:
	go test -run '^$$' -bench 'EnvInstall' -benchmem . \
		| tee bench_env.txt \
		| go run ./cmd/benchjson -o BENCH_env.json
	cat BENCH_env.json

# Buildcache-service benchmarks: a 256-client thundering herd of
# installs against the HTTP daemon (cold store, then warm), rendered to
# BENCH_service.json with the derived herd-coalescing ratio (clients
# per cache-miss build).
bench-service:
	go test -run '^$$' -bench 'ServiceInstallHerd' -benchmem . \
		| tee bench_service.txt \
		| go run ./cmd/benchjson -o BENCH_service.json
	cat BENCH_service.json

# Distributed-scheduler benchmarks: the cold ARES DAG built by 1/2/4/8
# lease workers against the daemon vs. the single-machine Jobs=8
# executor, rendered to BENCH_sched.json with the derived worker-scaling
# speedups (virtual makespan of the realized schedule).
bench-sched:
	go test -run '^$$' -bench 'SchedWorkers' -benchmem . \
		| tee bench_sched.txt \
		| go run ./cmd/benchjson -o BENCH_sched.json
	cat BENCH_sched.json

# Store-lifecycle benchmarks: a journaled GC sweep of the ARES store
# with a majority of its bytes demoted to garbage, rendered to
# BENCH_lifecycle.json with the derived reclaim percentage (zeroed if
# any live prefix is not byte-identical after the sweep).
bench-lifecycle:
	go test -run '^$$' -bench 'LifecycleGC' -benchmem . \
		| tee bench_lifecycle.txt \
		| go run ./cmd/benchjson -o BENCH_lifecycle.json
	cat BENCH_lifecycle.json

# Splice benchmarks: the installed ARES stack rewired from zlib@1.2.7
# to 1.2.8 by relocating archived binaries (one transaction per cone)
# vs. recompiling the same dependent cone from source, rendered to
# BENCH_splice.json with the derived splice-vs-rebuild speedup
# (simulated install time, as in Fig. 10).
bench-splice:
	go test -run '^$$' -bench 'SpliceVsRebuild' -benchmem . \
		| tee bench_splice.txt \
		| go run ./cmd/benchjson -o BENCH_splice.json
	cat BENCH_splice.json

# Regression gate: every committed benchmark report must clear its
# declared acceptance bar (warm concretize ≥10x, sharded store ≥2x at 8
# workers, cached ARES install ≥5x, warm env lockfile ≥10x, service
# herd coalescing ≥8 clients per cache-miss build, 4-worker scheduler
# scaling ≥2x, GC reclaim ≥95% of dead bytes with the live closure
# byte-identical, splice ≥5x over rebuilding the cone).
bench-check:
	go run ./cmd/benchjson -check BENCH_concretize.json BENCH_store.json BENCH_buildcache.json BENCH_env.json BENCH_service.json BENCH_sched.json BENCH_lifecycle.json BENCH_splice.json

# The transactional-integrity suite under the race detector: every
# crash-injection sweep (journal recovery, env apply/uninstall, view
# refresh, GC and mirror-prune sweeps, mid-splice crashes) across the
# packages that stage through internal/txn.
crash-race:
	go test -race -run 'Crash|Recover|Fault|HalfLink' \
		./internal/txn/ ./internal/store/ ./internal/views/ ./internal/modules/ ./internal/env/ ./internal/buildcache/ ./internal/lifecycle/ ./internal/splice/

experiments:
	go run ./cmd/experiments -all

examples:
	go run ./examples/quickstart
	go run ./examples/ares
	go run ./examples/pythonstack
	go run ./examples/sitepolicies
	go run ./examples/toolstack

clean:
	rm -f spack-go test_output.txt bench_output.txt experiments_output.txt bench_concretize.txt bench_store.txt bench_buildcache.txt bench_env.txt bench_service.txt bench_sched.txt bench_lifecycle.txt bench_splice.txt
