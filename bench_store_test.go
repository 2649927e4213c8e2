// Store benchmarks (run via `make bench-store` → BENCH_store.json):
//
//	BenchmarkStoreContention/{save-each,save-once}/wN — N concurrent
//	    builders each installing distinct specs into one store, probing
//	    dependencies after every install. save-each persists the database
//	    after every install (real Spack's discipline for crash recovery);
//	    save-once runs the same installs and probes and saves once at the
//	    end. Because Save rewrites only the hash-prefix shards dirtied
//	    since the last Save, saving after every install costs a bounded
//	    multiple of saving once, instead of O(records) spec encodings per
//	    install.
//	BenchmarkStoreLookupContention/wN — the executor-style read side: N
//	    workers hammering IsInstalled on a populated store. Context only;
//	    it carries no bar.
//
// cmd/benchjson derives store_save_cost_inv_w8 = allocs/op(save-once/w8)
// ÷ allocs/op(save-each/w8); the acceptance bar is a 0.5 floor, i.e.
// saving after every install costs at most 2x the allocations of saving
// once.
package repro

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/compiler"
	"repro/internal/concretize"
	"repro/internal/config"
	"repro/internal/simfs"
	"repro/internal/spec"
	"repro/internal/store"
)

// storePoolSize is how many distinct configurations the contention
// workload installs. Big enough that the monolithic index's O(records)
// save cost shows, small enough for quick iterations.
const storePoolSize = 64

var (
	storePoolOnce sync.Once
	storePool     []*spec.Spec
)

// storeSpecPool concretizes storePoolSize distinct packages once and
// reuses the concrete DAG roots across iterations (the store only reads
// them).
func storeSpecPool(b *testing.B) []*spec.Spec {
	storePoolOnce.Do(func() {
		path := fig8Path()
		c := concretize.New(path, config.New(), compiler.LLNLRegistry())
		names := path.Names()
		if len(names) > storePoolSize {
			names = names[:storePoolSize]
		}
		for _, name := range names {
			out, err := c.Concretize(spec.New(name))
			if err != nil {
				panic(fmt.Sprintf("store bench pool: %s: %v", name, err))
			}
			storePool = append(storePool, out)
		}
	})
	if len(storePool) == 0 {
		b.Fatal("store bench pool failed to build")
	}
	return storePool
}

var storeWorkerCounts = []int{1, 2, 4, 8}

// BenchmarkStoreContention is the concurrent-builder workload: workers
// split the spec pool, and each install is followed by dependency probes
// and — in save-each — a database Save: the §3.4.2 store under the access
// pattern the parallel executor produces.
func BenchmarkStoreContention(b *testing.B) {
	pool := storeSpecPool(b)
	payload := []byte("simulated install payload")
	for _, mode := range []string{"save-each", "save-once"} {
		saveEach := mode == "save-each"
		for _, workers := range storeWorkerCounts {
			b.Run(fmt.Sprintf("%s/w%d", mode, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					st, err := store.New(simfs.New(simfs.TempFS), "/spack/opt", store.SpackLayout{})
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()

					errCh := make(chan error, workers)
					var wg sync.WaitGroup
					for w := 0; w < workers; w++ {
						w := w
						wg.Add(1)
						go func() {
							defer wg.Done()
							for j := w; j < len(pool); j += workers {
								s := pool[j]
								if _, _, err := st.Install(s, true, func(prefix string) error {
									return st.FS.WriteFile(prefix+"/payload", payload)
								}); err != nil {
									errCh <- err
									return
								}
								// Executor-style probes: is my dependency
								// installed yet?
								st.IsInstalled(pool[(j*7+1)%len(pool)])
								st.IsInstalled(pool[(j*13+3)%len(pool)])
								if saveEach {
									if err := st.Save(); err != nil {
										errCh <- err
										return
									}
								}
							}
						}()
					}
					wg.Wait()
					close(errCh)
					for err := range errCh {
						b.Fatal(err)
					}
					if !saveEach {
						if err := st.Save(); err != nil {
							b.Fatal(err)
						}
					}
					if st.Len() != len(pool) {
						b.Fatalf("store holds %d of %d records", st.Len(), len(pool))
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(len(pool)), "installs")
				b.ReportMetric(
					float64(len(pool))*float64(b.N)/b.Elapsed().Seconds(),
					"installs/sec")
			})
		}
	}
}

// BenchmarkStoreLookupContention measures the read side alone: a
// populated store probed concurrently, the hot path of `spack find`, view
// refreshes and executor reuse checks.
func BenchmarkStoreLookupContention(b *testing.B) {
	pool := storeSpecPool(b)
	const probesPerWorker = 2048
	for _, workers := range storeWorkerCounts {
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			st, err := store.New(simfs.New(simfs.TempFS), "/spack/opt", store.SpackLayout{})
			if err != nil {
				b.Fatal(err)
			}
			for _, s := range pool {
				if _, _, err := st.Install(s, false, func(string) error { return nil }); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					w := w
					wg.Add(1)
					go func() {
						defer wg.Done()
						for j := 0; j < probesPerWorker; j++ {
							if !st.IsInstalled(pool[(w+j)%len(pool)]) {
								b.Error("probe missed an installed spec")
								return
							}
						}
					}()
				}
				wg.Wait()
			}
			b.StopTimer()
			total := float64(workers) * probesPerWorker
			b.ReportMetric(total*float64(b.N)/b.Elapsed().Seconds(), "lookups/sec")
		})
	}
}
