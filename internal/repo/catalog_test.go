package repo

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/pkg"
	"repro/internal/syntax"
	"repro/internal/version"
)

// catalogView renders every catalog-backed accessor of a path, so two
// calls can be compared as one string.
func catalogView(p *Path) string {
	var b strings.Builder
	fmt.Fprintf(&b, "names=%v virtuals=%v fp=%s\n", p.Names(), p.Virtuals(), p.Fingerprint())
	for _, v := range []string{"mpi", "blas", "vol"} {
		fmt.Fprintf(&b, "%s virtual=%v providers=%v", v, p.IsVirtual(v), p.ProviderNames(v))
		for _, pr := range p.ProvidersFor(syntax.MustParse(v)) {
			fmt.Fprintf(&b, " %s:%s:%s", pr.Package.Name, specString(pr.When), pr.Virtual)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// readConcurrently renders the path's view from several goroutines at
// once (the first of them builds the catalog) and checks they agree.
func readConcurrently(t *testing.T, p *Path) string {
	t.Helper()
	views := make([]string, 8)
	var wg sync.WaitGroup
	for i := range views {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			views[i] = catalogView(p)
		}(i)
	}
	wg.Wait()
	for i, v := range views[1:] {
		if v != views[0] {
			t.Fatalf("reader %d disagrees:\n%s\nvs\n%s", i+1, v, views[0])
		}
	}
	return views[0]
}

func TestCatalogSeesAdd(t *testing.T) {
	site := NewRepo("site")
	site.MustAdd(pkg.New("app").Describe("d").WithVersion("1.0", "a").DependsOn("mpi"))
	base := NewRepo("base")
	base.MustAdd(pkg.New("mpich").Describe("d").WithVersion("3.0", "b").ProvidesVirtual("mpi@:3", ""))
	base.MustAdd(pkg.New("openblas").Describe("d").WithVersion("0.2", "c").ProvidesVirtual("blas", ""))
	path := NewPath(site, base)

	before := readConcurrently(t, path)
	fp := path.Fingerprint()
	if !path.IsVirtual("blas") || path.IsVirtual("vol") {
		t.Fatalf("before Add:\n%s", before)
	}

	// A provider of a new virtual, and a package that shadows an existing
	// virtual's name.
	site.MustAdd(pkg.New("hdf5-vol").Describe("d").WithVersion("1.0", "d").ProvidesVirtual("vol@2", ""))
	site.MustAdd(pkg.New("blas").Describe("d").WithVersion("1.0", "e"))

	after := readConcurrently(t, path)
	if after == before {
		t.Fatalf("catalog did not change after Add:\n%s", after)
	}
	if path.Fingerprint() == fp {
		t.Error("Fingerprint unchanged after Add")
	}
	if !path.IsVirtual("vol") {
		t.Error("vol should be virtual after Add")
	}
	if path.IsVirtual("blas") {
		t.Error("blas names a visible package after Add and is no longer virtual")
	}
	if got := path.ProviderNames("vol"); len(got) != 1 || got[0] != "hdf5-vol" {
		t.Errorf("ProviderNames(vol) = %v", got)
	}
	if got := path.ProvidersFor(syntax.MustParse("vol")); len(got) != 1 || got[0].Package.Name != "hdf5-vol" {
		t.Errorf("ProvidersFor(vol) = %v", providerNames(got))
	}
	if got := fmt.Sprint(path.Virtuals()); got != "[mpi vol]" {
		t.Errorf("Virtuals = %s", got)
	}
	if got := fmt.Sprint(path.Names()); got != "[app blas hdf5-vol mpich openblas]" {
		t.Errorf("Names = %s", got)
	}
}

func TestCatalogResultsAreCopies(t *testing.T) {
	path := NewPath(Builtin())
	before := readConcurrently(t, path)

	names := path.Names()
	names[0] = "mutated"
	provNames := path.ProviderNames("mpi")
	provNames[0] = "mutated"
	virtuals := path.Virtuals()
	virtuals[0] = "mutated"
	provs := path.ProvidersFor(syntax.MustParse("mpi"))
	provs[0].Virtual.Name = "mutated"
	provs[0].Virtual.Versions = version.ExactList(version.Parse("99"))
	provs[1] = Provider{}

	if after := readConcurrently(t, path); after != before {
		t.Errorf("mutating returned results changed the path:\n%s\nvs\n%s", after, before)
	}
}
