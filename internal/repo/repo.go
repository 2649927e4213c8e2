// Package repo implements package repositories (SC'15 §3.1, §4.3.2): named
// collections of package definitions, searched along a configurable path so
// that site-specific repositories can override or extend the builtin one,
// plus the reverse index from virtual interface names to their providers
// that drives virtual-dependency resolution (§3.3, Fig. 6).
package repo

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/pkg"
	"repro/internal/spec"
)

// A Repo is one namespace of package definitions.
type Repo struct {
	Namespace string
	packages  map[string]*pkg.Package
	// gen counts mutations (Add calls), letting a Path keep its catalog
	// until a repository actually changes.
	gen atomic.Uint64
}

// NewRepo creates an empty repository with a namespace like "builtin" or
// "llnl.ares".
func NewRepo(namespace string) *Repo {
	return &Repo{Namespace: namespace, packages: make(map[string]*pkg.Package)}
}

// Add registers a package definition, validating it first. Re-adding a name
// replaces the previous definition (site repos use fresh Repos instead).
func (r *Repo) Add(p *pkg.Package) error {
	if err := p.Validate(); err != nil {
		return err
	}
	r.packages[p.Name] = p
	r.gen.Add(1)
	return nil
}

// generation returns the mutation counter, used for catalog invalidation.
func (r *Repo) generation() uint64 { return r.gen.Load() }

// MustAdd is Add for package-set construction code; it panics on error.
func (r *Repo) MustAdd(p *pkg.Package) {
	if err := r.Add(p); err != nil {
		panic(err)
	}
}

// Get returns a package definition by name.
func (r *Repo) Get(name string) (*pkg.Package, bool) {
	p, ok := r.packages[name]
	return p, ok
}

// Names returns all package names, sorted.
func (r *Repo) Names() []string {
	out := make([]string, 0, len(r.packages))
	for n := range r.packages {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of packages in the repository.
func (r *Repo) Len() int { return len(r.packages) }

// A Path is an ordered search path of repositories: the first repository
// containing a name wins, so a site repo listed before builtin overrides
// builtin's recipe (§4.3.2: "custom packages can inherit from and replace
// Spack's default packages").
type Path struct {
	repos []*Repo
	cat   atomic.Pointer[catalog] // see catalog.go
}

// NewPath builds a search path; earlier repositories take precedence. The
// list is fixed from then on.
func NewPath(repos ...*Repo) *Path {
	return &Path{repos: slices.Clone(repos)}
}

// Repos returns the path in precedence order.
func (p *Path) Repos() []*Repo { return p.repos }

// Get resolves a package name along the path, returning the definition and
// the namespace that supplied it.
func (p *Path) Get(name string) (*pkg.Package, string, bool) {
	for _, r := range p.repos {
		if def, ok := r.Get(name); ok {
			return def, r.Namespace, true
		}
	}
	return nil, "", false
}

// MustGet is Get for callers that have already checked existence.
func (p *Path) MustGet(name string) *pkg.Package {
	def, _, ok := p.Get(name)
	if !ok {
		panic(fmt.Sprintf("repo: unknown package %q", name))
	}
	return def
}

// Names returns the union of package names visible along the path, sorted.
func (p *Path) Names() []string { return slices.Clone(p.catalog().names) }

// IsVirtual reports whether a name denotes a virtual interface: no package
// file of that name exists, but at least one package provides it (§3.3).
func (p *Path) IsVirtual(name string) bool {
	c := p.catalog()
	return !c.visible[name] && len(c.providers[name]) > 0
}

// ProviderNames returns the names of all packages with a provides directive
// for the virtual, sorted.
func (p *Path) ProviderNames(virtual string) []string {
	var out []string
	for _, pr := range p.catalog().providers[virtual] {
		if n := len(out); n == 0 || out[n-1] != pr.Package.Name {
			out = append(out, pr.Package.Name)
		}
	}
	return out
}

// Provider describes one candidate implementation of a virtual spec: the
// provider package and the provider configuration constraint under which it
// supplies a compatible interface version.
type Provider struct {
	Package *pkg.Package
	// When is the provider-side condition (e.g. mvapich2@2.0 provides
	// mpi@:3.0 only when the provider itself is at 2.0); nil if
	// unconditional.
	When *spec.Spec
	// Virtual is the interface spec supplied under that condition.
	Virtual *spec.Spec
}

// ProvidersFor returns the reverse-index entries for one virtual
// constraint: all (package, condition) pairs whose provided interface
// version list is compatible with the requested virtual spec (Fig. 6's
// "Resolve Virtual Deps" stage), sorted by package name with conditioned
// entries first. Each entry's Virtual is the caller's own copy.
func (p *Path) ProvidersFor(virtual *spec.Spec) []Provider {
	var out []Provider
	for _, pr := range p.catalog().providers[virtual.Name] {
		if pr.Virtual.Compatible(virtual) {
			pr.Virtual = pr.Virtual.Clone()
			out = append(out, pr)
		}
	}
	return out
}

// Providers returns every provides entry for the named virtual, in
// ProvidersFor's order and without the compatibility filter. The slice and
// its specs are shared with the path and every other caller: read them,
// never modify them.
func (p *Path) Providers(virtual string) []Provider { return p.catalog().providers[virtual] }

// Virtuals returns the names of all virtual interfaces visible on the path.
func (p *Path) Virtuals() []string { return slices.Clone(p.catalog().virtuals) }
