// Package config models Spack's site and user configuration (SC'15 §3.4.4,
// §4.3): preference policies the concretizer consults to make consistent,
// repeatable choices for parameters the user left unspecified — default
// architecture, compiler order (the `compiler_order = icc,gcc@4.6.1`
// example), virtual-provider order, preferred package versions, variant
// overrides — plus external package registrations (vendor MPI installs) and
// view link rules. User scope overrides site scope, which overrides the
// built-in defaults.
package config

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/spec"
	"repro/internal/syntax"
	"repro/internal/version"
)

// External registers a system-provided installation that satisfies a spec
// constraint outside the store (e.g. the host MPI of Table 3's Cray and
// BG/Q machines).
type External struct {
	// Constraint is what the external satisfies, e.g. "cray-mpi@7.0.1".
	Constraint *spec.Spec
	// Arch restricts the registration to one platform ("" = all).
	Arch string
	// Path is the installation prefix on the system.
	Path string
}

// ArchDescription factors per-platform build knowledge out of package
// files (§4.5: "we cannot currently factor common preferences — like
// configure arguments and architecture-specific compiler flags — out of
// packages and into separate architecture descriptions"; this implements
// that future-work feature). The builder consults the description of the
// target platform instead of each package hard-coding platform
// conditionals.
type ArchDescription struct {
	Name string
	// ConfigureArgs are appended to every ./configure invocation on this
	// platform (e.g. --host=powerpc64-bgq-linux).
	ConfigureArgs []string
	// CompilerFlags maps a compiler name to flags the wrappers inject on
	// this platform (e.g. xl -> -qarch=qp).
	CompilerFlags map[string][]string
	// FrontEnd names the login-node architecture of a cross-compiled
	// system, for tools that must run on the front end (§3.2.3).
	FrontEnd string
}

// LinkRule is one view projection rule (§4.3.1): a parameterized link-name
// template applied to packages matching a constraint.
type LinkRule struct {
	// Constraint selects the packages the rule covers (nil = all).
	Constraint *spec.Spec
	// Template is the link path with ${PACKAGE}, ${VERSION}, ${COMPILER},
	// ${MPINAME}, ${ARCH} and ${HASH} placeholders.
	Template string
}

// Scope is one layer of preferences (site or user).
type Scope struct {
	// DefaultArch is the target platform assumed when a spec has none.
	DefaultArch string
	// CompilerOrder lists compilers from most to least preferred; entries
	// may pin versions ("gcc@4.6.1"). Compilers not listed rank after all
	// listed ones (§4.3.1).
	CompilerOrder []spec.Compiler
	// ProviderOrder maps a virtual name to provider package names from most
	// to least preferred.
	ProviderOrder map[string][]string
	// PreferredVersions maps package name to a version constraint preferred
	// when the user did not pin one ("site can set default versions").
	PreferredVersions map[string]version.List
	// VariantDefaults overrides package variant defaults per package.
	VariantDefaults map[string]map[string]bool
	// Externals lists system installations.
	Externals []External
	// LinkRules configures view projections.
	LinkRules []LinkRule
	// ArchDescriptions maps platform names to their build descriptions.
	ArchDescriptions map[string]*ArchDescription
}

// NewScope returns an empty scope with allocated maps.
func NewScope() *Scope {
	return &Scope{
		ProviderOrder:     make(map[string][]string),
		PreferredVersions: make(map[string]version.List),
		VariantDefaults:   make(map[string]map[string]bool),
		ArchDescriptions:  make(map[string]*ArchDescription),
	}
}

// SetCompilerOrder parses a comma-separated compiler_order setting, the
// exact syntax of §4.3.1 ("compiler_order = icc,gcc@4.6.1").
func (s *Scope) SetCompilerOrder(order string) error {
	s.CompilerOrder = nil
	for _, part := range strings.Split(order, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		cs, err := syntax.Parse("%" + part)
		if err != nil {
			return fmt.Errorf("config: bad compiler_order entry %q: %v", part, err)
		}
		s.CompilerOrder = append(s.CompilerOrder, cs.Compiler)
	}
	return nil
}

// SetProviderOrder sets the preference order for a virtual interface.
func (s *Scope) SetProviderOrder(virtual string, providers ...string) {
	s.ProviderOrder[virtual] = providers
}

// PreferVersion records a preferred version constraint for a package.
func (s *Scope) PreferVersion(pkgName, constraint string) error {
	l, err := version.ParseList(constraint)
	if err != nil {
		return fmt.Errorf("config: bad preferred version %q for %s: %v", constraint, pkgName, err)
	}
	s.PreferredVersions[pkgName] = l
	return nil
}

// SetVariantDefault overrides a package's variant default.
func (s *Scope) SetVariantDefault(pkgName, variant string, value bool) {
	m := s.VariantDefaults[pkgName]
	if m == nil {
		m = make(map[string]bool)
		s.VariantDefaults[pkgName] = m
	}
	m[variant] = value
}

// AddExternal registers a system installation. The constraint must be
// written in spec syntax and should pin a version.
func (s *Scope) AddExternal(constraint, arch, path string) error {
	c, err := syntax.Parse(constraint)
	if err != nil {
		return fmt.Errorf("config: bad external constraint %q: %v", constraint, err)
	}
	s.Externals = append(s.Externals, External{Constraint: c, Arch: arch, Path: path})
	return nil
}

// AddLinkRule registers a view link rule; an empty constraint matches all
// packages.
func (s *Scope) AddLinkRule(constraint, template string) error {
	r := LinkRule{Template: template}
	if constraint != "" {
		c, err := syntax.Parse(constraint)
		if err != nil {
			return fmt.Errorf("config: bad link rule constraint %q: %v", constraint, err)
		}
		r.Constraint = c
	}
	s.LinkRules = append(s.LinkRules, r)
	return nil
}

// Config combines the site and user scopes. Lookups consult user first,
// then site, then built-in defaults.
type Config struct {
	Site *Scope
	User *Scope
}

// New returns a Config with empty site and user scopes.
func New() *Config {
	return &Config{Site: NewScope(), User: NewScope()}
}

// scopes returns the active scopes in precedence order.
func (c *Config) scopes() []*Scope {
	var out []*Scope
	if c.User != nil {
		out = append(out, c.User)
	}
	if c.Site != nil {
		out = append(out, c.Site)
	}
	return out
}

// DefaultArch resolves the default architecture, falling back to
// "linux-x86_64" when neither scope sets one.
func (c *Config) DefaultArch() string {
	for _, s := range c.scopes() {
		if s.DefaultArch != "" {
			return s.DefaultArch
		}
	}
	return "linux-x86_64"
}

// CompilerOrder returns the merged preference list: user entries first,
// then site entries not shadowed by a user entry for the same name.
func (c *Config) CompilerOrder() []spec.Compiler {
	var out []spec.Compiler
	seen := make(map[string]bool)
	for _, s := range c.scopes() {
		for _, comp := range s.CompilerOrder {
			if seen[comp.Name] {
				continue
			}
			seen[comp.Name] = true
			out = append(out, comp)
		}
	}
	return out
}

// CompilerRank orders candidate compilers: listed compilers rank by list
// position; unlisted ones rank after every listed one (§4.3.1: "any
// compiler not in the compiler_order setting is less preferred"). A listed
// entry with a version constraint only matches candidates satisfying it.
func (c *Config) CompilerRank(candidate spec.Compiler) int {
	order := c.CompilerOrder()
	for i, pref := range order {
		if candidate.Name != pref.Name {
			continue
		}
		if !pref.Versions.IsAny() && !candidate.Versions.Satisfies(pref.Versions) {
			continue
		}
		return i
	}
	return len(order)
}

// ProviderOrder returns the merged provider preference for a virtual.
func (c *Config) ProviderOrder(virtual string) []string {
	var out []string
	seen := make(map[string]bool)
	for _, s := range c.scopes() {
		for _, p := range s.ProviderOrder[virtual] {
			if !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
		}
	}
	return out
}

// ProviderRank orders provider packages for a virtual: listed providers by
// position, unlisted after all listed, ties broken alphabetically by the
// caller's sort.
func (c *Config) ProviderRank(virtual, provider string) int {
	order := c.ProviderOrder(virtual)
	for i, p := range order {
		if p == provider {
			return i
		}
	}
	return len(order)
}

// PreferredVersion returns the configured version preference for a package.
func (c *Config) PreferredVersion(pkgName string) (version.List, bool) {
	for _, s := range c.scopes() {
		if l, ok := s.PreferredVersions[pkgName]; ok {
			return l, true
		}
	}
	return version.List{}, false
}

// VariantDefault resolves a variant override for a package.
func (c *Config) VariantDefault(pkgName, variant string) (bool, bool) {
	for _, s := range c.scopes() {
		if m, ok := s.VariantDefaults[pkgName]; ok {
			if v, ok := m[variant]; ok {
				return v, true
			}
		}
	}
	return false, false
}

// ExternalFor finds an external registration compatible with a node: the
// node's name and constraints must be compatible with the registration and
// the architectures must match.
func (c *Config) ExternalFor(node *spec.Spec, arch string) (External, bool) {
	for _, s := range c.scopes() {
		for _, e := range s.Externals {
			if e.Constraint.Name != node.Name {
				continue
			}
			if e.Arch != "" && arch != "" && e.Arch != arch {
				continue
			}
			if !node.Compatible(e.Constraint) {
				continue
			}
			return e, true
		}
	}
	return External{}, false
}

// LinkRules returns all link rules, user scope first.
func (c *Config) LinkRules() []LinkRule {
	var out []LinkRule
	for _, s := range c.scopes() {
		out = append(out, s.LinkRules...)
	}
	return out
}

// ArchDescription resolves a platform description (user scope first).
func (c *Config) ArchDescription(arch string) (*ArchDescription, bool) {
	for _, s := range c.scopes() {
		if d, ok := s.ArchDescriptions[arch]; ok {
			return d, true
		}
	}
	return nil, false
}

// Externals lists all registered externals sorted by package name, for
// reporting.
func (c *Config) Externals() []External {
	var out []External
	for _, s := range c.scopes() {
		out = append(out, s.Externals...)
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].Constraint.Name < out[j].Constraint.Name
	})
	return out
}
