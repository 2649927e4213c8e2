package repo

import (
	"sort"
	"sync"
)

// A catalog is everything a Path derives from its repositories, computed
// once per set of repository generations: the visible package names, the
// reverse index from each provided interface name to its providers (§3.3,
// Fig. 6), and — lazily, since only the memo cache needs it — the
// fingerprint. A catalog is never mutated after newCatalog returns; a
// repository change makes the Path build a fresh one.
type catalog struct {
	gens    []uint64 // each repository's generation at build time
	names   []string // visible package names, sorted
	visible map[string]bool
	// providers maps every provided name to the visible packages providing
	// it, ordered by package name with conditioned entries first.
	providers map[string][]Provider
	virtuals  []string // provided names that are not visible packages, sorted

	fpOnce sync.Once
	fp     string
}

// catalog returns the path's catalog, rebuilding it if some repository
// has changed since it was built.
func (p *Path) catalog() *catalog {
	if c := p.cat.Load(); c != nil && c.current(p.repos) {
		return c
	}
	c := newCatalog(p.repos)
	p.cat.Store(c)
	return c
}

func (c *catalog) current(repos []*Repo) bool {
	for i, r := range repos {
		if c.gens[i] != r.generation() {
			return false
		}
	}
	return true
}

func newCatalog(repos []*Repo) *catalog {
	c := &catalog{
		gens:      make([]uint64, len(repos)),
		visible:   make(map[string]bool),
		providers: make(map[string][]Provider),
	}
	for i, r := range repos {
		c.gens[i] = r.generation()
		for name, def := range r.packages {
			if c.visible[name] {
				continue
			}
			c.visible[name] = true
			c.names = append(c.names, name)
			for _, pr := range def.Provides {
				v := pr.Virtual.Name
				c.providers[v] = append(c.providers[v], Provider{Package: def, When: pr.When, Virtual: pr.Virtual})
			}
		}
	}
	sort.Strings(c.names)
	for v, provs := range c.providers {
		sort.SliceStable(provs, func(i, j int) bool {
			if provs[i].Package.Name != provs[j].Package.Name {
				return provs[i].Package.Name < provs[j].Package.Name
			}
			return provs[i].When != nil && provs[j].When == nil
		})
		if !c.visible[v] {
			c.virtuals = append(c.virtuals, v)
		}
	}
	sort.Strings(c.virtuals)
	return c
}
