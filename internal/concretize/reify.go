package concretize

import (
	"errors"

	"repro/internal/concretize/solve"
	"repro/internal/spec"
)

// errAnonymous rejects specs with no root package name.
var errAnonymous = errors.New("cannot concretize an anonymous spec")

// checkNames is the only step before the engine: every named node of the
// input must be a package or a virtual interface.
func (c *Concretizer) checkNames(abstract *spec.Spec) error {
	if abstract.Name == "" {
		return &Error{Spec: abstract.String(), Err: errAnonymous}
	}
	var nameErr error
	abstract.Traverse(func(n *spec.Spec) bool {
		if _, _, ok := c.Path.Get(n.Name); ok || c.Path.IsVirtual(n.Name) {
			return true
		}
		nameErr = &UnknownPackageError{Name: n.Name, Suggestions: c.suggest(n.Name)}
		return false
	})
	if nameErr != nil {
		return &Error{Spec: abstract.String(), Err: nameErr}
	}
	return nil
}

// reify builds the backtracking search's domains, only after the greedy
// pass has conflicted: every virtual with its providers in criteria order
// (reuse-pinned first, then configured policy rank, then name), marked
// reachable when the input can pull it in. Reachability is computed conservatively —
// every dependency directive counts, conditional (when=) or not — so the
// search never branches on a virtual the input cannot possibly pull in, yet
// never misses one a condition might activate.
func (c *Concretizer) reify(abstract *spec.Spec, pins map[string]*spec.Spec) *solve.Problem {
	// Reachability closure over packages and virtuals; a provider's own
	// dependencies can pull in further virtuals.
	seen := make(map[string]bool)
	var queue []string
	visit := func(name string) {
		if !seen[name] {
			seen[name] = true
			queue = append(queue, name)
		}
	}
	abstract.Traverse(func(n *spec.Spec) bool {
		visit(n.Name)
		return true
	})
	for len(queue) > 0 {
		name := queue[0]
		queue = queue[1:]
		if c.Path.IsVirtual(name) {
			for _, p := range c.Path.ProviderNames(name) {
				visit(p)
			}
			continue
		}
		if def, _, ok := c.Path.Get(name); ok {
			for _, d := range def.Dependencies {
				visit(d.Constraint.Name)
			}
		}
	}

	prob := &solve.Problem{Root: abstract.Name}
	for _, v := range c.Path.Virtuals() {
		vf := solve.VirtualFacts{Name: v, Reachable: seen[v]}
		for _, p := range c.Path.ProviderNames(v) {
			vf.Providers = append(vf.Providers, c.providerFact(pins, v, p))
		}
		solve.RankProviders(vf.Providers)
		prob.Virtuals = append(prob.Virtuals, vf)
	}
	return prob
}
