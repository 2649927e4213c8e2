package spec

import (
	"crypto/sha256"
	"encoding/base32"
	"sort"
	"strings"
)

// DAGHash returns a short, stable identifier for the full configuration of
// a spec DAG. Like the paper's SHA-hashed directory component (§3.4.2), it
// covers every parameter of every node plus the edge structure, so two
// builds that differ only in, say, the version of one dependency hash
// differently, while dependency insertion order does not matter (the
// canonical string already sorts nodes and variants). DAGHash is a prefix
// of FullHash, so the two never disagree about identity.
func (s *Spec) DAGHash() string {
	return s.FullHash()[:8]
}

// FullHash is the full-length configuration hash, for provenance records
// and as the spec component of concretizer memo-cache keys. A frozen node
// computes it on first read and returns the memoized string after.
func (s *Spec) FullHash() string {
	if !s.frozen {
		return s.computeFullHash()
	}
	if m := s.memo.Load(); m != nil && m.hash != "" {
		return m.hash
	}
	h := s.computeFullHash()
	s.fill(func(m *frozenMemo) { m.hash = h })
	return h
}

func (s *Spec) computeFullHash() string {
	sum := sha256.Sum256([]byte(s.canonicalDAG()))
	enc := base32.StdEncoding.WithPadding(base32.NoPadding)
	return strings.ToLower(enc.EncodeToString(sum[:]))
}

// canonicalDAG serializes the DAG with explicit edges: the plain String()
// rendering flattens dependencies, which would identify DAGs with equal
// node sets but different edge structure.
func (s *Spec) canonicalDAG() string {
	var b strings.Builder
	for _, n := range sortedNodes(s) {
		n.formatNode(&b)
		b.WriteString(" ->")
		for _, d := range n.DirectDeps() {
			b.WriteByte(' ')
			b.WriteString(d.Name)
			if t := n.EdgeType(d.Name); t != DepDefault {
				b.WriteByte('[')
				b.WriteString(t.String())
				b.WriteByte(']')
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func sortedNodes(s *Spec) []*Spec {
	nodes := s.Nodes()
	// Keep root first; sort the rest by name for stability (names are
	// unique within a DAG, so the order is total).
	rest := nodes[1:]
	sort.Slice(rest, func(i, j int) bool { return rest[i].Name < rest[j].Name })
	return nodes
}

// frozenMemo is what a frozen node has computed about itself. A published
// memo is never modified: fill swaps in an updated copy.
type frozenMemo struct {
	hash    string  // FullHash; "" until first read
	deps    []*Spec // DirectDeps, valid when depsSet
	depsSet bool
}

// fill publishes a copy of the node's memo with set applied, retrying
// when a concurrent fill of the other field won the race, so neither
// field's value is lost.
func (s *Spec) fill(set func(*frozenMemo)) {
	for {
		old := s.memo.Load()
		next := &frozenMemo{}
		if old != nil {
			*next = *old
		}
		set(next)
		if s.memo.CompareAndSwap(old, next) {
			return
		}
	}
}

// Freeze marks every node of a finished concrete DAG immutable and returns
// s. The spec-package mutators panic on a frozen node, and FullHash and
// DirectDeps memoize there, so a DAG shared by the store, the memo cache
// and concurrent requests is hashed once per node rather than once per
// read. Freezing costs one walk and no allocation: nothing is computed
// until something reads it. A frozen node's dependencies are frozen too,
// so the walk stops at nodes frozen before.
//
// Freeze cannot guard the exported fields: writing one on a frozen node is
// a bug the memo will not notice. Clone the DAG to change it.
func (s *Spec) Freeze() *Spec {
	if s.frozen {
		return s
	}
	s.frozen = true
	for _, d := range s.Deps {
		d.Freeze()
	}
	return s
}

// Frozen reports whether Freeze has marked the node immutable.
func (s *Spec) Frozen() bool { return s.frozen }

// CloneFrozen returns a frozen deep copy of s whose every node already
// carries its full hash, so the copy never hashes. On a frozen s the
// hashes are memoized there as they are read, which makes CloneFrozen the
// way to hand out private copies of one long-lived DAG (the memo cache's
// hits) with the hashing paid once.
func (s *Spec) CloneFrozen() *Spec {
	return s.cloneDAG(func(orig, c *Spec) {
		c.memo.Store(&frozenMemo{hash: orig.FullHash()})
	}).Freeze()
}

func (s *Spec) mustBeMutable(op string) {
	if s.frozen {
		panic("spec: " + op + " on frozen spec " + s.Name)
	}
}
