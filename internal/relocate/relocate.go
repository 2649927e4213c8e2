// Package relocate is the shared binary-relocation engine behind the
// build cache and the splice operation (SC'15 §3.4's prefix rewriting
// plus §3.5.2's rpath isolation). It owns the mechanics of moving an
// installed prefix between path namespaces: longest-source-first rewrite
// tables, single-pass byte rewriting with per-source occurrence counts,
// count verification against a recorded relocation table, an rpath sanity
// scan, and the temp+rename materialization of a relocated file set into
// a target prefix.
//
// Two consumers share it: buildcache.Pull relocates archives packed on
// another machine into the local store, and splice rewires an installed
// DAG in place — replacing one dependency's prefix under every dependent
// without rebuilding them.
package relocate

import (
	"sort"
	"strings"
	"time"
)

// FileCPU is the simulated CPU cost of scanning and rewriting one file —
// tiny next to the compile time relocation replaces.
const FileCPU = 40 * time.Microsecond

// Rule is one source→target path rewrite.
type Rule struct {
	From string
	To   string
}

// Table is an ordered set of rewrite rules, longest source first, so
// nested paths (a dependency prefix inside the store root) are matched
// before their parents — replacing the root first would corrupt every
// prefix occurrence under it.
type Table []Rule

// NewTable builds a Table from source→target pairs, ordered longest
// source first (ties break lexicographically for determinism). An empty
// source is dropped: it would match at every offset and Rewrite would
// never advance.
func NewTable(pairs map[string]string) Table {
	out := make(Table, 0, len(pairs))
	for from, to := range pairs {
		if from != "" {
			out = append(out, Rule{From: from, To: to})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].From) != len(out[j].From) {
			return len(out[i].From) > len(out[j].From)
		}
		return out[i].From < out[j].From
	})
	return out
}

// Identity builds a Table mapping each path to itself — the packer's
// table: rewriting is a no-op but the occurrence counts record how many
// times each source appears, which is what Push stores for Pull to verify.
func Identity(paths ...string) Table {
	pairs := make(map[string]string, len(paths))
	for _, p := range paths {
		pairs[p] = p
	}
	return NewTable(pairs)
}

// Rewrite rewrites every occurrence of the table's source paths in one
// pass (leftmost match, longest source wins) and returns the result plus
// per-source occurrence counts.
func (t Table) Rewrite(data []byte) ([]byte, map[string]int) {
	counts := make(map[string]int)
	if len(t) == 0 {
		return data, counts
	}
	// Fast path: no source occurs at all (bulk data files).
	s := string(data)
	any := false
	for _, r := range t {
		if strings.Contains(s, r.From) {
			any = true
			break
		}
	}
	if !any {
		return data, counts
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); {
		matched := false
		for _, r := range t {
			if strings.HasPrefix(s[i:], r.From) {
				b.WriteString(r.To)
				counts[r.From]++
				i += len(r.From)
				matched = true
				break
			}
		}
		if !matched {
			b.WriteByte(s[i])
			i++
		}
	}
	return []byte(b.String()), counts
}

// RewriteString rewrites a single string (symlink targets).
func (t Table) RewriteString(s string) string {
	out, _ := t.Rewrite([]byte(s))
	return string(out)
}

// CountsEqual compares a re-count against a recorded table, ignoring
// zero entries on either side — a source recorded with zero occurrences
// constrains nothing.
func CountsEqual(got, want map[string]int) bool {
	for k, v := range want {
		if v != 0 && got[k] != v {
			return false
		}
	}
	for k, v := range got {
		if v != 0 && want[k] != v {
			return false
		}
	}
	return true
}

// Clean reports whether a count set records no occurrences at all.
func Clean(counts map[string]int) bool {
	for _, v := range counts {
		if v != 0 {
			return false
		}
	}
	return true
}

// RecordedOrClean accepts a file whose occurrence counts are either
// recorded in the relocation table or empty — occurrences the packer did
// not record mean the file set and its table disagree.
func RecordedOrClean(want map[string]map[string]int, path string, counts map[string]int) bool {
	if _, recorded := want[path]; recorded {
		return true
	}
	return Clean(counts)
}
