package buildcache

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"strings"

	"repro/internal/spec"
	"repro/internal/syntax"
)

// ReuseCandidates returns the concrete spec recorded in every cached
// archive's metadata document, keyed by full DAG hash — the buildcache's
// half of the concretizer's ReuseSource seam. Only the small <hash>.meta
// documents are read. A document that does not decode, or whose DAG does
// not hash to the name it is stored under (torn or edited spec_json), is
// skipped: a cache is an optimization, never a source of truth.
func (c *Cache) ReuseCandidates() (map[string]*spec.Spec, error) {
	names, err := c.be.List()
	if err != nil {
		return nil, err
	}
	out := make(map[string]*spec.Spec)
	for _, name := range names {
		hash, ok := strings.CutSuffix(name, ".meta")
		if !ok {
			continue
		}
		data, ok, err := c.be.Get(name)
		if err != nil || !ok {
			continue
		}
		md, err := DecodeMetadata(data)
		if err != nil {
			continue
		}
		s, err := syntax.DecodeJSON(md.SpecJSON)
		if err != nil || s.FullHash() != hash {
			continue
		}
		out[hash] = s
	}
	return out, nil
}

// ReuseFingerprint identifies the current archive set: a digest over the
// sorted hash → checksum pairs, so any push (or a replaced archive)
// invalidates reuse answers computed before it. A backend that cannot be
// listed reports a sentinel that never matches a healthy fingerprint.
func (c *Cache) ReuseFingerprint() string {
	keys, err := c.Keys()
	if err != nil {
		return "buildcache:unavailable"
	}
	hashes := make([]string, 0, len(keys))
	for h := range keys {
		hashes = append(hashes, h)
	}
	sort.Strings(hashes)
	d := sha256.New()
	for _, h := range hashes {
		d.Write([]byte(h))
		d.Write([]byte{'='})
		d.Write([]byte(keys[h]))
		d.Write([]byte{0})
	}
	return "buildcache:" + hex.EncodeToString(d.Sum(nil))[:16]
}
