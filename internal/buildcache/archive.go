package buildcache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"strings"

	"repro/internal/relocate"
)

// archiveFormatVersion is bumped whenever the serialized archive layout
// changes incompatibly; Pull refuses archives from other versions.
const archiveFormatVersion = 1

// archiveReloc is the relocation table entry for one packed file: how
// many occurrences of each source path (store root, own prefix, each
// dependency prefix) its contents carry. Pull re-counts while rewriting
// and treats any disagreement as a relocation failure — the archive was
// packed against a different tree than it claims.
type archiveReloc struct {
	Path        string         `json:"path"`
	Occurrences map[string]int `json:"occurrences"`
}

// Archive is the deterministic relocatable form of one installed prefix:
// a manifest of files, the flat spec string, the recorded compiler command
// lines of the original build, and a relocation table of every path
// occurrence that must be rewritten on Pull. The full concrete DAG rides
// in the signed <hash>.meta document, not here.
type Archive struct {
	Format   int    `json:"format"`
	Package  string `json:"package"`
	Version  string `json:"version"`
	FullHash string `json:"full_hash"`
	// Spec is the flat rendering for human readers.
	Spec string `json:"spec"`
	// StoreRoot and Prefix are the paths of the *source* store the
	// archive was packed from; DepPrefixes maps each dependency's package
	// name to its source prefix. Together they define the relocation
	// sources.
	StoreRoot   string            `json:"store_root"`
	Prefix      string            `json:"prefix"`
	DepPrefixes map[string]string `json:"dep_prefixes,omitempty"`
	// Commands are the compiler command lines recorded in the original
	// build log — provenance for how the binaries were produced, and the
	// source of the expected rpath set.
	Commands []string `json:"commands,omitempty"`
	// Files are the packed files and symlinks, paths relative to the
	// prefix (see checkPaths); file bodies round-trip through base64.
	Files       []relocate.File `json:"files"`
	Relocations []archiveReloc  `json:"relocations,omitempty"`
}

// encode renders the canonical archive bytes the checksum covers.
func (a *Archive) encode() ([]byte, error) {
	return json.MarshalIndent(a, "", " ")
}

// checksumOf is the cache's integrity hash over canonical archive bytes.
func checksumOf(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// checkPaths enforces the manifest path rule: every file path is
// non-empty, relative, clean (path.Clean leaves it unchanged) and free of
// ".." segments — fs.ValidPath, less the "." that names the prefix
// itself — so materializing the archive can write nowhere but under its
// target prefix.
func (a *Archive) checkPaths() error {
	for _, f := range a.Files {
		if f.Path == "." || !fs.ValidPath(f.Path) {
			return fmt.Errorf("archive file path %q is not a clean relative path", f.Path)
		}
	}
	return nil
}

// Relocation builds the options that move the archive into a target
// store: its own prefix maps to prefix, its store root to root, and each
// recorded dependency prefix to what dep answers for that package name.
// Want carries the recorded per-file occurrence counts for Materialize to
// re-verify, and ForbidRoot the source store root when it differs from
// root (no rewritten rpath may still point into it). A dep error is
// returned as is, so each caller keeps its own classification.
func (a *Archive) Relocation(prefix, root string, dep func(name string) (string, error)) (relocate.Options, error) {
	pairs := map[string]string{a.Prefix: prefix, a.StoreRoot: root}
	for name, src := range a.DepPrefixes {
		dst, err := dep(name)
		if err != nil {
			return relocate.Options{}, err
		}
		pairs[src] = dst
	}
	want := make(map[string]map[string]int, len(a.Relocations))
	for _, r := range a.Relocations {
		want[r.Path] = r.Occurrences
	}
	forbid := ""
	if a.StoreRoot != root {
		forbid = a.StoreRoot
	}
	return relocate.Options{Table: relocate.NewTable(pairs), Want: want, ForbidRoot: forbid}, nil
}

// archiveName and checksumName are the backend object names for a full
// spec hash. The checksum rides separately so verification does not
// require parsing a possibly-corrupt archive.
func archiveName(hash string) string  { return hash + ".spack.json" }
func checksumName(hash string) string { return hash + ".sha256" }

// sigName is the detached signature object for a full spec hash (a
// Signature document signing the recorded checksum and the metadata
// digest); absent for archives pushed without a signing identity.
func sigName(hash string) string { return hash + ".sig" }

// metaName is the spec-metadata document for a full spec hash: the
// provenance JSON (spec, origin, splice lineage, archive checksum) the
// signature covers alongside the archive bytes.
func metaName(hash string) string { return hash + ".meta" }

// hashOfName inverts the four object names back to the full spec hash,
// reporting which suffix the name carried. Lifecycle sweeps use it to
// group an archive with its checksum, metadata and signature as one unit.
func hashOfName(name string) (hash string, ok bool) {
	for _, suffix := range []string{".spack.json", ".sha256", ".sig", ".meta"} {
		if h, found := strings.CutSuffix(name, suffix); found {
			return h, true
		}
	}
	return "", false
}

// parseBuildCommands extracts the recorded command lines from a
// provenance build log (the "==> commands" section of .spack/build.out).
func parseBuildCommands(log []byte) []string {
	var out []string
	in := false
	for _, line := range strings.Split(string(log), "\n") {
		if strings.HasPrefix(line, "==>") {
			in = strings.TrimSpace(line) == "==> commands"
			continue
		}
		if in && line != "" {
			out = append(out, line)
		}
	}
	return out
}
