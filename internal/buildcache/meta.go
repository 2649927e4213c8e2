package buildcache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// Metadata is the spec-metadata document stored as <hash>.meta beside an
// archive: the provenance a signature must make tamper-evident. Where the
// archive carries the bytes, the metadata carries the claims — what spec
// the bytes are, where they came from (source build, binary pull, or a
// splice with its lineage), and the archive checksum binding the two.
// The detached signature covers the checksum *and* this document's
// digest, so editing the provenance (say, hiding a splice) breaks the
// signature even though the archive bytes are untouched.
type Metadata struct {
	Format   int    `json:"format"`
	Package  string `json:"package"`
	Version  string `json:"version"`
	FullHash string `json:"full_hash"`
	Spec     string `json:"spec"`
	// SpecJSON preserves the exact DAG edge structure, so the hash
	// survives the round trip. It is the only copy: the archive payload
	// carries the flat spec string alone, and ReuseCandidates reads the
	// DAG from here.
	SpecJSON json.RawMessage `json:"spec_json"`
	// ArchiveSHA256 binds this document to one archive payload.
	ArchiveSHA256 string `json:"archive_sha256"`
	// Origin is how the pushed record was produced ("source", "binary",
	// "external", "spliced").
	Origin string `json:"origin,omitempty"`
	// SplicedFrom is the full hash of the install this record was rewired
	// from, when the record is the product of a splice.
	SplicedFrom string `json:"spliced_from,omitempty"`
	// Lineage is the build-provenance chain, oldest first: every full
	// hash this install was spliced from, transitively.
	Lineage []string `json:"lineage,omitempty"`
}

// EncodeMetadata renders the canonical metadata bytes the signature's
// digest covers.
func EncodeMetadata(m *Metadata) ([]byte, error) {
	data, err := json.MarshalIndent(m, "", " ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// DecodeMetadata parses a metadata document.
func DecodeMetadata(data []byte) (*Metadata, error) {
	var m Metadata
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("buildcache: corrupt metadata: %w", err)
	}
	return &m, nil
}

// SignedMessage is the string a cache signature covers: the archive
// checksum alone when no metadata document rides with the archive
// (pre-metadata pushes), or the checksum plus the metadata document's
// SHA-256 digest. Binding the digest into the message makes the
// provenance tamper-evident: editing or deleting the metadata of a
// signed archive invalidates its signature.
func SignedMessage(checksum string, metaBytes []byte) string {
	if len(metaBytes) == 0 {
		return checksum
	}
	sum := sha256.Sum256(metaBytes)
	return checksum + "\n" + hex.EncodeToString(sum[:])
}
