package buildcache_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/buildcache"
	"repro/internal/fetch"
	"repro/internal/simfs"
	"repro/internal/store"
)

// FuzzArchiveManifest stores arbitrary bytes as libelf's archive, with a
// checksum record that matches them, and pulls them into a fresh store.
// Whatever the bytes, the pull succeeds or fails with a *buildcache.Error,
// never panics, and writes nothing outside the target prefix and the
// store's own database.
func FuzzArchiveManifest(f *testing.F) {
	mirror, _, concrete := pushedMirror(f, "libelf")
	hash := concrete.FullHash()
	valid, ok := mirror.Blob(archiveBlob(hash))
	if !ok {
		f.Fatal("archive blob missing")
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])

	f.Fuzz(func(t *testing.T, payload []byte) {
		m := fetch.NewMirror()
		m.PutBlob(archiveBlob(hash), payload)
		m.PutBlob(checksumBlob(hash), []byte(sha256Hex(payload)+"\n"))
		cache := buildcache.New(buildcache.NewMirrorBackend(m))

		fs := simfs.New(simfs.TempFS)
		st, err := store.New(fs, "/site/store", store.SpackLayout{})
		if err != nil {
			t.Fatal(err)
		}
		before := treePaths(t, fs)
		_, err = cache.Pull(st, concrete, false)
		var ce *buildcache.Error
		if err != nil && !errors.As(err, &ce) {
			t.Fatalf("pull failed with an untyped error %T: %v", err, err)
		}
		prefix := st.Prefix(concrete)
		for p := range treePaths(t, fs) {
			if before[p] || strings.HasPrefix(p, prefix+"/") || strings.HasPrefix(p, st.Root+"/.spack-db/") {
				continue
			}
			t.Errorf("pull wrote %s outside the target prefix", p)
		}
	})
}
