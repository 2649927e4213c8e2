package compiler

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/spec"
	"repro/internal/version"
)

func mustList(t *testing.T, s string) version.List {
	t.Helper()
	l, err := version.ParseList(s)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestRegistryAddReplace(t *testing.T) {
	r := NewRegistry()
	r.Add(Toolchain{Name: "gcc", Version: version.Parse("4.9.2"), CC: "/old/gcc"})
	r.Add(Toolchain{Name: "gcc", Version: version.Parse("4.9.2"), CC: "/new/gcc"})
	if r.Len() != 1 {
		t.Fatalf("Len = %d", r.Len())
	}
	if got := r.All()[0].CC; got != "/new/gcc" {
		t.Errorf("CC = %q, re-add should replace", got)
	}
}

func TestFindByConstraint(t *testing.T) {
	r := LLNLRegistry()
	// All gccs, newest first.
	gccs := r.Find(spec.Compiler{Name: "gcc"}, "linux-x86_64")
	if len(gccs) != 3 || gccs[0].Version.String() != "4.9.2" {
		t.Errorf("gccs = %v", gccs)
	}
	// Version-constrained.
	got := r.Find(spec.Compiler{Name: "gcc", Versions: mustList(t, "4.7:")}, "linux-x86_64")
	if len(got) != 2 {
		t.Errorf("gcc@4.7: = %v", got)
	}
	// Arch-filtered: xl only targets bgq.
	if got := r.Find(spec.Compiler{Name: "xl"}, "linux-x86_64"); len(got) != 0 {
		t.Errorf("xl on linux = %v", got)
	}
	if got := r.Find(spec.Compiler{Name: "xl"}, "bgq"); len(got) != 1 {
		t.Errorf("xl on bgq = %v", got)
	}
	// Empty constraint matches all for the arch.
	all := r.Find(spec.Compiler{}, "bgq")
	if len(all) != 2 { // clang + xl
		t.Errorf("bgq toolchains = %v", all)
	}
}

func TestDefaultPrefersGCC(t *testing.T) {
	r := LLNLRegistry()
	d, ok := r.Default("linux-x86_64")
	if !ok || d.Name != "gcc" || d.Version.String() != "4.9.2" {
		t.Errorf("default = %v, %v", d, ok)
	}
	// On bgq there is no gcc: newest supporting toolchain wins.
	d, ok = r.Default("bgq")
	if !ok || (d.Name != "clang" && d.Name != "xl") {
		t.Errorf("bgq default = %v, %v", d, ok)
	}
	_, ok = r.Default("no-such-arch")
	if ok {
		t.Error("unknown arch should have no default")
	}
}

func TestToolchainSpec(t *testing.T) {
	tc := Toolchain{Name: "intel", Version: version.Parse("14.0.1")}
	s := tc.Spec()
	if !s.Concrete() || s.String() != "intel@14.0.1" {
		t.Errorf("Spec = %v", s)
	}
	if tc.String() != "intel@14.0.1" {
		t.Errorf("String = %q", tc.String())
	}
}

func TestSupports(t *testing.T) {
	host := Toolchain{Name: "gcc"}
	if !host.Supports("linux-x86_64") || !host.Supports("") {
		t.Error("host toolchain should support host arch")
	}
	if host.Supports("bgq") {
		t.Error("host toolchain should not support bgq")
	}
	cross := Toolchain{Name: "xl", Targets: []string{"bgq"}}
	if !cross.Supports("bgq") || cross.Supports("linux-x86_64") {
		t.Error("cross toolchain targets wrong")
	}
}

func TestDetectFromPATH(t *testing.T) {
	dirs := map[string][]string{
		"/usr/bin": {
			"gcc-4.9.2", "g++-4.9.2", "gfortran-4.9.2",
			"gcc-4.4.7", "g++-4.4.7",
			"clang-3.5.0", "clang++-3.5.0",
			"ls", "cat", "gcc", // unversioned and unrelated files ignored
		},
		"/opt/intel/bin": {"icc-14.0.1", "icpc-14.0.1", "ifort-14.0.1"},
	}
	found := DetectFromPATH(dirs)
	byKey := make(map[string]Toolchain)
	for _, tc := range found {
		byKey[tc.String()] = tc
	}
	gcc, ok := byKey["gcc@4.9.2"]
	if !ok || gcc.CC != "/usr/bin/gcc-4.9.2" || gcc.CXX != "/usr/bin/g++-4.9.2" ||
		gcc.FC != "/usr/bin/gfortran-4.9.2" || gcc.F77 != gcc.FC {
		t.Errorf("gcc@4.9.2 = %+v (ok=%v)", gcc, ok)
	}
	if _, ok := byKey["gcc@4.4.7"]; !ok {
		t.Error("second gcc version not detected")
	}
	if _, ok := byKey["clang@3.5.0"]; !ok {
		t.Error("clang not detected")
	}
	intel, ok := byKey["intel@14.0.1"]
	if !ok || intel.CC != "/opt/intel/bin/icc-14.0.1" {
		t.Errorf("intel = %+v", intel)
	}
	// Sorted: name asc, version desc.
	for i := 1; i < len(found); i++ {
		a, b := found[i-1], found[i]
		if a.Name > b.Name || (a.Name == b.Name && a.Version.Compare(b.Version) < 0) {
			t.Errorf("unsorted detection output at %d: %v then %v", i, a, b)
		}
	}
}

func TestDetectIgnoresCXXOnly(t *testing.T) {
	// A directory with only a C++ driver yields no toolchain (needs CC).
	found := DetectFromPATH(map[string][]string{"/x": {"g++-5.1.0"}})
	if len(found) != 0 {
		t.Errorf("found = %v", found)
	}
}

func TestSplitVersionSuffix(t *testing.T) {
	tests := []struct{ in, base, ver string }{
		{"gcc-4.9.2", "gcc", "4.9.2"},
		{"clang++-3.5.0", "clang++", "3.5.0"},
		{"gcc", "gcc", ""},
		{"pgc++", "pgc++", ""},
		{"gcc-", "gcc-", ""},
	}
	for _, tt := range tests {
		b, v := splitVersionSuffix(tt.in)
		if b != tt.base || v != tt.ver {
			t.Errorf("splitVersionSuffix(%q) = %q, %q", tt.in, b, v)
		}
	}
}

func TestLLNLRegistryComplete(t *testing.T) {
	r := LLNLRegistry()
	for _, want := range []string{"gcc", "intel", "pgi", "clang", "xl"} {
		if len(r.Find(spec.Compiler{Name: want}, "")) == 0 &&
			len(r.Find(spec.Compiler{Name: want}, "bgq")) == 0 &&
			len(r.Find(spec.Compiler{Name: want}, "cray-xe6")) == 0 {
			t.Errorf("LLNL registry missing %s", want)
		}
	}
}

// TestFingerprintFollowsAdd: the kept fingerprint changes on every Add
// that changes the registry, stays put otherwise, and always equals what
// a fresh registry with the same toolchains computes.
func TestFingerprintFollowsAdd(t *testing.T) {
	fresh := func(ts ...Toolchain) string {
		r := NewRegistry()
		for _, tc := range ts {
			r.Add(tc)
		}
		return r.Fingerprint()
	}
	gcc := Toolchain{Name: "gcc", Version: version.Parse("4.9.2"), Features: []string{"c99"}}
	r := NewRegistry()
	empty := r.Fingerprint()
	r.Add(gcc)
	one := r.Fingerprint()
	if one == empty {
		t.Error("adding a toolchain left the fingerprint unchanged")
	}
	if r.Fingerprint() != one || one != fresh(gcc) {
		t.Error("fingerprint not stable between changes")
	}
	gcc11 := gcc
	gcc11.Features = []string{"c99", "cxx11"}
	r.Add(gcc11) // replaces gcc@4.9.2
	if got := r.Fingerprint(); got == one || got != fresh(gcc11) {
		t.Errorf("replacing Add: fingerprint %s, was %s, want %s", got, one, fresh(gcc11))
	}
	clang := Toolchain{Name: "clang", Version: version.Parse("3.5")}
	r.Add(clang)
	if got := r.Fingerprint(); got != fresh(gcc11, clang) {
		t.Errorf("after a new toolchain: fingerprint %s, want %s", got, fresh(gcc11, clang))
	}
}

func TestFingerprintConcurrentAdd(t *testing.T) {
	r := LLNLRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if w%2 == 0 {
					r.Add(Toolchain{Name: "gcc", Version: version.Parse(fmt.Sprintf("9.%d.%d", w, i))})
				}
				_ = r.Fingerprint()
			}
		}(w)
	}
	wg.Wait()
	want := NewRegistry()
	for _, tc := range r.All() {
		want.Add(tc)
	}
	if r.Fingerprint() != want.Fingerprint() {
		t.Error("fingerprint after concurrent adds does not match the final registry")
	}
}
