package store

import (
	"strings"
	"testing"

	"repro/internal/compiler"
	"repro/internal/concretize"
	"repro/internal/config"
	"repro/internal/repo"
	"repro/internal/simfs"
	"repro/internal/spec"
	"repro/internal/syntax"
)

func testConcretizer() *concretize.Concretizer {
	return concretize.New(repo.NewPath(repo.Builtin()), config.New(), compiler.LLNLRegistry())
}

func mustConcrete(t *testing.T, expr string) *spec.Spec {
	t.Helper()
	s, err := testConcretizer().Concretize(syntax.MustParse(expr))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func newStore(t *testing.T) *Store {
	t.Helper()
	st, err := New(simfs.New(simfs.TempFS), "/spack/opt", SpackLayout{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func noopBuilder(prefix string) error { return nil }

// TestSpackLayoutShape checks the Table 1 "Spack default" row:
// /$arch/$compiler-$comp_version/$package-$version-$options-$hash.
func TestSpackLayoutShape(t *testing.T) {
	s := mustConcrete(t, "mpileaks+debug")
	rel := SpackLayout{}.RelPath(s)
	parts := strings.Split(rel, "/")
	if len(parts) != 3 {
		t.Fatalf("layout = %q", rel)
	}
	if parts[0] != "linux-x86_64" {
		t.Errorf("arch component = %q", parts[0])
	}
	if !strings.HasPrefix(parts[1], "gcc-") {
		t.Errorf("compiler component = %q", parts[1])
	}
	if !strings.HasPrefix(parts[2], "mpileaks-2.3-+debug-") {
		t.Errorf("leaf component = %q", parts[2])
	}
	// Hash suffix of 8 chars.
	leaf := parts[2]
	if len(leaf[strings.LastIndex(leaf, "-")+1:]) != 8 {
		t.Errorf("hash suffix wrong in %q", leaf)
	}
}

// TestSiteLayouts renders the other Table 1 conventions.
func TestSiteLayouts(t *testing.T) {
	s := mustConcrete(t, "mpileaks")
	llnl := LLNLLayout{}.RelPath(s)
	if !strings.HasPrefix(llnl, "mpileaks-gcc-") || !strings.HasSuffix(llnl, "-2.3") {
		t.Errorf("LLNL layout = %q", llnl)
	}
	ornl := ORNLLayout{}.RelPath(s)
	if !strings.HasPrefix(ornl, "linux-x86_64/mpileaks/2.3/") {
		t.Errorf("ORNL layout = %q", ornl)
	}
	tacc := TACCLayout{IsMPI: func(n string) bool { return n == "mvapich2" || n == "mpich" || n == "openmpi" }}.RelPath(s)
	// compiler/mpi/mpi_version/package/version
	parts := strings.Split(tacc, "/")
	if len(parts) != 5 || parts[3] != "mpileaks" || parts[4] != "2.3" {
		t.Errorf("TACC layout = %q", tacc)
	}
	if parts[1] == "serial" {
		t.Errorf("TACC layout should find the MPI dep: %q", tacc)
	}

	// Serial package: no MPI in DAG.
	z := mustConcrete(t, "zlib")
	taccZ := TACCLayout{IsMPI: func(string) bool { return false }}.RelPath(z)
	if !strings.Contains(taccZ, "/serial/none/") {
		t.Errorf("serial TACC layout = %q", taccZ)
	}
}

// TestUniquePrefixes: different configurations get different prefixes
// (§3.4.2), identical ones the same prefix.
func TestUniquePrefixes(t *testing.T) {
	st := newStore(t)
	a := mustConcrete(t, "mpileaks")
	b := mustConcrete(t, "mpileaks+debug")
	c := mustConcrete(t, "mpileaks")
	if st.Prefix(a) == st.Prefix(b) {
		t.Error("different variants must get different prefixes")
	}
	if st.Prefix(a) != st.Prefix(c) {
		t.Error("same configuration must get the same prefix")
	}
	// A dependency-only difference still changes the hash and prefix.
	d := mustConcrete(t, "mpileaks ^libelf@0.8.12")
	if st.Prefix(a) == st.Prefix(d) {
		t.Error("dependency change must change the prefix")
	}
}

func TestInstallAndReuse(t *testing.T) {
	st := newStore(t)
	s := mustConcrete(t, "libelf")
	calls := 0
	rec, built, err := st.Install(s, true, func(prefix string) error {
		calls++
		return st.FS.WriteFile(prefix+"/marker", []byte("x"))
	})
	if err != nil || !built || calls != 1 {
		t.Fatalf("first install: rec=%v built=%v calls=%d err=%v", rec, built, calls, err)
	}
	if !st.IsInstalled(s) || st.Len() != 1 {
		t.Error("not recorded as installed")
	}
	// Second install reuses; builder must not run.
	_, built, err = st.Install(s, false, func(prefix string) error {
		calls++
		return nil
	})
	if err != nil || built || calls != 1 {
		t.Errorf("reuse failed: built=%v calls=%d err=%v", built, calls, err)
	}
}

func TestInstallRejectsAbstract(t *testing.T) {
	st := newStore(t)
	if _, _, err := st.Install(syntax.MustParse("libelf"), false, noopBuilder); err == nil {
		t.Error("abstract spec must not install")
	}
}

func TestInstallFailureCleansPrefix(t *testing.T) {
	st := newStore(t)
	s := mustConcrete(t, "libelf")
	_, _, err := st.Install(s, false, func(prefix string) error {
		st.FS.WriteFile(prefix+"/partial", []byte("x"))
		return &InstallError{Spec: "libelf", Err: nil}
	})
	if err == nil {
		t.Fatal("expected failure")
	}
	if ex, _ := st.FS.Stat(st.Prefix(s) + "/partial"); ex {
		t.Error("partial install not cleaned")
	}
	if st.IsInstalled(s) {
		t.Error("failed install recorded")
	}
}

func TestProvenance(t *testing.T) {
	st := newStore(t)
	s := mustConcrete(t, "libelf")
	rec, _, err := st.Install(s, true, noopBuilder)
	if err != nil {
		t.Fatal(err)
	}
	// §3.4.3: the spec file can reproduce the build later.
	got, err := st.ReadProvenance(rec.Prefix)
	if err != nil {
		t.Fatal(err)
	}
	reparsed := syntax.MustParse(got)
	if reparsed.String() != s.String() {
		t.Errorf("provenance round trip: %q vs %q", reparsed, s)
	}
	if _, err := st.FS.ReadFile(rec.Prefix + "/.spack/build.log"); err != nil {
		t.Error("build log missing")
	}
}

// TestSharedSubDAG reproduces Fig. 9: mpileaks built with mpich and then
// with openmpi shares the dyninst sub-DAG (same prefixes for dyninst,
// libdwarf, libelf) but not callpath (its DAG contains the MPI).
func TestSharedSubDAG(t *testing.T) {
	st := newStore(t)
	c := testConcretizer()
	installDAG := func(expr string) map[string]string {
		root, err := c.Concretize(syntax.MustParse(expr))
		if err != nil {
			t.Fatal(err)
		}
		prefixes := make(map[string]string)
		builds := 0
		for _, n := range root.TopoOrder() {
			rec, built, err := st.Install(n, n == root, noopBuilder)
			if err != nil {
				t.Fatal(err)
			}
			if built {
				builds++
			}
			prefixes[n.Name] = rec.Prefix
		}
		t.Logf("%s: %d new builds", expr, builds)
		return prefixes
	}
	withMpich := installDAG("mpileaks ^mpich")
	withOpenmpi := installDAG("mpileaks ^openmpi")

	for _, shared := range []string{"dyninst", "libdwarf", "libelf", "boost"} {
		if withMpich[shared] != withOpenmpi[shared] {
			t.Errorf("%s should be shared: %q vs %q", shared, withMpich[shared], withOpenmpi[shared])
		}
	}
	for _, distinct := range []string{"mpileaks", "callpath"} {
		if withMpich[distinct] == withOpenmpi[distinct] {
			t.Errorf("%s should differ between MPI stacks", distinct)
		}
	}
}

func TestFind(t *testing.T) {
	st := newStore(t)
	for _, expr := range []string{"libelf@0.8.13", "libelf@0.8.12", "zlib"} {
		s := mustConcrete(t, expr)
		if _, _, err := st.Install(s, true, noopBuilder); err != nil {
			t.Fatal(err)
		}
	}
	if got := st.Find(syntax.MustParse("libelf")); len(got) != 2 {
		t.Errorf("Find(libelf) = %d records", len(got))
	}
	if got := st.Find(syntax.MustParse("libelf@0.8.13")); len(got) != 1 {
		t.Errorf("Find(libelf@0.8.13) = %d records", len(got))
	}
	if got := st.Find(syntax.MustParse("libelf@0.9:")); len(got) != 0 {
		t.Errorf("Find(libelf@0.9:) = %d records", len(got))
	}
	if got := st.Find(syntax.MustParse("zlib%gcc")); len(got) != 1 {
		t.Errorf("Find(zlib%%gcc) = %d records", len(got))
	}
	if all := st.All(); len(all) != 3 {
		t.Errorf("All = %d", len(all))
	}
}

func TestUninstallDependentCheck(t *testing.T) {
	st := newStore(t)
	c := testConcretizer()
	root, err := c.Concretize(syntax.MustParse("libdwarf"))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range root.TopoOrder() {
		if _, _, err := st.Install(n, n == root, noopBuilder); err != nil {
			t.Fatal(err)
		}
	}
	libelf := root.Dep("libelf")
	err = st.Uninstall(libelf, false)
	ue, ok := err.(*UninstallError)
	if !ok || len(ue.Dependents) == 0 {
		t.Fatalf("uninstall of depended-on package should report dependents, got %v", err)
	}
	// Force works.
	if err := st.Uninstall(libelf, true); err != nil {
		t.Fatal(err)
	}
	if st.IsInstalled(libelf) {
		t.Error("forced uninstall did not remove record")
	}
	// Uninstall of root then works normally, and prefix disappears.
	rec, _ := st.Lookup(root)
	if err := st.Uninstall(root, false); err != nil {
		t.Fatal(err)
	}
	if ex, _ := st.FS.Stat(rec.Prefix); ex {
		t.Error("prefix survived uninstall")
	}
	if err := st.Uninstall(root, false); err == nil {
		t.Error("double uninstall should fail")
	}
}

func TestExternalInstall(t *testing.T) {
	st := newStore(t)
	s := mustConcrete(t, "libelf").Clone()
	s.External = true
	s.Path = "/usr"
	rec, built, err := st.Install(s, false, func(prefix string) error {
		t.Error("builder must not run for externals")
		return nil
	})
	if err != nil || built {
		t.Fatalf("external install: %v built=%v", err, built)
	}
	if rec.Prefix != "/usr" {
		t.Errorf("external prefix = %q", rec.Prefix)
	}
	// Uninstall must not remove /usr.
	st.FS.MkdirAll("/usr")
	st.FS.WriteFile("/usr/keep", []byte("x"))
	if err := st.Uninstall(s, false); err != nil {
		t.Fatal(err)
	}
	if ex, _ := st.FS.Stat("/usr/keep"); !ex {
		t.Error("uninstalling an external removed system files")
	}
}

func TestConcurrentInstallSameSpec(t *testing.T) {
	st := newStore(t)
	s := mustConcrete(t, "zlib")
	done := make(chan bool)
	builds := make(chan bool, 16)
	for i := 0; i < 8; i++ {
		go func() {
			_, built, err := st.Install(s, false, noopBuilder)
			if err != nil {
				t.Error(err)
			}
			builds <- built
			done <- true
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	close(builds)
	n := 0
	for b := range builds {
		if b {
			n++
		}
	}
	if st.Len() != 1 {
		t.Errorf("Len = %d", st.Len())
	}
	if n == 0 {
		t.Error("nobody built")
	}
}
