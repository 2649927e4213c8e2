package views

import (
	"strings"
	"testing"

	"repro/internal/compiler"
	"repro/internal/concretize"
	"repro/internal/config"
	"repro/internal/repo"
	"repro/internal/simfs"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/syntax"
)

type env struct {
	fs    *simfs.FS
	st    *store.Store
	cfg   *config.Config
	conc  *concretize.Concretizer
	isMPI func(string) bool
}

func newEnv(t *testing.T) *env {
	t.Helper()
	path := repo.NewPath(repo.Builtin())
	cfg := config.New()
	conc := concretize.New(path, cfg, compiler.LLNLRegistry())
	fs := simfs.New(simfs.TempFS)
	st, err := store.New(fs, "/spack/opt", store.SpackLayout{})
	if err != nil {
		t.Fatal(err)
	}
	isMPI := func(name string) bool {
		return len(path.ProvidersFor(syntax.MustParse("mpi"))) > 0 &&
			contains(path.ProviderNames("mpi"), name)
	}
	return &env{fs: fs, st: st, cfg: cfg, conc: conc, isMPI: isMPI}
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func (e *env) install(t *testing.T, expr string) *spec.Spec {
	t.Helper()
	root, err := e.conc.Concretize(syntax.MustParse(expr))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range root.TopoOrder() {
		if _, _, err := e.st.Install(n, n == root, func(string) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// TestExpandTemplate checks the §4.3.1 placeholders, including the
// /opt/${PACKAGE}-${VERSION}-${MPINAME} example.
func TestExpandTemplate(t *testing.T) {
	e := newEnv(t)
	s, err := e.conc.Concretize(syntax.MustParse("mpileaks@1.0 ^openmpi"))
	if err != nil {
		t.Fatal(err)
	}
	got := ExpandTemplate("/opt/${PACKAGE}-${VERSION}-${MPINAME}", s, e.isMPI)
	if got != "/opt/mpileaks-1.0-openmpi" {
		t.Errorf("expanded = %q", got)
	}
	got = ExpandTemplate("/x/${COMPILER}-${COMP_VERSION}/${ARCH}/${HASH}", s, nil)
	if !strings.HasPrefix(got, "/x/gcc-4.9.2/linux-x86_64/") || len(got) < 30 {
		t.Errorf("expanded = %q", got)
	}
	// No MPI in DAG: serial placeholder.
	z, _ := e.conc.Concretize(syntax.MustParse("zlib"))
	if got := ExpandTemplate("${PACKAGE}-${MPINAME}-${MPIVERSION}", z, e.isMPI); got != "zlib-serial-none" {
		t.Errorf("serial expansion = %q", got)
	}
}

// TestRefreshCreatesLinks: the mpileaks view example of §4.3.1.
func TestRefreshCreatesLinks(t *testing.T) {
	e := newEnv(t)
	e.cfg.Site.AddLinkRule("mpileaks", "/opt/${PACKAGE}-${VERSION}-${MPINAME}")
	root := e.install(t, "mpileaks@1.0 ^openmpi")

	m := NewManager(e.fs, e.cfg, e.isMPI)
	links, err := m.Refresh(e.st)
	if err != nil {
		t.Fatal(err)
	}
	if len(links) != 1 || links[0].Path != "/opt/mpileaks-1.0-openmpi" {
		t.Fatalf("links = %+v", links)
	}
	// The symlink exists and points at the store prefix.
	target, err := e.fs.Readlink("/opt/mpileaks-1.0-openmpi")
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := e.st.Lookup(root)
	if target != rec.Prefix {
		t.Errorf("link target = %q, want %q", target, rec.Prefix)
	}
}

// TestConflictPrefersNewerVersion: two mpileaks versions map onto one
// generic link; the newer wins by default policy.
func TestConflictPrefersNewerVersion(t *testing.T) {
	e := newEnv(t)
	e.cfg.Site.AddLinkRule("mpileaks", "/opt/${PACKAGE}-generic")
	e.install(t, "mpileaks@1.0")
	newer := e.install(t, "mpileaks@2.3")

	m := NewManager(e.fs, e.cfg, e.isMPI)
	links, err := m.Refresh(e.st)
	if err != nil {
		t.Fatal(err)
	}
	if len(links) != 1 {
		t.Fatalf("links = %+v", links)
	}
	rec, _ := e.st.Lookup(newer)
	if links[0].Target != rec.Prefix {
		t.Errorf("link should point at 2.3: %q", links[0].Target)
	}
}

// TestCompilerOrderResolvesConflict reproduces §4.3.1's compiler_order
// example: with "intel,gcc@4.6.1", the ambiguous link points at the intel
// build even when a gcc build exists.
func TestCompilerOrderResolvesConflict(t *testing.T) {
	e := newEnv(t)
	e.cfg.Site.AddLinkRule("mpileaks", "/opt/mpileaks-link")
	if err := e.cfg.Site.SetCompilerOrder("intel,gcc@4.9.2"); err != nil {
		t.Fatal(err)
	}
	e.install(t, "mpileaks@1.0%gcc@4.9.2")
	intelBuild := e.install(t, "mpileaks@1.0%intel")

	m := NewManager(e.fs, e.cfg, e.isMPI)
	links, err := m.Refresh(e.st)
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := e.st.Lookup(intelBuild)
	if len(links) != 1 || links[0].Target != rec.Prefix {
		t.Errorf("compiler_order ignored: %+v", links)
	}
}

// TestRefreshRetargetsOnNewInstall: installing a preferred configuration
// moves the link (§4.3.1: links updated on installation and removal).
func TestRefreshRetargetsOnNewInstall(t *testing.T) {
	e := newEnv(t)
	e.cfg.Site.AddLinkRule("libelf", "/opt/libelf-latest")
	old := e.install(t, "libelf@0.8.12")
	m := NewManager(e.fs, e.cfg, e.isMPI)
	if _, err := m.Refresh(e.st); err != nil {
		t.Fatal(err)
	}
	recOld, _ := e.st.Lookup(old)
	if tgt, _ := e.fs.Readlink("/opt/libelf-latest"); tgt != recOld.Prefix {
		t.Fatalf("initial link wrong: %q", tgt)
	}

	newer := e.install(t, "libelf@0.8.13")
	if _, err := m.Refresh(e.st); err != nil {
		t.Fatal(err)
	}
	recNew, _ := e.st.Lookup(newer)
	if tgt, _ := e.fs.Readlink("/opt/libelf-latest"); tgt != recNew.Prefix {
		t.Errorf("link not retargeted: %q", tgt)
	}

	// Uninstall the newer one; refresh falls back to the older.
	if err := e.st.Uninstall(newer, true); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Refresh(e.st); err != nil {
		t.Fatal(err)
	}
	if tgt, _ := e.fs.Readlink("/opt/libelf-latest"); tgt != recOld.Prefix {
		t.Errorf("link not restored after uninstall: %q", tgt)
	}
}

// TestMultipleRulesSamePackage: one install may be referenced by several
// links (§4.3.1: "the same package install may be referenced by multiple
// links and views").
func TestMultipleRulesSamePackage(t *testing.T) {
	e := newEnv(t)
	e.cfg.Site.AddLinkRule("mpileaks", "/opt/${PACKAGE}-${VERSION}-${MPINAME}")
	e.cfg.Site.AddLinkRule("mpileaks", "/opt/${PACKAGE}-${MPINAME}")
	e.install(t, "mpileaks@1.0 ^openmpi")
	m := NewManager(e.fs, e.cfg, e.isMPI)
	links, err := m.Refresh(e.st)
	if err != nil {
		t.Fatal(err)
	}
	if len(links) != 2 {
		t.Fatalf("links = %+v", links)
	}
	if links[0].Target != links[1].Target {
		t.Error("both links should reference the same install")
	}
}

// TestRuleConstraintFilters: a rule only covers packages satisfying its
// constraint.
func TestRuleConstraintFilters(t *testing.T) {
	e := newEnv(t)
	e.cfg.Site.AddLinkRule("libelf@0.8.13:", "/opt/libelf-new")
	e.install(t, "libelf@0.8.12")
	m := NewManager(e.fs, e.cfg, e.isMPI)
	links, err := m.Refresh(e.st)
	if err != nil {
		t.Fatal(err)
	}
	if len(links) != 0 {
		t.Errorf("0.8.12 should not match the @0.8.13: rule: %+v", links)
	}
	e.install(t, "libelf@0.8.13")
	links, _ = m.Refresh(e.st)
	if len(links) != 1 {
		t.Errorf("0.8.13 should match: %+v", links)
	}
}

// TestExternalsExcluded: externals do not get view links.
func TestExternalsExcluded(t *testing.T) {
	e := newEnv(t)
	e.cfg.Site.AddLinkRule("", "/opt/${PACKAGE}")
	c, _ := e.conc.Concretize(syntax.MustParse("zlib"))
	s := c.Clone()
	s.External = true
	s.Path = "/usr"
	if _, _, err := e.st.Install(s, false, nil); err != nil {
		t.Fatal(err)
	}
	m := NewManager(e.fs, e.cfg, e.isMPI)
	links, err := m.Refresh(e.st)
	if err != nil {
		t.Fatal(err)
	}
	if len(links) != 0 {
		t.Errorf("external got a link: %+v", links)
	}
}

func TestDeterministicTieBreak(t *testing.T) {
	e := newEnv(t)
	e.cfg.Site.AddLinkRule("mpileaks@1.0", "/opt/tie")
	e.install(t, "mpileaks@1.0 ^mpich")
	e.install(t, "mpileaks@1.0 ^openmpi")
	m := NewManager(e.fs, e.cfg, e.isMPI)
	first, err := m.Refresh(e.st)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again := m.Compute(e.st)
		if len(again) != 1 || again[0].Target != first[0].Target {
			t.Fatal("tie-break not deterministic")
		}
	}
}
