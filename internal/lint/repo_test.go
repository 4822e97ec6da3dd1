package lint

import (
	"sync"
	"testing"
)

// The repo tests load the whole module once and share it: LoadModule
// type-checks every package against GOROOT sources, which costs a few
// seconds.
var (
	repoOnce sync.Once
	repoMod  *Module
	repoErr  error
)

func repoModule(t *testing.T) *Module {
	t.Helper()
	repoOnce.Do(func() {
		root, err := FindModuleRoot(".")
		if err != nil {
			repoErr = err
			return
		}
		repoMod, repoErr = LoadModule(root)
	})
	if repoErr != nil {
		t.Fatalf("loading module: %v", repoErr)
	}
	return repoMod
}

// TestRepoIsLintClean is the driver test the issue demands: the full
// analyzer suite over the real repo must produce zero findings. Any new
// hazard either gets fixed or gets an //rdl:allow with a written reason.
func TestRepoIsLintClean(t *testing.T) {
	mod := repoModule(t)
	findings := mod.Lint(All())
	for _, f := range findings {
		t.Errorf("%s", f)
	}
	if len(findings) > 0 {
		t.Errorf("repo has %d lint finding(s); run `go run ./cmd/rdllint` for the same list", len(findings))
	}
}

// TestEveryAllowIsLoadBearing proves the acceptance criterion that
// deleting any single //rdl:allow makes the lint fail: each allow in the
// tree must cover at least one raw (unsuppressed) finding of its named
// analyzer on its own line or the line below. A stale allow would also
// be reported by Lint itself; this test states the invariant directly.
func TestEveryAllowIsLoadBearing(t *testing.T) {
	mod := repoModule(t)
	raw := mod.LintUnsuppressed(All())
	known := analyzerNames(All())

	covered := func(a *allowSite) bool {
		for _, f := range raw {
			if f.Analyzer == a.analyzer && f.Pos.Filename == a.pos.Filename &&
				(f.Pos.Line == a.pos.Line || f.Pos.Line == a.pos.Line+1) {
				return true
			}
		}
		return false
	}

	total := 0
	for _, pkg := range mod.Pkgs {
		for _, a := range collectAllows(mod.Fset, pkg.Files) {
			total++
			if a.analyzer == "" || !known[a.analyzer] {
				t.Errorf("%s: //rdl:allow for unknown analyzer %q", a.pos, a.analyzer)
				continue
			}
			if a.reason == "" {
				t.Errorf("%s: //rdl:allow %s has no written reason", a.pos, a.analyzer)
			}
			if !covered(a) {
				t.Errorf("%s: //rdl:allow %s suppresses nothing — stale, delete it", a.pos, a.analyzer)
			}
		}
	}
	if total == 0 {
		t.Error("no //rdl:allow sites found in the repo; the inventory (viaplan seed, obs clocks, serve timestamps, A* alloc budget) should be non-empty")
	}
}

// TestScopesResolve pins every scope entry to a package that actually
// exists, so a package rename cannot silently drop a directory out of
// enforcement.
func TestScopesResolve(t *testing.T) {
	mod := repoModule(t)
	have := make(map[string]bool, len(mod.Pkgs))
	for _, pkg := range mod.Pkgs {
		have[pkg.Path] = true
	}
	for _, a := range All() {
		for _, s := range a.Scope {
			if !have[mod.Path+"/"+s] {
				t.Errorf("analyzer %s scope entry %q matches no package in the module", a.Name, s)
			}
		}
	}
}
