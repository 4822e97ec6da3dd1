package lint

import (
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files from the current analyzer output")

// fixtureAnalyzers maps each fixture package under testdata/src to the
// analyzers it exercises. The framework fixture runs detrand only to
// prove the suppression hygiene (stale allows, missing reasons) is
// enforced by the framework, not by any particular analyzer. noalloc has
// two fixtures: its per-body rules, and the call graph walk into the
// unannotated helpers a root reaches (transalloc).
var fixtureAnalyzers = map[string][]*Analyzer{
	"detrand":    {Detrand},
	"mapiter":    {Mapiter},
	"floateq":    {Floateq},
	"barego":     {Barego},
	"noalloc":    {Noalloc},
	"transalloc": {Noalloc},
	"framework":  {Detrand},
}

// TestFixtures type-checks each fixture package, runs its analyzers with
// suppression applied, and compares the formatted findings against the
// golden file. Run with -update to rewrite the goldens.
func TestFixtures(t *testing.T) {
	names := make([]string, 0, len(fixtureAnalyzers))
	for name := range fixtureAnalyzers {
		names = append(names, name)
	}
	sort.Strings(names)

	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			dir := filepath.Join("testdata", "src", name)
			pkg, err := LoadDir(dir, "fixture/"+name)
			if err != nil {
				t.Fatalf("LoadDir(%s): %v", dir, err)
			}
			findings := RunPackage(pkg, fixtureAnalyzers[name])

			var b strings.Builder
			for _, f := range findings {
				rel := filepath.ToSlash(f.Pos.Filename)
				rel = strings.TrimPrefix(rel, "testdata/src/")
				b.WriteString(rel)
				b.WriteString(f.String()[len(f.Pos.Filename):])
				b.WriteString("\n")
			}
			got := b.String()
			if got == "" {
				t.Fatalf("fixture %s produced no findings: every fixture must keep at least one flagged case", name)
			}

			golden := filepath.Join("testdata", "golden", name+".golden")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("reading golden (run `go test ./internal/lint -run Fixtures -update` to create it): %v", err)
			}
			if got != string(want) {
				t.Errorf("findings diverge from %s\n--- got ---\n%s--- want ---\n%s", golden, got, want)
			}
		})
	}
}

// TestFixturesSuppressedLinesAbsent pins the other half of the golden
// contract: the SUPPRESSED cases in each fixture must not appear in the
// output, so the goldens cannot silently absorb a broken allow matcher.
func TestFixturesSuppressedLinesAbsent(t *testing.T) {
	for name := range fixtureAnalyzers {
		golden, err := os.ReadFile(filepath.Join("testdata", "golden", name+".golden"))
		if err != nil {
			t.Fatalf("%s: %v (run with -update first)", name, err)
		}
		src, err := os.ReadFile(filepath.Join("testdata", "src", name, name+".go"))
		if err != nil {
			t.Fatal(err)
		}
		// Every line carrying a reasoned allow for the fixture's own
		// analyzer suppresses the line below it; neither may be reported.
		lines := strings.Split(string(src), "\n")
		for i, line := range lines {
			text := strings.TrimSpace(line)
			if !strings.HasPrefix(text, "//rdl:allow ") || name == "framework" {
				continue
			}
			for _, ln := range []int{i + 1, i + 2} { // 1-based: the allow line and the one below
				prefix := name + "/" + name + ".go:" + strconv.Itoa(ln) + ":"
				for _, g := range strings.Split(string(golden), "\n") {
					if strings.HasPrefix(g, prefix) && !strings.Contains(g, "rdlallow") {
						t.Errorf("%s: line %d carries an allow but still appears in the golden: %s", name, ln, g)
					}
				}
			}
		}
	}
}
