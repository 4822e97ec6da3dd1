package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestListPrintsEveryAnalyzer(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("run -list = %d, stderr: %s", code, errb.String())
	}
	for _, name := range []string{"detrand", "mapiter", "floateq", "barego", "noalloc"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing analyzer %s:\n%s", name, out.String())
		}
	}
}

func TestRepoExitsClean(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-C", "../.."}, &out, &errb); code != 0 {
		t.Fatalf("rdllint over the repo = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	if out.Len() != 0 {
		t.Errorf("clean run printed findings:\n%s", out.String())
	}
}

// writeModule materializes a throwaway module from root-relative paths.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for rel, src := range files {
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// TestFindingsExitNonZero builds a throwaway module whose internal/geom
// reads the wall clock and asserts the driver reports it and exits 1 —
// the end-to-end path a CI failure takes.
func TestFindingsExitNonZero(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod":                "module tmpmod\n\ngo 1.22\n",
		"internal/geom/geom.go": "package geom\n\nimport \"time\"\n\n// Stamp leaks the wall clock into a deterministic package.\nfunc Stamp() time.Time {\n\treturn time.Now()\n}\n",
	})

	var out, errb bytes.Buffer
	code := run([]string{"-C", root}, &out, &errb)
	if code != 1 {
		t.Fatalf("rdllint over a dirty module = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	want := filepath.Join("internal", "geom", "geom.go")
	if !strings.Contains(out.String(), want) || !strings.Contains(out.String(), "detrand") {
		t.Errorf("finding for %s (detrand) not reported:\n%s", want, out.String())
	}
}

// TestJSONOutput pins the machine-readable mode: the same findings as
// the text mode, as one JSON array with stable field names, and an exit
// code that still reflects them.
func TestJSONOutput(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod":                "module tmpmod\n\ngo 1.22\n",
		"internal/geom/geom.go": "package geom\n\nimport \"time\"\n\nfunc Stamp() time.Time {\n\treturn time.Now()\n}\n",
	})

	var out, errb bytes.Buffer
	code := run([]string{"-C", root, "-json"}, &out, &errb)
	if code != 1 {
		t.Fatalf("rdllint -json over a dirty module = %d, want 1\nstderr: %s", code, errb.String())
	}
	var findings []jsonFinding
	if err := json.Unmarshal(out.Bytes(), &findings); err != nil {
		t.Fatalf("-json output is not a JSON array: %v\n%s", err, out.String())
	}
	if len(findings) != 1 {
		t.Fatalf("got %d JSON findings, want 1: %s", len(findings), out.String())
	}
	f := findings[0]
	if f.Analyzer != "detrand" || f.File != filepath.Join("internal", "geom", "geom.go") || f.Line == 0 || f.Message == "" {
		t.Errorf("unexpected JSON finding: %+v", f)
	}
}

func TestMissingModuleExitsUsage(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-C", t.TempDir()}, &out, &errb); code != 2 {
		t.Fatalf("rdllint outside a module = %d, want 2", code)
	}
}
