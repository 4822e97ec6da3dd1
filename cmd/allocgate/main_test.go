package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func writeBench(t *testing.T, entries []map[string]any) string {
	t.Helper()
	b, err := json.Marshal(entries)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// withinBudget builds a bench file where every gated row sits exactly at
// its budgets.
func withinBudget(t *testing.T) []map[string]any {
	t.Helper()
	var entries []map[string]any
	for _, bd := range budgets {
		entries = append(entries, map[string]any{
			"name": bd.name, "allocs_per_op": bd.max, "bytes_per_op": bd.maxBytes,
		})
	}
	return entries
}

func TestGatePassesAtBudget(t *testing.T) {
	var out strings.Builder
	if err := run(writeBench(t, withinBudget(t)), &out); err != nil {
		t.Fatalf("gate failed at exact budgets: %v\n%s", err, out.String())
	}
	if strings.Contains(out.String(), "FAIL") {
		t.Fatalf("unexpected FAIL line:\n%s", out.String())
	}
}

func TestGateFailsOnRegression(t *testing.T) {
	entries := withinBudget(t)
	entries[0]["allocs_per_op"] = budgets[0].max * 1.01
	var out strings.Builder
	err := run(writeBench(t, entries), &out)
	if err == nil {
		t.Fatalf("gate passed a regressed row:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "FAIL "+budgets[0].name) {
		t.Fatalf("failure does not name the regressed row:\n%s", out.String())
	}
}

// TestGateFailsOnBytesRegression pins the bytes half of the gate: a row
// within its allocs/op budget but over its B/op budget fails, and so does a
// bytes-gated row that reports no bytes at all.
func TestGateFailsOnBytesRegression(t *testing.T) {
	i := slices.IndexFunc(budgets, func(bd budget) bool { return bd.name == "global/dense5" })
	if i < 0 || budgets[i].maxBytes == 0 {
		t.Fatal("global/dense5 has no bytes budget")
	}
	entries := withinBudget(t)
	entries[i]["bytes_per_op"] = budgets[i].maxBytes * 1.01
	var out strings.Builder
	if err := run(writeBench(t, entries), &out); err == nil {
		t.Fatalf("gate passed a row over its bytes budget:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "FAIL global/dense5") || !strings.Contains(out.String(), "MB/op exceeds") {
		t.Fatalf("failure does not name the bytes regression:\n%s", out.String())
	}

	entries = withinBudget(t)
	delete(entries[i], "bytes_per_op")
	out.Reset()
	if err := run(writeBench(t, entries), &out); err == nil || !strings.Contains(out.String(), "has no bytes_per_op") {
		t.Fatalf("gate passed a bytes-gated row without bytes_per_op (err %v):\n%s", err, out.String())
	}
}

func TestGateFailsOnMissingRow(t *testing.T) {
	entries := withinBudget(t)[1:] // drop the first gated row
	var out strings.Builder
	if err := run(writeBench(t, entries), &out); err == nil {
		t.Fatalf("gate passed with a gated row missing:\n%s", out.String())
	}
}

// TestBudgetsCoverEveryDenseDetailRow pins that the gate covers the whole
// dense suite for every gated stage — adding a dense case without extending
// the gate is the regression this test exists to catch.
func TestBudgetsCoverEveryDenseDetailRow(t *testing.T) {
	want := []string{"dense1", "dense2", "dense3", "dense4", "dense5"}
	have := make(map[string]bool)
	for _, bd := range budgets {
		have[bd.name] = true
	}
	for _, c := range want {
		for _, stage := range []string{"rgraph", "global", "detail"} {
			if !have[stage+"/"+c] {
				t.Errorf("no %s budget for %s", stage, c)
			}
		}
	}
	for _, bd := range budgets {
		if stage := strings.SplitN(bd.name, "/", 2)[0]; (stage == "rgraph" || stage == "global") && bd.maxBytes == 0 {
			t.Errorf("%s has no bytes budget", bd.name)
		}
	}
}
