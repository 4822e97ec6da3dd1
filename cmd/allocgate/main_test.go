package main

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// resultLine formats one benchmark result line the way
// `go test -benchtime=1x -cpu 2` prints it, -2 suffix included.
func resultLine(name string, allocs, bytes float64) string {
	return fmt.Sprintf("%-28s\t%8d\t%10d ns/op\t%8.0f B/op\t%8.0f allocs/op", name+"-2", 1, 4839675, bytes, allocs)
}

// benchOutput returns go test output with one result line per budget, each
// at exactly its budgets, except that a row named in lines gets that line
// instead ("" drops the row).
func benchOutput(lines map[string]string) string {
	var b strings.Builder
	b.WriteString("goos: linux\ngoarch: amd64\npkg: rdlroute\ncpu: Intel(R) Xeon(R) Processor\n")
	for _, bd := range budgets {
		l, ok := lines[bd.name]
		if !ok {
			l = resultLine(bd.name, bd.max, bd.maxBytes)
		}
		if l != "" {
			b.WriteString(l + "\n")
		}
	}
	b.WriteString("PASS\nok  \trdlroute\t1.793s\n")
	return b.String()
}

// runGate runs the gate over out and returns its report and error.
func runGate(out string) (string, error) {
	var report strings.Builder
	err := gate(strings.NewReader(out), &report)
	return report.String(), err
}

// TestGatePassesAtBudget checks that rows exactly at their budgets pass, and
// so does a verbatim run of the gated benchmarks (testdata/bench.txt), one
// ok line per budget.
func TestGatePassesAtBudget(t *testing.T) {
	verbatim, err := os.ReadFile("testdata/bench.txt")
	if err != nil {
		t.Fatal(err)
	}
	for name, out := range map[string]string{"at budget": benchOutput(nil), "testdata/bench.txt": string(verbatim)} {
		report, err := runGate(out)
		if err != nil {
			t.Fatalf("%s: gate failed: %v\n%s", name, err, report)
		}
		if strings.Contains(report, "FAIL") || strings.Count(report, "ok   ") != len(budgets) {
			t.Fatalf("%s: want %d ok lines and no FAIL:\n%s", name, len(budgets), report)
		}
	}
}

func TestGateFailsOnRegression(t *testing.T) {
	bd := budgets[0]
	report, err := runGate(benchOutput(map[string]string{bd.name: resultLine(bd.name, bd.max+1, bd.maxBytes)}))
	if err == nil {
		t.Fatalf("gate passed a regressed row:\n%s", report)
	}
	if !strings.Contains(report, "FAIL "+bd.name+" ") || !strings.Contains(report, "allocs/op exceeds") {
		t.Fatalf("failure does not name the regressed row:\n%s", report)
	}
}

// TestGateFailsOnBytesRegression pins the bytes half of the gate: a row
// within its allocs/op budget but over its B/op budget fails, and so does a
// bytes-gated row that reports no B/op at all.
func TestGateFailsOnBytesRegression(t *testing.T) {
	const name = "BenchmarkGlobalRoute/dense5"
	var bd budget
	for _, b := range budgets {
		if b.name == name {
			bd = b
		}
	}
	if bd.maxBytes == 0 {
		t.Fatalf("%s has no bytes budget", name)
	}
	report, err := runGate(benchOutput(map[string]string{name: resultLine(name, bd.max, bd.maxBytes+1)}))
	if err == nil {
		t.Fatalf("gate passed a row over its bytes budget:\n%s", report)
	}
	if !strings.Contains(report, "FAIL "+name+" ") || !strings.Contains(report, "MB/op exceeds") {
		t.Fatalf("failure does not name the bytes regression:\n%s", report)
	}

	noBytes := fmt.Sprintf("%-28s\t%8d\t%10d ns/op\t%8.0f allocs/op", name+"-2", 1, 589196519, bd.max)
	report, err = runGate(benchOutput(map[string]string{name: noBytes}))
	if err == nil || !strings.Contains(report, "FAIL "+name+" ") || !strings.Contains(report, "has no B/op") {
		t.Fatalf("gate passed a bytes-gated row without B/op (err %v):\n%s", err, report)
	}
}

// TestGateFailsOnMissingRow drops a gated row, once as if the benchmark was
// not run and once as go test reports a failed benchmark.
func TestGateFailsOnMissingRow(t *testing.T) {
	bd := budgets[len(budgets)-1]
	for _, line := range []string{"", "--- FAIL: " + bd.name + "-2"} {
		report, err := runGate(benchOutput(map[string]string{bd.name: line}))
		if err == nil {
			t.Fatalf("gate passed with a gated row missing:\n%s", report)
		}
		if !strings.Contains(report, "FAIL "+bd.name+" ") || !strings.Contains(report, "missing") {
			t.Fatalf("failure does not name the missing row:\n%s", report)
		}
	}
}

// TestBudgetsCoverEveryDenseDetailRow pins that the gate covers the whole
// dense suite for every gated stage — adding a dense case without extending
// the gate is the regression this test exists to catch.
func TestBudgetsCoverEveryDenseDetailRow(t *testing.T) {
	have := make(map[string]budget)
	for _, bd := range budgets {
		have[bd.name] = bd
	}
	for _, c := range []string{"dense1", "dense2", "dense3", "dense4", "dense5"} {
		for _, bench := range []string{"BenchmarkGraphBuild", "BenchmarkGlobalRoute", "BenchmarkDetailRoute"} {
			bd, ok := have[bench+"/"+c]
			if !ok {
				t.Errorf("no %s budget for %s", bench, c)
			}
			if bench != "BenchmarkDetailRoute" && bd.maxBytes == 0 {
				t.Errorf("%s/%s has no bytes budget", bench, c)
			}
		}
	}
}
