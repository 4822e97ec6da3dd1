package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// minPairs is the fewest parent/change run pairs a verdict rests on.
const minPairs = 10

// verdict is the comparison of one end-to-end metric on one workload.
type verdict struct {
	Verdict   string // improved, unchanged, worse or unresolved
	Pairs     int
	Wins      int // pairs in which the change read better; ties count for neither
	ParentMed float64
	ParentQ1  float64
	ParentQ3  float64
	ChangeMed float64
	ChangeQ1  float64
	ChangeQ3  float64
	WorseBy   float64 // (change − parent) / parent median, signed so that > 0 is worse
	Spread    float64 // the wider side's quartile distance over its median
	Note      string
}

// judge compares paired runs of one metric, parent[i] against change[i]:
//
//   - improved: the change reads better in at least 9 of 10 pairs and the
//     medians differ by more than the parent's quartile distance;
//   - unresolved: either side's quartile distance, as a share of its
//     median, is wider than the metric's bound, and not every change run
//     reads better than every parent run;
//   - worse: the change's median is worse than the parent's by more than
//     the bound;
//   - unchanged: otherwise.
func judge(m metricSpec, parent, change []float64) verdict {
	v := verdict{Pairs: min(len(parent), len(change))}
	parent, change = parent[:v.Pairs], change[:v.Pairs]
	v.ParentMed, v.ChangeMed = median(parent), median(change)
	v.ParentQ1, v.ParentQ3 = quartiles(parent)
	v.ChangeQ1, v.ChangeQ3 = quartiles(change)
	if v.Pairs < minPairs {
		v.Verdict, v.Note = "unresolved", fmt.Sprintf("fewer than %d pairs", minPairs)
		return v
	}
	better := func(a, b float64) bool {
		if m.Better == "higher" {
			return a > b
		}
		return a < b
	}
	for i := range parent {
		if better(change[i], parent[i]) {
			v.Wins++
		}
	}
	v.WorseBy = worseBy(m, v.ParentMed, v.ChangeMed)
	v.Spread = math.Max(relSpread(v.ParentQ1, v.ParentQ3, v.ParentMed),
		relSpread(v.ChangeQ1, v.ChangeQ3, v.ChangeMed))
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && better(c, p)
		}
	}
	switch {
	case v.Wins*10 >= 9*v.Pairs && better(v.ChangeMed, v.ParentMed) &&
		math.Abs(v.ChangeMed-v.ParentMed) > v.ParentQ3-v.ParentQ1:
		v.Verdict = "improved"
	case v.Spread > m.Bound && !allBetter:
		v.Verdict = "unresolved"
		v.Note = fmt.Sprintf("spread %.2f%% is wider than the bound", 100*v.Spread)
	case v.WorseBy > m.Bound:
		v.Verdict = "worse"
	default:
		v.Verdict = "unchanged"
	}
	return v
}

// worseBy is the change's median relative to the parent's, signed so that a
// positive value is worse.
func worseBy(m metricSpec, parent, change float64) float64 {
	if parent == 0 {
		switch {
		case change == 0:
			return 0
		case (change > 0) == (m.Better == "lower"):
			return math.Inf(1)
		default:
			return math.Inf(-1)
		}
	}
	d := (change - parent) / math.Abs(parent)
	if m.Better == "higher" {
		d = -d
	}
	return d
}

func relSpread(q1, q3, med float64) float64 {
	if med == 0 {
		if q3 == q1 {
			return 0
		}
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(med)
}

// compareFiles reads two -record files, pairs their end-to-end runs of each
// workload in file order, and prints one verdict per workload and metric.
func compareFiles(w io.Writer, parentPath, changePath string) error {
	parent, order, err := readRecords(parentPath)
	if err != nil {
		return err
	}
	change, _, err := readRecords(changePath)
	if err != nil {
		return err
	}
	for _, name := range order {
		p, c := parent[name], change[name]
		if len(c) == 0 {
			fmt.Fprintf(w, "%s: no runs in %s\n", name, changePath)
			continue
		}
		fmt.Fprintf(w, "%s: %d pairs\n", name, min(len(p), len(c)))
		for _, m := range endToEndMetrics {
			v := judge(m, values(p, m.Name), values(c, m.Name))
			fmt.Fprintf(w, "  %-16s %-10s parent %.6g %s [q1 %.6g, q3 %.6g]  change %.6g [q1 %.6g, q3 %.6g]  change/parent %+.2f%% of the parent median %.6g %s (bound %g%%)  better in %d/%d pairs",
				m.Name, v.Verdict, v.ParentMed, m.Unit, v.ParentQ1, v.ParentQ3,
				v.ChangeMed, v.ChangeQ1, v.ChangeQ3,
				100*ratio(v.ChangeMed-v.ParentMed, v.ParentMed), v.ParentMed, m.Unit, 100*m.Bound,
				v.Wins, v.Pairs)
			if v.Note != "" {
				fmt.Fprintf(w, "  (%s)", v.Note)
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}

// readRecords returns the end-to-end runs of a -record file by workload, and
// the workloads in first-seen order.
func readRecords(path string) (map[string][]result, []string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	runs := make(map[string][]result)
	var order []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if rec.Trace != 0 {
			continue
		}
		if _, ok := runs[rec.Workload]; !ok {
			order = append(order, rec.Workload)
		}
		runs[rec.Workload] = append(runs[rec.Workload], rec.Result)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("reading %s: %w", path, err)
	}
	return runs, order, nil
}

func values(runs []result, name string) []float64 {
	vs := make([]float64, len(runs))
	for i, r := range runs {
		vs[i] = r.Metrics[name].Value
	}
	return vs
}
