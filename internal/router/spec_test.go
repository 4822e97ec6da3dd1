package router

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"rdlroute/internal/detail"
	"rdlroute/internal/global"
	"rdlroute/internal/obs"
	"rdlroute/internal/portfolio"
	"rdlroute/internal/rgraph"
	"rdlroute/internal/viaplan"
)

// encode validates o and returns its JSON encoding: the options half of a
// result-cache key.
func encode(t *testing.T, o Options) string {
	t.Helper()
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(o)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestOptionsSpecRoundTrip round-trips Options with every wire field set
// through its JSON form.
func TestOptionsSpecRoundTrip(t *testing.T) {
	viaCost := 7.0
	opt := Options{
		Via:   viaplan.Options{ViaCost: 12},
		Graph: rgraph.Options{ViaCost: &viaCost, NaiveCornerCapacity: true},
		Global: global.Options{MaxOrderRounds: 3, DisableRUDYOrder: true,
			DisableDiagonalRefinement: true, EdgeUsePerNet: 2},
		Detail:      detail.Options{SkipAdjust: true, SkipReassign: true, Octilinear: true},
		Parallelism: 4,
		TimeBudget:  1500 * time.Millisecond,
		Verify:      VerifyStrict,
		// Validate, not the encoding, makes Ordering and Portfolio
		// exclusive.
		Ordering:        "netlen",
		Portfolio:       []string{"rudy", "congestion"},
		OrderingProfile: &portfolio.Profile{CongestedWeight: 2, ConflictWeight: 0.5, LengthWeight: -0.01},
	}
	b, err := json.Marshal(opt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(b, []byte(`"time_budget_ms":1500`)) {
		t.Errorf("time budget not encoded in milliseconds: %s", b)
	}
	var got Options
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, opt) {
		t.Errorf("round trip changed options:\n got %+v\nwant %+v", got, opt)
	}
}

// TestFingerprintIgnoresObservers pins what the encoding leaves out:
// options that differ only in recorders, callbacks, the strategy object
// or worker counts encode equally, while a configuration knob or the
// pipeline's Parallelism changes the bytes.
func TestFingerprintIgnoresObservers(t *testing.T) {
	a := Options{TimeBudget: time.Second}
	b := a
	b.Rec = obs.NewCollector()
	b.Via.Rec = obs.NewCollector()
	b.Graph.Rec = obs.NewCollector()
	b.Graph.Workers = 3
	b.Global.Rec = obs.NewCollector()
	b.Global.Order = portfolio.NetLen{}
	b.Global.AfterRound = func(int) {}
	b.Global.AfterEachNet = func(*global.Router, int) {}
	b.Global.Parallelism = 3
	b.Detail.Rec = obs.NewCollector()
	b.Detail.Workers = 3
	b.VerifyWorkers = 3
	ea := encode(t, a)
	if eb := encode(t, b); ea != eb {
		t.Errorf("encoding depends on observers or worker counts:\n%s\n%s", ea, eb)
	}

	c := a
	c.Global.MaxOrderRounds = 7
	if encode(t, c) == ea {
		t.Error("encodings of different configurations collide")
	}
	p := a
	p.Parallelism = 4
	if encode(t, p) == ea {
		t.Error("Parallelism=4 not reflected in the encoding")
	}
}

// TestVerifyWorkersAlias pins the deprecated alias: VerifyWorkers wins for
// the DRC/verify stages when set, and falls through to Parallelism
// otherwise.
func TestVerifyWorkersAlias(t *testing.T) {
	if got := (Options{VerifyWorkers: 3, Parallelism: 5}).verifyWorkers(); got != 3 {
		t.Errorf("VerifyWorkers override: got %d, want 3", got)
	}
	if got := (Options{Parallelism: 5}).verifyWorkers(); got != 5 {
		t.Errorf("Parallelism fallback: got %d, want 5", got)
	}
	if got := (Options{}).verifyWorkers(); got != 0 {
		t.Errorf("zero options: got %d, want 0 (stage default)", got)
	}
}

func TestSpecValidateRejectsNegativeParallelism(t *testing.T) {
	o := Options{Parallelism: -1}
	if err := o.Validate(); err == nil {
		t.Error("Validate accepted negative parallelism")
	}
}

// checkAccepted decodes and validates each JSON options object and
// requires it to pass exactly when ok is set.
func checkAccepted(t *testing.T, cases []struct {
	json string
	ok   bool
}) {
	t.Helper()
	for _, tc := range cases {
		var opt Options
		err := json.Unmarshal([]byte(tc.json), &opt)
		if err == nil {
			err = opt.Validate()
		}
		if (err == nil) != tc.ok {
			t.Errorf("%s: error %v, want ok=%v", tc.json, err, tc.ok)
		}
	}
}

// TestValidateEdgeUsePerNetRange pins the range of global.edge_use_per_net
// a job may send: 0 (the default) to math.MaxInt32, the largest capacity
// an edge can have.
func TestValidateEdgeUsePerNetRange(t *testing.T) {
	checkAccepted(t, []struct {
		json string
		ok   bool
	}{
		{`{"global": {"edge_use_per_net": 0}}`, true},
		{`{"global": {"edge_use_per_net": 3}}`, true},
		{`{"global": {"edge_use_per_net": 2147483647}}`, true},
		{`{"global": {"edge_use_per_net": -1}}`, false},
		{`{"global": {"edge_use_per_net": 2147483648}}`, false},
	})
}

// TestValidateMaxOrderRoundsRange pins the range of global.max_order_rounds
// a job may send: 0 selects the default of 8, and a negative bound, which
// would run no round and route nothing, is rejected.
func TestValidateMaxOrderRoundsRange(t *testing.T) {
	checkAccepted(t, []struct {
		json string
		ok   bool
	}{
		{`{"global": {"max_order_rounds": 0}}`, true},
		{`{"global": {"max_order_rounds": 1}}`, true},
		{`{"global": {"max_order_rounds": 20}}`, true},
		{`{"global": {"max_order_rounds": -1}}`, false},
		{`{"global": {"max_order_rounds": -3}}`, false},
	})
}

func TestOptionsSpecIsValidWireFormat(t *testing.T) {
	var opt Options
	if err := json.Unmarshal([]byte(`{"global": {"max_order_rounds": 9}, "time_budget_ms": 250}`), &opt); err != nil {
		t.Fatal(err)
	}
	if opt.Global.MaxOrderRounds != 9 || opt.TimeBudget != 250*time.Millisecond {
		t.Errorf("decoded options wrong: %+v", opt)
	}
	// graph.via_cost: absent selects the default, any number is explicit
	// and 0 means free vias.
	if opt.Graph.ViaCost != nil {
		t.Errorf("absent via_cost decoded as %v, want nil", *opt.Graph.ViaCost)
	}
	if err := json.Unmarshal([]byte(`{"graph": {"via_cost": 0}}`), &opt); err != nil {
		t.Fatal(err)
	}
	if opt.Graph.ViaCost == nil || *opt.Graph.ViaCost != 0 {
		t.Errorf("via_cost 0 decoded as %v, want an explicit 0", opt.Graph.ViaCost)
	}
	// Unknown fields are errors at every depth, under plain json.Unmarshal
	// too. So are the names of the stage settings that are constants, not
	// options (doc/SERVICE.md): a job that sends one is refused, not routed
	// with the constant.
	for _, bad := range []string{
		`{"retries": 2}`,
		`{"detail": {"retries": 2}}`,
		`{"via": {"via_pitch": 100}}`,
		`{"via": {"boundary_step": 150}}`,
		`{"via": {"jitter_frac": 0.2}}`,
		`{"via": {"seed": 1}}`,
		`{"global": {"congestion_threshold": 0.7}}`,
		`{"global": {"max_expansions": 123}}`,
		`{"detail": {"candidates": 1000000000}}`,
		`{"detail": {"min_movable": 3.5}}`,
		`{"detail": {"max_fit_iters": 20}}`,
	} {
		if err := json.Unmarshal([]byte(bad), &opt); err == nil {
			t.Errorf("decoded %s", bad)
		}
	}
}

// TestTimeBudgetRange pins the time budget's bounds: time_budget_ms must
// be non-negative and convert to a time.Duration without overflowing, and
// Validate rejects a negative TimeBudget from Go callers.
func TestTimeBudgetRange(t *testing.T) {
	var opt Options
	if err := json.Unmarshal([]byte(`{"time_budget_ms": 9223372036854}`), &opt); err != nil {
		t.Fatalf("largest budget rejected: %v", err)
	}
	if opt.TimeBudget != 9223372036854*time.Millisecond {
		t.Errorf("largest budget decoded as %v", opt.TimeBudget)
	}
	for _, bad := range []string{`{"time_budget_ms": 9223372036855}`, `{"time_budget_ms": 9223372036854776}`, `{"time_budget_ms": -5}`} {
		if err := json.Unmarshal([]byte(bad), &opt); err == nil {
			t.Errorf("decoded %s as %v", bad, opt.TimeBudget)
		}
	}
	neg := Options{TimeBudget: -time.Millisecond}
	if err := neg.Validate(); err == nil {
		t.Error("Validate accepted a negative time budget")
	}
}

// wireName matches an explicit snake_case JSON field name.
var wireName = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)*$`)

// wireNames walks Options and every struct it reaches and returns the JSON
// names of each object's fields, keyed by the object's JSON path ("" for
// the top level, "via", "ordering_profile", ...). Each exported field needs
// an explicit snake_case JSON name, or a "-" tag, which is kept for what
// observes or paces a run without changing its result (recorders,
// callbacks, the ordering strategy object and worker counts) and for
// TimeBudget, which MarshalJSON carries as time_budget_ms; the walk reports
// any other field through t.
func wireNames(t *testing.T) map[string][]string {
	recorder := reflect.TypeOf((*obs.Recorder)(nil)).Elem()
	strategy := reflect.TypeOf((*portfolio.Strategy)(nil)).Elem()
	workerCount := map[string]bool{"Parallelism": true, "Workers": true, "VerifyWorkers": true}
	names := map[string][]string{}
	var walk func(path, object string, typ reflect.Type)
	walk = func(path, object string, typ reflect.Type) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if !f.IsExported() {
				continue
			}
			field := path + "." + f.Name
			name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			if name == "-" {
				if f.Type != recorder && f.Type != strategy && f.Type.Kind() != reflect.Func &&
					!workerCount[f.Name] && field != "Options.TimeBudget" {
					t.Errorf("%s is tagged \"-\" but is not a recorder, a callback, the strategy object or a worker count", field)
				}
				continue
			}
			if !wireName.MatchString(name) {
				t.Errorf("%s has no explicit snake_case JSON name (tag %q)", field, f.Tag.Get("json"))
			}
			names[object] = append(names[object], name)
			ft := f.Type
			if ft.Kind() == reflect.Pointer {
				ft = ft.Elem()
			}
			if ft.Kind() == reflect.Struct {
				walk(field, strings.TrimPrefix(object+"."+name, "."), ft)
			}
		}
	}
	walk("Options", "", reflect.TypeOf(Options{}))
	return names
}

// TestEveryOptionHasAWireName fails on an option that has no JSON name
// and is not an observer, a callback, a worker count or the time budget.
func TestEveryOptionHasAWireName(t *testing.T) {
	wireNames(t)
}

// TestServiceDocListsEveryOption parses the field table of doc/SERVICE.md
// and requires each row to list exactly the JSON names of its object: the
// via, graph, global and detail options, and the other fields of the top
// level, where MarshalJSON adds time_budget_ms. The ordering profile's
// weights are documented in doc/ORDERING.md, not in this table.
func TestServiceDocListsEveryOption(t *testing.T) {
	want := wireNames(t)
	delete(want, "ordering_profile")
	want[""] = slices.DeleteFunc(want[""], func(name string) bool { _, row := want[name]; return row })
	want[""] = append(want[""], "time_budget_ms")

	doc, err := os.ReadFile("../../doc/SERVICE.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(doc), "| Object | Fields |\n|---|---|\n")
	if !ok {
		t.Fatal("doc/SERVICE.md has no | Object | Fields | table")
	}
	code := regexp.MustCompile("`([^`]*)`")
	got := map[string][]string{}
	for _, row := range strings.Split(table, "\n") {
		cells := strings.Split(row, "|")
		if len(cells) != 4 {
			break // the first line after the table
		}
		object := strings.Trim(strings.TrimSpace(cells[1]), "`")
		if object == "top level" {
			object = ""
		}
		if _, dup := got[object]; dup {
			t.Errorf("doc/SERVICE.md lists object %q twice", object)
		}
		got[object] = []string{}
		for _, m := range code.FindAllStringSubmatch(cells[2], -1) {
			got[object] = append(got[object], m[1])
		}
	}
	for object, names := range want {
		slices.Sort(names)
		doc := got[object]
		slices.Sort(doc)
		if !slices.Equal(doc, names) {
			t.Errorf("doc/SERVICE.md lists %q fields %v, the wire form has %v", object, doc, names)
		}
	}
	for object := range got {
		if _, ok := want[object]; !ok {
			t.Errorf("doc/SERVICE.md lists object %q, which the wire form does not have", object)
		}
	}
}

// FuzzOptionsJSON checks that the JSON form is a fixed point after one
// decode and Validate: bytes that decode and validate re-encode to options
// that decode and validate to an equal value with an equal encoding, so a
// cache key names exactly one run.
func FuzzOptionsJSON(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"via": {"via_cost": 1}, "graph": {}, "global": {"max_order_rounds": 123}, "detail": {}, "time_budget_ms": 2000}`,
		`{"portfolio": ["netlen", "congestion", "netlen"], "ordering_profile": {"conflict_weight": 3}}`,
		`{"graph": {"via_cost": 0}}`,
		`{"detail": {"skip_adjust": true, "octilinear": true}}`,
		`{"time_budget_ms": 9223372036854776}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var a Options
		if json.Unmarshal(b, &a) != nil || a.Validate() != nil {
			return
		}
		ea, err := json.Marshal(a)
		if err != nil {
			t.Fatalf("encode %+v: %v", a, err)
		}
		var c Options
		if err := json.Unmarshal(ea, &c); err != nil {
			t.Fatalf("decode %s: %v", ea, err)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("validate %s: %v", ea, err)
		}
		if !reflect.DeepEqual(a, c) {
			t.Fatalf("round trip changed options:\n got %+v\nwant %+v", c, a)
		}
		ec, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ea, ec) {
			t.Fatalf("encodings differ:\n%s\n%s", ea, ec)
		}
	})
}
