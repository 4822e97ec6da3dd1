package router

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"rdlroute/internal/obs"
	"rdlroute/internal/rgraph"
)

func TestOptionsSpecRoundTrip(t *testing.T) {
	opt := Options{TimeBudget: 1500 * time.Millisecond}
	opt.Via.Seed = 42
	opt.Via.ViaPitch = 100
	opt.Graph.ViaCost = rgraph.ViaCostPtr(7)
	opt.Graph.NaiveCornerCapacity = true
	opt.Global.MaxExpansions = 1234
	opt.Global.DisableRUDYOrder = true
	opt.Detail.Candidates = 5
	opt.Detail.SkipAdjust = true

	got := opt.Spec().Options()
	if got.Via != opt.Via || got.Detail != opt.Detail {
		t.Errorf("round trip changed stage options:\n got %+v\nwant %+v", got, opt)
	}
	// Graph carries a pointer field, so compare the resolved value.
	if rgraph.ViaCostValue(got.Graph.ViaCost) != rgraph.ViaCostValue(opt.Graph.ViaCost) ||
		got.Graph.NaiveCornerCapacity != opt.Graph.NaiveCornerCapacity {
		t.Errorf("round trip changed graph options:\n got %+v\nwant %+v", got.Graph, opt.Graph)
	}
	// global.Options carries a func field, and the spec a slice field, so
	// compare the canonical byte encodings.
	gb, err := got.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	ob, err := opt.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb, ob) {
		t.Errorf("round trip changed spec:\n got %s\nwant %s", gb, ob)
	}
	if got.TimeBudget != opt.TimeBudget {
		t.Errorf("TimeBudget = %v, want %v", got.TimeBudget, opt.TimeBudget)
	}
}

func TestFingerprintIgnoresObservers(t *testing.T) {
	a := Options{TimeBudget: time.Second}
	b := a
	b.Rec = obs.NewCollector()
	b.Global.Rec = obs.NewCollector()
	b.Global.AfterEachNet = func(int) {}

	fa, err := a.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fb, err := b.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fa, fb) {
		t.Error("fingerprint depends on recorders/callbacks")
	}

	c := a
	c.Global.MaxExpansions = 7
	fc, err := c.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(fa, fc) {
		t.Error("fingerprints of different configurations collide")
	}
}

// TestParallelismKeepsExistingCacheKeys pins the cache-compatibility
// contract of the Parallelism field: a spec that never sets it canonicalizes
// to the zero-spec bytes below, which carry no trace of the field, so
// sha256 keys of results cached without it stay valid. A non-zero value
// must still be part of the encoding (the wire view carries it to jobs).
func TestParallelismKeepsExistingCacheKeys(t *testing.T) {
	legacy := `{"via":{"via_pitch":0,"boundary_step":0,"jitter_frac":0,"seed":0},` +
		`"graph":{"via_cost":0,"naive_corner_capacity":false},` +
		`"global":{"congestion_threshold":0,"max_order_rounds":0,"max_expansions":0,` +
		`"disable_rudy_order":false,"disable_diagonal_refinement":false,"edge_use_per_net":0},` +
		`"detail":{"candidates":0,"min_movable":0,"max_fit_iters":0,"skip_adjust":false},` +
		`"time_budget_ms":0,"verify":""}`
	got, err := (Options{}).Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != legacy {
		t.Errorf("zero-spec canonical bytes changed:\n got %s\nwant %s", got, legacy)
	}

	withP, err := (Options{Parallelism: 4}).Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(withP, got) {
		t.Error("Parallelism=4 not reflected in the canonical encoding")
	}
	if rt := (Options{Parallelism: 4}).Spec().Options(); rt.Parallelism != 4 {
		t.Errorf("Parallelism lost in round trip: %+v", rt)
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
	s := OptionsSpec{Parallelism: -1}
	if err := s.Validate(); err == nil {
		t.Error("Validate accepted negative parallelism")
	}
}

func TestOptionsSpecIsValidWireFormat(t *testing.T) {
	var s OptionsSpec
	if err := json.Unmarshal([]byte(`{"global": {"max_expansions": 9}, "time_budget_ms": 250}`), &s); err != nil {
		t.Fatal(err)
	}
	opt := s.Options()
	if opt.Global.MaxExpansions != 9 || opt.TimeBudget != 250*time.Millisecond {
		t.Errorf("decoded options wrong: %+v", opt)
	}
}
