package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"rdlroute/internal/design"
	"rdlroute/internal/router"
)

// postDesign submits the design (with an empty options object) and returns
// the decoded response and status code.
func postDesign(t *testing.T, ts *httptest.Server, d *design.Design, query string) (submitResponse, int) {
	t.Helper()
	dj, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"design": %s}`, dj)
	resp, err := http.Post(ts.URL+"/v1/jobs"+query, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr submitResponse
	raw, _ := io.ReadAll(resp.Body)
	_ = json.Unmarshal(raw, &sr)
	return sr, resp.StatusCode
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func TestHTTPSubmitWaitAndResult(t *testing.T) {
	e := New(Config{Workers: 2, Route: stubRoute(nil)})
	defer e.Close()
	ts := httptest.NewServer(NewHandler(e))
	defer ts.Close()

	// Submit with ?wait=1: response is the terminal status.
	sr, code := postDesign(t, ts, testDesign(1), "?wait=1")
	if code != http.StatusOK {
		t.Fatalf("submit code = %d", code)
	}
	if sr.State != StateDone || sr.CacheHit {
		t.Fatalf("first submit: %+v", sr.JobStatus)
	}
	if sr.Key == "" || sr.Metrics == nil {
		t.Fatalf("submit response missing key/metrics: %+v", sr)
	}

	// Second submission: cache hit, 200 immediately even without wait.
	sr2, code := postDesign(t, ts, testDesign(1), "")
	if code != http.StatusOK || !sr2.CacheHit {
		t.Fatalf("second submit: code %d, %+v", code, sr2.JobStatus)
	}
	if sr2.Key != sr.Key {
		t.Error("identical submissions got different keys")
	}
	if *sr2.Metrics != *sr.Metrics {
		t.Errorf("metrics differ across cache hit:\n%+v\n%+v", sr.Metrics, sr2.Metrics)
	}

	// Status endpoint.
	var st JobStatus
	if code := getJSON(t, ts.URL+"/v1/jobs/"+sr.ID, &st); code != http.StatusOK {
		t.Fatalf("status code = %d", code)
	}
	if st.ID != sr.ID || st.State != StateDone {
		t.Fatalf("status = %+v", st)
	}

	// Result endpoint with routes.
	var res resultResponse
	if code := getJSON(t, ts.URL+"/v1/jobs/"+sr.ID+"/result?include=routes", &res); code != http.StatusOK {
		t.Fatalf("result code = %d", code)
	}
	if res.State != StateDone || res.Metrics == nil {
		t.Fatalf("result = %+v", res)
	}

	// Metrics endpoint sees the cache hit.
	var stats Stats
	if code := getJSON(t, ts.URL+"/metricsz", &stats); code != http.StatusOK {
		t.Fatal("metricsz failed")
	}
	if stats.Counters[CtrCacheHit] != 1 || stats.Counters[CtrSubmitted] != 2 {
		t.Errorf("metricsz counters = %v", stats.Counters)
	}
	if stats.Counters["serve.http.requests"] == 0 {
		t.Error("request counter not incremented")
	}
}

func TestHTTPBadRequests(t *testing.T) {
	e := New(Config{Workers: 1, Route: stubRoute(nil)})
	defer e.Close()
	ts := httptest.NewServer(NewHandler(e))
	defer ts.Close()

	dj, _ := json.Marshal(testDesign(1))
	withOptions := func(options string) string {
		return fmt.Sprintf(`{"design": %s, "options": %s}`, dj, options)
	}
	cases := []struct {
		name string
		body string
		want int
	}{
		{"not json", "hello", http.StatusBadRequest},
		{"missing design", `{}`, http.StatusBadRequest},
		{"unknown field", `{"design": {}, "optoins": {}}`, http.StatusBadRequest},
		{"invalid design", `{"design": {"Name": "x"}}`, http.StatusBadRequest},
		{"bad priority", `{"design": {"Name": "x"}, "priority": "urgent"}`, http.StatusBadRequest},
		{"nested unknown option", withOptions(`{"detail": {"retries": 2}}`), http.StatusBadRequest},
		{"negative budget", withOptions(`{"time_budget_ms": -5}`), http.StatusBadRequest},
		{"overflowing budget", withOptions(`{"time_budget_ms": 9223372036854776}`), http.StatusBadRequest},
		{"negative order rounds", withOptions(`{"global": {"max_order_rounds": -1}}`), http.StatusBadRequest},
		// Stage settings that are constants, not options, are unknown fields.
		{"removed via_pitch", withOptions(`{"via": {"via_pitch": 100}}`), http.StatusBadRequest},
		{"removed boundary_step", withOptions(`{"via": {"boundary_step": 150}}`), http.StatusBadRequest},
		{"removed jitter_frac", withOptions(`{"via": {"jitter_frac": 0.2}}`), http.StatusBadRequest},
		{"removed seed", withOptions(`{"via": {"seed": 1}}`), http.StatusBadRequest},
		{"removed congestion_threshold", withOptions(`{"global": {"congestion_threshold": 0.7}}`), http.StatusBadRequest},
		{"removed max_expansions", withOptions(`{"global": {"max_expansions": -3}}`), http.StatusBadRequest},
		{"removed candidates", withOptions(`{"detail": {"candidates": 1000000000}}`), http.StatusBadRequest},
		{"removed min_movable", withOptions(`{"detail": {"min_movable": 3.5}}`), http.StatusBadRequest},
		{"removed max_fit_iters", withOptions(`{"detail": {"max_fit_iters": 20}}`), http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.want {
				b, _ := io.ReadAll(resp.Body)
				t.Fatalf("code = %d, want %d (%s)", resp.StatusCode, tc.want, b)
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&e); err == nil && e.Error == "" {
				t.Error("error body missing")
			}
		})
	}

	if code := getJSON(t, ts.URL+"/v1/jobs/nope", nil); code != http.StatusNotFound {
		t.Errorf("unknown job status = %d, want 404", code)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/nope/result", nil); code != http.StatusNotFound {
		t.Errorf("unknown job result = %d, want 404", code)
	}
}

func TestHTTPQueueFull429AndCancel(t *testing.T) {
	block := make(chan struct{})
	e := New(Config{Workers: 1, QueueCapacity: 1, Route: stubRoute(block)})
	defer e.Close()
	defer close(block)
	ts := httptest.NewServer(NewHandler(e))
	defer ts.Close()

	// Occupy the worker, then the single queue slot.
	running, code := postDesign(t, ts, testDesign(1), "")
	if code != http.StatusAccepted {
		t.Fatalf("first submit code = %d", code)
	}
	j, err := e.Job(running.ID)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateRunning)
	queued, code := postDesign(t, ts, testDesign(2), "")
	if code != http.StatusAccepted {
		t.Fatalf("second submit code = %d", code)
	}

	// Queue is full now: 429 with the backpressure error.
	_, code = postDesign(t, ts, testDesign(3), "")
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit code = %d, want 429", code)
	}

	// Result of a non-terminal job: 409 carrying the state.
	var conflict struct {
		Error string `json:"error"`
		State State  `json:"state"`
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/"+queued.ID+"/result", &conflict); code != http.StatusConflict {
		t.Fatalf("pending result code = %d, want 409", code)
	}
	if conflict.State != StateQueued {
		t.Errorf("conflict state = %s", conflict.State)
	}

	// DELETE cancels the queued job.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || st.State != StateCancelled {
		t.Fatalf("cancel: code %d state %s", resp.StatusCode, st.State)
	}
}

func TestHTTPHealthDraining(t *testing.T) {
	e := New(Config{Workers: 1, Route: stubRoute(nil)})
	ts := httptest.NewServer(NewHandler(e))
	defer ts.Close()

	var h struct {
		OK       bool `json:"ok"`
		Draining bool `json:"draining"`
	}
	if code := getJSON(t, ts.URL+"/healthz", &h); code != http.StatusOK || !h.OK {
		t.Fatalf("healthy healthz: code %d %+v", code, h)
	}
	if err := e.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if code := getJSON(t, ts.URL+"/healthz", &h); code != http.StatusServiceUnavailable || !h.Draining {
		t.Fatalf("draining healthz: code %d %+v", code, h)
	}
	// Submissions against a drained engine: 503.
	_, code := postDesign(t, ts, testDesign(1), "")
	if code != http.StatusServiceUnavailable {
		t.Errorf("submit while draining = %d, want 503", code)
	}
}

// TestHTTPOptionsRoundTrip checks that options submitted over the wire
// reach the router and participate in the cache key.
func TestHTTPOptionsRoundTrip(t *testing.T) {
	var gotBudget bytes.Buffer
	e := New(Config{Workers: 1, Route: func(ctx context.Context, d *design.Design, opt router.Options) (*router.Output, error) {
		fmt.Fprintf(&gotBudget, "%v;%d", opt.TimeBudget, opt.Global.MaxOrderRounds)
		return stubRoute(nil)(ctx, d, opt)
	}})
	defer e.Close()
	ts := httptest.NewServer(NewHandler(e))
	defer ts.Close()

	dj, _ := json.Marshal(testDesign(1))
	body := fmt.Sprintf(`{"design": %s, "options": {"global": {"max_order_rounds": 123}, "time_budget_ms": 2000}}`, dj)
	resp, err := http.Post(ts.URL+"/v1/jobs?wait=1", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("code = %d", resp.StatusCode)
	}
	if got := gotBudget.String(); got != "2s;123" {
		t.Errorf("router saw %q, want \"2s;123\"", got)
	}
}

// TestHTTPEquivalentOptionsShareAKey pins that options which route
// identically get one cache key: ordering "rudy" is the default ordering,
// and an ordering profile counts only where the congestion strategy reads
// it.
func TestHTTPEquivalentOptionsShareAKey(t *testing.T) {
	e := New(Config{Workers: 1, Route: stubRoute(nil)})
	defer e.Close()
	ts := httptest.NewServer(NewHandler(e))
	defer ts.Close()

	dj, _ := json.Marshal(testDesign(1))
	key := func(options string) string {
		t.Helper()
		body := fmt.Sprintf(`{"design": %s, "options": %s}`, dj, options)
		resp, err := http.Post(ts.URL+"/v1/jobs?wait=1", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("options %s: code = %d", options, resp.StatusCode)
		}
		var sr submitResponse
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
		return sr.Key
	}
	if key(`{}`) != key(`{"ordering": "rudy"}`) {
		t.Error(`ordering "rudy" and no ordering get different keys`)
	}
	if key(`{"ordering": "netlen"}`) != key(`{"ordering": "netlen", "ordering_profile": {"conflict_weight": 3}}`) {
		t.Error("a profile the netlen ordering never reads splits the key")
	}
	if key(`{"ordering": "congestion"}`) == key(`{"ordering": "congestion", "ordering_profile": {"conflict_weight": 3}}`) {
		t.Error("the congestion strategy's profile is not part of the key")
	}
}

// TestHTTPParallelismField pins the top-level "parallelism" shorthand: it
// reaches the router as Options.Parallelism, wins over the options field,
// and negative values are rejected before admission.
func TestHTTPParallelismField(t *testing.T) {
	var seen []int
	e := New(Config{Workers: 1, Route: func(ctx context.Context, d *design.Design, opt router.Options) (*router.Output, error) {
		seen = append(seen, opt.Parallelism)
		return stubRoute(nil)(ctx, d, opt)
	}})
	defer e.Close()
	ts := httptest.NewServer(NewHandler(e))
	defer ts.Close()

	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/jobs?wait=1", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	dj, _ := json.Marshal(testDesign(1))
	if code := post(fmt.Sprintf(`{"design": %s, "parallelism": 3}`, dj)); code != http.StatusOK {
		t.Fatalf("top-level parallelism: code = %d", code)
	}
	// The shorthand wins over the options field when both are set.
	if code := post(fmt.Sprintf(`{"design": %s, "options": {"parallelism": 2}, "parallelism": 5}`, dj)); code != http.StatusOK {
		t.Fatalf("both fields: code = %d", code)
	}
	if want := []int{3, 5}; len(seen) != 2 || seen[0] != want[0] || seen[1] != want[1] {
		t.Errorf("router saw parallelism %v, want %v", seen, want)
	}
	if code := post(fmt.Sprintf(`{"design": %s, "parallelism": -1}`, dj)); code != http.StatusBadRequest {
		t.Errorf("negative parallelism: code = %d, want 400", code)
	}
}
