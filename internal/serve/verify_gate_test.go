package serve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"rdlroute/internal/design"
	"rdlroute/internal/geom"
	"rdlroute/internal/router"
	"rdlroute/internal/verify"
)

// stubVerifyRoute fabricates a routed Output whose verification gate found
// one planted spacing problem: warn mode attaches the report, strict mode
// fails with a *router.VerifyError, off stays clean.
func stubVerifyRoute() RouteFunc {
	return func(ctx context.Context, d *design.Design, opt router.Options) (*router.Output, error) {
		out := &router.Output{Design: d}
		out.Metrics.TotalNets = len(d.Nets)
		out.Metrics.RoutedNets = len(d.Nets)
		out.Metrics.Routability = 1
		if opt.Verify == router.VerifyOff {
			return out, nil
		}
		rep := &verify.Report{
			CheckedNets: len(d.Nets),
			Problems: []verify.Problem{{
				Kind: verify.RuleViolation, Net: 0, Other: 1,
				Where: geom.Pt(10, 20), Msg: "planted spacing finding",
			}},
		}
		out.VerifyReport = rep
		out.Metrics.VerifyFindings = len(rep.Problems)
		if opt.Verify == router.VerifyStrict {
			return out, &router.VerifyError{Report: rep}
		}
		return out, nil
	}
}

func TestVerifyStrictJobFailsAndCounts(t *testing.T) {
	e := New(Config{Workers: 1, Route: stubVerifyRoute()})
	defer e.Close()

	j, err := e.Submit(Request{Design: testDesign(1), Options: router.Options{Verify: router.VerifyStrict}})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := j.Status()
	if st.State != StateFailed {
		t.Fatalf("state = %s, want failed", st.State)
	}
	out, err := j.Result()
	if !errors.Is(err, router.ErrVerifyFailed) {
		t.Fatalf("result error = %v, want ErrVerifyFailed", err)
	}
	var verr *router.VerifyError
	if !errors.As(err, &verr) || len(verr.Report.Problems) != 1 {
		t.Fatalf("error does not carry the problem list: %v", err)
	}
	if out == nil || out.VerifyReport == nil {
		t.Fatal("failed job lost its partial output/report")
	}
	if n := e.Metrics().Counter(CtrVerifyFailed); n != 1 {
		t.Errorf("%s = %d, want 1", CtrVerifyFailed, n)
	}
	if n := e.Metrics().Counter(CtrFailed); n != 1 {
		t.Errorf("%s = %d, want 1", CtrFailed, n)
	}

	// Warn mode: same findings, but the job completes.
	j, err = e.Submit(Request{Design: testDesign(1), Options: router.Options{Verify: router.VerifyWarn}})
	if err != nil {
		t.Fatal(err)
	}
	_ = j.Wait(context.Background())
	if st := j.Status(); st.State != StateDone {
		t.Fatalf("warn-mode state = %s, want done", st.State)
	}
	if n := e.Metrics().Counter(CtrVerifyFailed); n != 1 {
		t.Errorf("warn mode bumped %s to %d", CtrVerifyFailed, n)
	}
}

func TestVerifyModeNormalizedForCacheKey(t *testing.T) {
	e := New(Config{Workers: 1, Route: stubRoute(nil)})
	defer e.Close()

	a, err := e.Submit(Request{Design: testDesign(2), Options: router.Options{Verify: "off"}})
	if err != nil {
		t.Fatal(err)
	}
	_ = a.Wait(context.Background())
	b, err := e.Submit(Request{Design: testDesign(2)})
	if err != nil {
		t.Fatal(err)
	}
	if a.Key() != b.Key() {
		t.Errorf("verify \"off\" and zero spec hash differently: %s vs %s", a.Key(), b.Key())
	}
	if _, err := e.Submit(Request{Design: testDesign(2), Options: router.Options{Verify: "bogus"}}); err == nil {
		t.Error("unknown verify mode accepted")
	}
}

func TestHTTPVerifyField(t *testing.T) {
	e := New(Config{Workers: 1, Route: stubVerifyRoute()})
	defer e.Close()
	ts := httptest.NewServer(NewHandler(e))
	defer ts.Close()

	dj := designJSON(t, testDesign(3))

	// Unknown mode is a 400.
	if _, code := postBody(t, ts, `{"design": `+dj+`, "verify": "sometimes"}`, ""); code != 400 {
		t.Fatalf("bad verify mode: status %d, want 400", code)
	}

	// Strict submission fails verification; the result JSON carries the
	// findings and /metricsz counts the failure.
	sr, code := postBody(t, ts, `{"design": `+dj+`, "verify": "strict"}`, "?wait=1")
	if code != 200 {
		t.Fatalf("strict submit: status %d", code)
	}
	if sr.State != StateFailed {
		t.Fatalf("strict job state = %s, want failed", sr.State)
	}

	var res struct {
		resultResponse
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/"+sr.ID+"/result", &res); code != 200 {
		t.Fatalf("result: status %d", code)
	}
	if res.Verify == nil || res.Verify.OK || len(res.Verify.Findings) != 1 {
		t.Fatalf("result verify section wrong: %+v", res.Verify)
	}
	f := res.Verify.Findings[0]
	if f.Kind != "rule" || f.Msg != "planted spacing finding" || f.X != 10 || f.Y != 20 {
		t.Errorf("finding JSON wrong: %+v", f)
	}
	if res.Verify.Counts["rule"] != 1 {
		t.Errorf("counts wrong: %+v", res.Verify.Counts)
	}

	var stats Stats
	if code := getJSON(t, ts.URL+"/metricsz", &stats); code != 200 {
		t.Fatalf("metricsz: status %d", code)
	}
	if stats.Counters[CtrVerifyFailed] != 1 {
		t.Errorf("metricsz %s = %d, want 1", CtrVerifyFailed, stats.Counters[CtrVerifyFailed])
	}

	// Warn mode completes with the report attached.
	sr, code = postBody(t, ts, `{"design": `+dj+`, "verify": "warn"}`, "?wait=1")
	if code != 200 || sr.State != StateDone {
		t.Fatalf("warn submit: status %d state %s", code, sr.State)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/"+sr.ID+"/result", &res); code != 200 {
		t.Fatalf("warn result: status %d", code)
	}
	if res.Verify == nil || res.Verify.OK || len(res.Verify.Findings) != 1 {
		t.Fatalf("warn result verify section wrong: %+v", res.Verify)
	}
}

func designJSON(t *testing.T, d *design.Design) string {
	t.Helper()
	b, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// postBody submits a raw JSON body and returns the decoded response.
func postBody(t *testing.T, ts *httptest.Server, body, query string) (submitResponse, int) {
	t.Helper()
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
