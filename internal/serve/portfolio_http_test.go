package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"encoding/json"

	"rdlroute/internal/design"
	"rdlroute/internal/portfolio"
	"rdlroute/internal/router"
)

// TestHTTPOrderingPortfolioFields pins the top-level "ordering" and
// "portfolio" shorthands: they reach the router as Options.Ordering /
// Options.Portfolio (canonicalized by Validate), win over the options
// fields, and invalid strategy names are rejected before admission.
func TestHTTPOrderingPortfolioFields(t *testing.T) {
	type seenOpt struct {
		ordering  string
		portfolio []string
	}
	var seen []seenOpt
	e := New(Config{Workers: 1, Route: func(ctx context.Context, d *design.Design, opt router.Options) (*router.Output, error) {
		seen = append(seen, seenOpt{opt.Ordering, opt.Portfolio})
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

	// Distinct designs per submission so none of them cache-hit.
	dj := func(seed int) []byte {
		b, err := json.Marshal(testDesign(seed))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	if code := post(fmt.Sprintf(`{"design": %s, "ordering": "netlen"}`, dj(1))); code != http.StatusOK {
		t.Fatalf("top-level ordering: code = %d", code)
	}
	// Submission order canonicalizes: ["netlen","rudy"] arrives as
	// ["rudy","netlen"].
	if code := post(fmt.Sprintf(`{"design": %s, "portfolio": ["netlen", "rudy"]}`, dj(2))); code != http.StatusOK {
		t.Fatalf("top-level portfolio: code = %d", code)
	}
	// The shorthands win over the options fields when both are set.
	if code := post(fmt.Sprintf(`{"design": %s, "options": {"ordering": "rudy"}, "ordering": "congestion"}`, dj(3))); code != http.StatusOK {
		t.Fatalf("both ordering fields: code = %d", code)
	}
	if code := post(fmt.Sprintf(`{"design": %s, "options": {"portfolio": ["rudy"]}, "portfolio": ["congestion", "netlen"]}`, dj(4))); code != http.StatusOK {
		t.Fatalf("both portfolio fields: code = %d", code)
	}

	want := []seenOpt{
		{ordering: "netlen"},
		{portfolio: []string{"rudy", "netlen"}},
		{ordering: "congestion"},
		{portfolio: []string{"netlen", "congestion"}},
	}
	if len(seen) != len(want) {
		t.Fatalf("router ran %d times, want %d", len(seen), len(want))
	}
	for i, w := range want {
		got := seen[i]
		if got.ordering != w.ordering || fmt.Sprint(got.portfolio) != fmt.Sprint(w.portfolio) {
			t.Errorf("job %d: router saw %+v, want %+v", i, got, w)
		}
	}

	// Invalid configurations are rejected at admission, before queueing.
	if code := post(fmt.Sprintf(`{"design": %s, "ordering": "zigzag"}`, dj(5))); code != http.StatusBadRequest {
		t.Errorf("unknown ordering: code = %d, want 400", code)
	}
	if code := post(fmt.Sprintf(`{"design": %s, "portfolio": ["rudy", "zigzag"]}`, dj(6))); code != http.StatusBadRequest {
		t.Errorf("unknown portfolio strategy: code = %d, want 400", code)
	}
	if code := post(fmt.Sprintf(`{"design": %s, "ordering": "rudy", "portfolio": ["netlen"]}`, dj(7))); code != http.StatusBadRequest {
		t.Errorf("ordering+portfolio together: code = %d, want 400", code)
	}
}

// TestHTTPPortfolioResult pins the result payload of a portfolio job: one
// row per attempt in canonical order, the winner flagged, and failed
// attempts carrying their error string.
func TestHTTPPortfolioResult(t *testing.T) {
	e := New(Config{Workers: 1, Route: func(ctx context.Context, d *design.Design, opt router.Options) (*router.Output, error) {
		out, _ := stubRoute(nil)(ctx, d, opt)
		out.Metrics.PortfolioWinner = "netlen"
		out.Portfolio = []portfolio.Outcome{
			{Strategy: "rudy", OK: true, Routability: 0.9, Wirelength: 1200, Vias: 8},
			{Strategy: "netlen", OK: true, Routability: 1, Wirelength: 1100, Vias: 7},
			{Strategy: "congestion", Err: errors.New("attempt exploded")},
		}
		return out, nil
	}})
	defer e.Close()
	ts := httptest.NewServer(NewHandler(e))
	defer ts.Close()

	sr, code := postDesign(t, ts, testDesign(1), "?wait=1")
	if code != http.StatusOK {
		t.Fatalf("submit: code = %d", code)
	}
	var res resultResponse
	if code := getJSON(t, ts.URL+"/v1/jobs/"+sr.ID+"/result", &res); code != http.StatusOK {
		t.Fatalf("result: code = %d", code)
	}
	if len(res.Portfolio) != 3 {
		t.Fatalf("%d portfolio rows, want 3", len(res.Portfolio))
	}
	for i, want := range []string{"rudy", "netlen", "congestion"} {
		if res.Portfolio[i].Strategy != want {
			t.Errorf("row %d is %q, want %q", i, res.Portfolio[i].Strategy, want)
		}
	}
	if !res.Portfolio[1].Winner || res.Portfolio[0].Winner || res.Portfolio[2].Winner {
		t.Errorf("winner flags wrong: %+v", res.Portfolio)
	}
	if res.Portfolio[2].OK || res.Portfolio[2].Error != "attempt exploded" {
		t.Errorf("failed attempt row wrong: %+v", res.Portfolio[2])
	}
	if res.Portfolio[1].Routability != 1 || res.Portfolio[1].Wirelength != 1100 || res.Portfolio[1].Vias != 7 {
		t.Errorf("winner row score wrong: %+v", res.Portfolio[1])
	}
}
