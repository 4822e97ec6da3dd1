package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"rdlroute/internal/design"
	"rdlroute/internal/detail"
	"rdlroute/internal/router"
	"rdlroute/internal/verify"
)

// maxBodyBytes bounds a submission body; a dense RDL design JSON is a few
// MB, so 64 MB leaves generous headroom without letting one request exhaust
// memory.
const maxBodyBytes = 64 << 20

// NewHandler wraps the engine into the HTTP/JSON API:
//
//	POST   /v1/jobs             submit {design, options?, priority?}; ?wait=1 blocks
//	GET    /v1/jobs/{id}        job status
//	GET    /v1/jobs/{id}/result metrics + stage breakdown; ?include=routes adds geometry
//	DELETE /v1/jobs/{id}        cancel
//	GET    /healthz             liveness; 503 while draining
//	GET    /metricsz            engine stats, counters, gauges
//
// Every response is JSON. Error responses are {"error": "...", "state"?}
// with the mapped status code: 400 invalid input, 404 unknown job, 409
// result not ready, 429 queue full, 503 draining.
func NewHandler(e *Engine) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", e.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", e.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", e.handleResult)
	mux.HandleFunc("DELETE /v1/jobs/{id}", e.handleCancel)
	mux.HandleFunc("GET /healthz", e.handleHealth)
	mux.HandleFunc("GET /metricsz", e.handleMetrics)
	return e.instrument(mux)
}

// instrument records request count and latency around every call.
func (e *Engine) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		//rdl:allow detrand request latency metric: feeds /metricsz gauges only, never routing state
		start := time.Now()
		next.ServeHTTP(w, r)
		e.rec.Count("serve.http.requests", 1)
		e.rec.Gauge("serve.http.latency_ms", ms(time.Since(start)))
	})
}

// submitRequest is the POST /v1/jobs body. Unknown fields are rejected:
// a misspelled "options" must not silently route with defaults.
type submitRequest struct {
	Design   json.RawMessage `json:"design"`
	Options  router.Options  `json:"options"`
	Priority string          `json:"priority"`
	// Verify is the verification gate mode ("off", "warn" or "strict"), a
	// top-level shorthand for options.verify; when set it wins over the
	// options field. Strict jobs whose results fail verification finish in
	// state "failed" with the findings in the result JSON.
	Verify string `json:"verify"`
	// Parallelism is a top-level shorthand for options.parallelism, the
	// job's worker-pool size inside the routing pipeline (0 = GOMAXPROCS
	// capped at 8, 1 = serial; results are identical either way). When set
	// it wins over the options field. Distinct from the engine's -workers,
	// which is how many jobs run concurrently.
	Parallelism int `json:"parallelism"`
	// Ordering is a top-level shorthand for options.ordering, the global
	// stage's net-ordering strategy; when set it wins over the options
	// field.
	Ordering string `json:"ordering"`
	// Portfolio is a top-level shorthand for options.portfolio: strategies
	// raced as independent route attempts with canonical winner selection.
	// When non-empty it wins over the options field. Validate canonicalizes
	// the list, so submission order does not change the cache key.
	Portfolio []string `json:"portfolio"`
}

// submitResponse answers POST /v1/jobs.
type submitResponse struct {
	JobStatus
	// Key is the content-addressed cache key of the request.
	Key string `json:"key"`
}

func (e *Engine) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	var req submitRequest
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
		return
	}
	if len(req.Design) == 0 {
		httpError(w, http.StatusBadRequest, errors.New("missing \"design\""))
		return
	}
	d, err := design.ReadJSON(bytes.NewReader(req.Design))
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	prio, err := ParsePriority(req.Priority)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if req.Verify != "" {
		mode, err := router.ParseVerifyMode(req.Verify)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		req.Options.Verify = mode
	}
	if req.Parallelism != 0 {
		req.Options.Parallelism = req.Parallelism
	}
	if req.Ordering != "" {
		req.Options.Ordering = req.Ordering
	}
	if len(req.Portfolio) > 0 {
		req.Options.Portfolio = req.Portfolio
	}

	j, err := e.Submit(Request{Design: d, Options: req.Options, Priority: prio})
	if err != nil {
		httpError(w, submitStatusCode(err), err)
		return
	}
	if r.URL.Query().Get("wait") != "" {
		if err := j.Wait(r.Context()); err != nil {
			// Client went away; the job keeps running for the next poll.
			httpError(w, http.StatusRequestTimeout, err)
			return
		}
	}
	code := http.StatusAccepted
	if j.Status().State.Terminal() {
		code = http.StatusOK
	}
	writeJSON(w, code, submitResponse{JobStatus: j.Status(), Key: j.Key()})
}

func submitStatusCode(err error) int {
	switch {
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

func (e *Engine) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, err := e.Job(r.PathValue("id"))
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

// resultResponse answers GET /v1/jobs/{id}/result for terminal jobs.
type resultResponse struct {
	JobStatus
	// StageSeconds breaks the run down per pipeline stage; empty for
	// cache hits (no stages ran for this job).
	StageSeconds map[string]float64 `json:"stage_seconds,omitempty"`
	// Violations is the DRC violation count.
	Violations int `json:"violations"`
	// Verify is the verification gate's report; absent when the job ran
	// with the gate off.
	Verify *verifyResult `json:"verify,omitempty"`
	// Portfolio is the per-strategy race summary in canonical strategy
	// order; absent for single-strategy jobs.
	Portfolio []portfolioAttempt `json:"portfolio,omitempty"`
	// Routes is the routed geometry, included with ?include=routes.
	Routes []*detail.Route `json:"routes,omitempty"`
}

// portfolioAttempt is one strategy's score in a portfolio job result.
type portfolioAttempt struct {
	Strategy    string  `json:"strategy"`
	Winner      bool    `json:"winner,omitempty"`
	OK          bool    `json:"ok"`
	Routability float64 `json:"routability"`
	Wirelength  float64 `json:"wirelength_um"`
	Vias        int     `json:"vias"`
	Error       string  `json:"error,omitempty"`
}

// verifyResult is the verification section of a job result (doc/VERIFY.md
// documents the finding shape).
type verifyResult struct {
	OK          bool             `json:"ok"`
	CheckedNets int              `json:"checked_nets"`
	Counts      map[string]int   `json:"counts,omitempty"`
	Findings    []verify.Finding `json:"findings,omitempty"`
	// Truncated is set when the findings list was capped (the counts still
	// cover everything).
	Truncated bool `json:"truncated,omitempty"`
}

// maxFindingsJSON caps the findings list in a result response so one
// pathological job cannot emit an unbounded payload.
const maxFindingsJSON = 500

func newVerifyResult(rep *verify.Report) *verifyResult {
	if rep == nil {
		return nil
	}
	v := &verifyResult{
		OK:          rep.OK(),
		CheckedNets: rep.CheckedNets,
		Counts:      rep.Counts(),
		Findings:    rep.Findings(),
	}
	if len(v.Findings) > maxFindingsJSON {
		v.Findings = v.Findings[:maxFindingsJSON]
		v.Truncated = true
	}
	return v
}

func (e *Engine) handleResult(w http.ResponseWriter, r *http.Request) {
	j, err := e.Job(r.PathValue("id"))
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	st := j.Status()
	if !st.State.Terminal() {
		writeJSON(w, http.StatusConflict, map[string]any{
			"error": ErrNotFinished.Error(),
			"state": st.State,
		})
		return
	}
	out, _ := j.Result()
	resp := resultResponse{JobStatus: st, StageSeconds: j.StageSeconds()}
	if out != nil {
		resp.Violations = len(out.Violations)
		resp.Verify = newVerifyResult(out.VerifyReport)
		for _, att := range out.Portfolio {
			pa := portfolioAttempt{
				Strategy:    att.Strategy,
				Winner:      att.Strategy == out.Metrics.PortfolioWinner,
				OK:          att.OK,
				Routability: att.Routability,
				Wirelength:  att.Wirelength,
				Vias:        att.Vias,
			}
			if att.Err != nil {
				pa.Error = att.Err.Error()
			}
			resp.Portfolio = append(resp.Portfolio, pa)
		}
		if r.URL.Query().Get("include") == "routes" && out.DetailResult != nil {
			resp.Routes = out.DetailResult.Routes
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (e *Engine) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, err := e.Cancel(r.PathValue("id"))
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (e *Engine) handleHealth(w http.ResponseWriter, r *http.Request) {
	e.mu.Lock()
	draining := e.draining
	e.mu.Unlock()
	code := http.StatusOK
	if draining {
		// Load balancers interpret the 503 as "stop sending traffic here"
		// while in-flight jobs finish.
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{"ok": !draining, "draining": draining})
}

func (e *Engine) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, e.Stats())
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(v) // client went away; nothing sensible to do
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
