package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rdlroute/internal/design"
	"rdlroute/internal/geom"
	"rdlroute/internal/global"
	"rdlroute/internal/obs"
	"rdlroute/internal/portfolio"
	"rdlroute/internal/router"
)

// testDesign builds a minimal valid two-chip design. seed perturbs a pad
// coordinate so different seeds produce different cache keys.
func testDesign(seed int) *design.Design {
	return &design.Design{
		Name:       fmt.Sprintf("t%d", seed),
		Rules:      design.DefaultRules(),
		WireLayers: 2,
		Outline:    geom.R(0, 0, 1000, 1000),
		Chips: []design.Chip{
			{Name: "c0", Outline: geom.R(100, 100, 300, 300)},
			{Name: "c1", Outline: geom.R(600, 100, 800, 300)},
		},
		IOPads: []design.Pad{
			{ID: 0, Net: 0, Chip: 0, Pos: geom.Pt(300, 200+float64(seed%90))},
			{ID: 1, Net: 0, Chip: 1, Pos: geom.Pt(600, 200)},
		},
		Nets: []design.Net{{ID: 0, Name: "n0", Pins: [2]int{0, 1}}},
	}
}

// stubRoute returns a RouteFunc that fabricates an Output without running
// the pipeline. When block is non-nil it waits for the channel (or context
// cancellation) first, which lets tests hold workers busy deterministically.
func stubRoute(block <-chan struct{}) RouteFunc {
	return func(ctx context.Context, d *design.Design, opt router.Options) (*router.Output, error) {
		if block != nil {
			select {
			case <-block:
			case <-ctx.Done():
				return &router.Output{Design: d}, fmt.Errorf("stub: %w", ctx.Err())
			}
		}
		out := &router.Output{Design: d}
		out.Metrics.TotalNets = len(d.Nets)
		out.Metrics.RoutedNets = len(d.Nets)
		out.Metrics.Routability = 1
		out.Metrics.Wirelength = d.TotalHPWL()
		return out, nil
	}
}

func TestSubmitAndCacheHit(t *testing.T) {
	e := New(Config{Workers: 1, Route: stubRoute(nil)})
	defer e.Close()

	j1, err := e.Submit(Request{Design: testDesign(1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := j1.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := j1.Status(); st.State != StateDone || st.CacheHit {
		t.Fatalf("first run: %+v", st)
	}

	j2, err := e.Submit(Request{Design: testDesign(1)})
	if err != nil {
		t.Fatal(err)
	}
	// A cache hit is terminal the moment Submit returns.
	st := j2.Status()
	if st.State != StateDone || !st.CacheHit {
		t.Fatalf("second run should be a done cache hit: %+v", st)
	}
	o1, _ := j1.Result()
	o2, _ := j2.Result()
	if o1 != o2 {
		t.Error("cache hit should share the first run's output")
	}
	if o1.Metrics != o2.Metrics {
		t.Error("metrics of the two submissions differ")
	}
	if hits := e.Metrics().Counter(CtrCacheHit); hits != 1 {
		t.Errorf("cache hits = %d, want 1", hits)
	}
	if miss := e.Metrics().Counter(CtrCacheMiss); miss != 1 {
		t.Errorf("cache misses = %d, want 1", miss)
	}

	// A different design misses.
	j3, err := e.Submit(Request{Design: testDesign(2)})
	if err != nil {
		t.Fatal(err)
	}
	_ = j3.Wait(context.Background())
	if j3.Status().CacheHit {
		t.Error("different design must not hit the cache")
	}
}

func TestSubmitRejectsInvalidDesign(t *testing.T) {
	e := New(Config{Workers: 1, Route: stubRoute(nil)})
	defer e.Close()
	d := testDesign(1)
	d.IOPads[0].Pos.X = -5 // outside the outline
	if _, err := e.Submit(Request{Design: d}); !errors.Is(err, design.ErrOutOfBounds) {
		t.Fatalf("Submit() = %v, want design.ErrOutOfBounds", err)
	}
}

func TestQueueFullBackpressure(t *testing.T) {
	block := make(chan struct{})
	e := New(Config{Workers: 1, QueueCapacity: 2, Route: stubRoute(block)})
	defer e.Close()
	defer close(block)

	// First job occupies the worker; wait until it actually started so the
	// queue depth is deterministic.
	j1, err := e.Submit(Request{Design: testDesign(1)})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j1, StateRunning)

	// Two more fill the queue.
	for seed := 2; seed <= 3; seed++ {
		if _, err := e.Submit(Request{Design: testDesign(seed)}); err != nil {
			t.Fatal(err)
		}
	}
	// The next submission must bounce.
	_, err = e.Submit(Request{Design: testDesign(4)})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Submit() = %v, want ErrQueueFull", err)
	}
	if got := e.Metrics().Counter(CtrRejected); got != 1 {
		t.Errorf("rejected counter = %d, want 1", got)
	}

	// A cache hit is still admitted against a full queue: it never touches
	// the queue.
	// (Nothing cached yet here, so just verify the stats look sane.)
	s := e.Stats()
	if s.QueueDepth != 2 || s.Running != 1 {
		t.Errorf("stats = %+v, want depth 2 running 1", s)
	}
}

func TestPriorityOrder(t *testing.T) {
	block := make(chan struct{})
	var mu sync.Mutex
	var order []string
	inner := stubRoute(block)
	e := New(Config{Workers: 1, QueueCapacity: 8, Route: func(ctx context.Context, d *design.Design, opt router.Options) (*router.Output, error) {
		mu.Lock()
		order = append(order, d.Name)
		mu.Unlock()
		return inner(ctx, d, opt)
	}})
	defer e.Close()

	j0, err := e.Submit(Request{Design: testDesign(1)})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j0, StateRunning)

	low, _ := e.Submit(Request{Design: testDesign(2), Priority: Low})
	norm, _ := e.Submit(Request{Design: testDesign(3), Priority: Normal})
	high, _ := e.Submit(Request{Design: testDesign(4), Priority: High})
	if low == nil || norm == nil || high == nil {
		t.Fatal("submissions failed")
	}

	close(block) // release everything; one worker drains in priority order
	for _, j := range []*Job{j0, low, norm, high} {
		if err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	got := fmt.Sprint(order)
	mu.Unlock()
	if want := "[t1 t4 t3 t2]"; got != want {
		t.Errorf("run order = %s, want %s (high before normal before low)", got, want)
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	block := make(chan struct{})
	e := New(Config{Workers: 1, QueueCapacity: 4, Route: stubRoute(block)})
	defer e.Close()
	defer close(block)

	running, err := e.Submit(Request{Design: testDesign(1)})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, running, StateRunning)
	queued, err := e.Submit(Request{Design: testDesign(2)})
	if err != nil {
		t.Fatal(err)
	}

	// Cancel the queued job: terminal immediately, never runs.
	st, err := e.Cancel(queued.ID())
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCancelled {
		t.Fatalf("queued cancel state = %s", st.State)
	}
	if _, err := queued.Result(); !errors.Is(err, ErrCancelled) {
		t.Errorf("queued job result error = %v, want ErrCancelled", err)
	}

	// Cancel the running job: its context fires, the stub returns the
	// cancellation, the job lands in cancelled.
	if _, err := e.Cancel(running.ID()); err != nil {
		t.Fatal(err)
	}
	if err := running.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s := running.Status(); s.State != StateCancelled {
		t.Fatalf("running cancel state = %s", s.State)
	}
	if _, err := e.Cancel("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Cancel(unknown) = %v, want ErrNotFound", err)
	}
}

func TestFailedRoute(t *testing.T) {
	boom := errors.New("boom")
	e := New(Config{Workers: 1, Route: func(ctx context.Context, d *design.Design, opt router.Options) (*router.Output, error) {
		return nil, boom
	}})
	defer e.Close()
	j, err := e.Submit(Request{Design: testDesign(1)})
	if err != nil {
		t.Fatal(err)
	}
	_ = j.Wait(context.Background())
	if st := j.Status(); st.State != StateFailed || st.Error == "" {
		t.Fatalf("status = %+v, want failed with error", st)
	}
	if _, err := j.Result(); !errors.Is(err, boom) {
		t.Errorf("Result() err = %v, want boom", err)
	}
	if got := e.Metrics().Counter(CtrFailed); got != 1 {
		t.Errorf("failed counter = %d, want 1", got)
	}
}

func TestTimedOutResultsAreNotCached(t *testing.T) {
	e := New(Config{Workers: 1, Route: func(ctx context.Context, d *design.Design, opt router.Options) (*router.Output, error) {
		out := &router.Output{Design: d}
		out.Metrics.TimedOut = true
		return out, nil
	}})
	defer e.Close()
	j, err := e.Submit(Request{Design: testDesign(1)})
	if err != nil {
		t.Fatal(err)
	}
	_ = j.Wait(context.Background())
	if j.Status().State != StateDone {
		t.Fatalf("state = %s", j.Status().State)
	}
	j2, err := e.Submit(Request{Design: testDesign(1)})
	if err != nil {
		t.Fatal(err)
	}
	_ = j2.Wait(context.Background())
	if j2.Status().CacheHit {
		t.Error("timed-out result must not be served from cache")
	}
}

func TestDrainFinishesInFlight(t *testing.T) {
	block := make(chan struct{})
	e := New(Config{Workers: 2, QueueCapacity: 8, Route: stubRoute(block)})

	var jobs []*Job
	for seed := 1; seed <= 4; seed++ {
		j, err := e.Submit(Request{Design: testDesign(seed)})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		close(block)
	}()
	if err := e.Drain(context.Background()); err != nil {
		t.Fatalf("Drain() = %v", err)
	}
	for _, j := range jobs {
		if st := j.Status(); st.State != StateDone {
			t.Errorf("job %s drained into %s, want done", st.ID, st.State)
		}
	}
	// Post-drain submissions are rejected.
	if _, err := e.Submit(Request{Design: testDesign(9)}); !errors.Is(err, ErrDraining) {
		t.Errorf("Submit after drain = %v, want ErrDraining", err)
	}
}

func TestDrainDeadlineCancelsRemaining(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	e := New(Config{Workers: 1, QueueCapacity: 8, Route: stubRoute(block)})

	running, err := e.Submit(Request{Design: testDesign(1)})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, running, StateRunning)
	queued, err := e.Submit(Request{Design: testDesign(2)})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := e.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain() = %v, want deadline exceeded", err)
	}
	if st := running.Status().State; st != StateCancelled {
		t.Errorf("running job after forced drain: %s", st)
	}
	if st := queued.Status().State; st != StateCancelled {
		t.Errorf("queued job after forced drain: %s", st)
	}
}

// TestConcurrentSubmissions hammers one engine from many goroutines; run
// with -race it is the concurrency regression test required for the shared
// queue/cache/metrics paths.
func TestConcurrentSubmissions(t *testing.T) {
	e := New(Config{Workers: 4, QueueCapacity: 256, Route: stubRoute(nil)})
	defer e.Close()

	const goroutines, perG = 8, 25
	var wg sync.WaitGroup
	var mu sync.Mutex
	var accepted []*Job
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				j, err := e.Submit(Request{Design: testDesign(i % 7), Priority: Priority(i % 3)})
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				mu.Lock()
				accepted = append(accepted, j)
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	for _, j := range accepted {
		if err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		if st := j.Status(); st.State != StateDone {
			t.Fatalf("job %s: %s (%s)", st.ID, st.State, st.Error)
		}
	}
	m := e.Metrics()
	total := m.Counter(CtrCacheHit) + m.Counter(CtrCacheMiss)
	if want := int64(goroutines * perG); total != want {
		t.Errorf("hits+misses = %d, want %d", total, want)
	}
	if m.Counter(CtrCompleted) != int64(goroutines*perG) {
		t.Errorf("completed = %d, want %d", m.Counter(CtrCompleted), goroutines*perG)
	}
}

// TestEndToEndRealRouter routes a real (tiny) design through the actual
// pipeline, twice, and checks the cache round trip preserves metrics.
func TestEndToEndRealRouter(t *testing.T) {
	d, err := design.GenerateRandom(design.RandomSpec{Seed: 7, Chips: 2, NetsPerChannel: 3})
	if err != nil {
		t.Fatal(err)
	}
	e := New(Config{Workers: 2})
	defer e.Close()

	j1, err := e.Submit(Request{Design: d})
	if err != nil {
		t.Fatal(err)
	}
	if err := j1.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	st1 := j1.Status()
	if st1.State != StateDone {
		t.Fatalf("real route failed: %+v", st1)
	}
	if len(j1.StageSeconds()) == 0 {
		t.Error("per-job stage breakdown missing")
	}

	j2, err := e.Submit(Request{Design: d})
	if err != nil {
		t.Fatal(err)
	}
	st2 := j2.Status()
	if !st2.CacheHit {
		t.Fatal("second submission of identical design must hit the cache")
	}
	if *st1.Metrics != *st2.Metrics {
		t.Errorf("metrics differ across cache hit:\n first %+v\nsecond %+v", st1.Metrics, st2.Metrics)
	}
}

// TestSubmitRoutesWhatTheKeyDescribes submits dense1 twice, the second
// time with a strategy object, a recorder and a callback in its options.
// Both jobs get the same key and the same route, because a job routes the
// options decoded from the bytes it is keyed on. netlen orders dense1
// differently from the default RUDY order, so a Global.Order that reached
// the run would show in the route.
func TestSubmitRoutesWhatTheKeyDescribes(t *testing.T) {
	d, err := design.GenerateDense("dense1")
	if err != nil {
		t.Fatal(err)
	}
	e := New(Config{Workers: 1, CacheEntries: -1})
	defer e.Close()
	route := func(opt router.Options) (string, *router.Output) {
		t.Helper()
		j, err := e.Submit(Request{Design: d, Options: opt})
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		out, err := j.Result()
		if err != nil {
			t.Fatal(err)
		}
		return j.Key(), out
	}

	rec := obs.NewCollector()
	var called atomic.Bool
	var loaded router.Options
	loaded.Global.Order = portfolio.NetLen{}
	loaded.Global.AfterEachNet = func(*global.Router, int) { called.Store(true) }
	loaded.Rec = rec
	ka, a := route(router.Options{})
	kb, b := route(loaded)
	if ka != kb {
		t.Errorf("observers and the strategy object split the key: %s vs %s", ka, kb)
	}
	ra, err := json.Marshal(a.DetailResult.Routes)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := json.Marshal(b.DetailResult.Routes)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ra, rb) {
		t.Errorf("same key, different routes: wirelength %v vs %v", a.Metrics.Wirelength, b.Metrics.Wirelength)
	}
	if called.Load() {
		t.Error("the AfterEachNet callback reached the run")
	}
	if n := len(rec.StageSeconds()); n != 0 {
		t.Errorf("the request's recorder saw %d stages", n)
	}
}

// waitState polls until the job reaches the state or the test times out.
func waitState(t *testing.T, j *Job, want State) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if j.snapshotState() == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never reached %s (now %s)", j.ID(), want, j.snapshotState())
}
