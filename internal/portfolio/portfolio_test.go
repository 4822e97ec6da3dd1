package portfolio

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// testModel builds a small model with a congestion cluster: nets 3 and 5
// contest tiles, net 1 is long and clean, net 0 short and clean.
func testModel() *Model {
	return &Model{
		Nets:      6,
		Congested: []int{0, 0, 1, 4, 1, 4},
		PinDist:   []float64{100, 4000, 900, 1200, 900, 800},
		Conflicts: []Conflict{{A: 3, B: 5, Shared: 3}, {A: 2, B: 4, Shared: 1}},
	}
}

func TestNamesKnownNew(t *testing.T) {
	want := []string{"rudy", "netlen", "congestion"}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for _, n := range want {
		if !Known(n) {
			t.Errorf("Known(%q) = false", n)
		}
		s, err := New(n, Profile{})
		if err != nil {
			t.Fatalf("New(%q): %v", n, err)
		}
		if s.Name() != n {
			t.Errorf("New(%q).Name() = %q", n, s.Name())
		}
		// A strategy reads the profile exactly when New builds it
		// differently for another profile.
		other, err := New(n, Profile{CongestedWeight: 7})
		if err != nil {
			t.Fatalf("New(%q): %v", n, err)
		}
		if reads := !reflect.DeepEqual(s, other); ReadsProfile(n) != reads {
			t.Errorf("ReadsProfile(%q) = %v, but New reads the profile: %v", n, ReadsProfile(n), reads)
		}
	}
	if Known("") || Known("zigzag") {
		t.Error("Known accepted a non-strategy name")
	}
	s, err := New("", Profile{})
	if err != nil || s.Name() != "rudy" {
		t.Fatalf(`New("") = %v, %v; want rudy alias`, s, err)
	}
	if _, err := New("zigzag", Profile{}); err == nil {
		t.Fatal("New(zigzag) succeeded; want error")
	}
}

func TestValidOrder(t *testing.T) {
	if !ValidOrder([]int{2, 0, 1}, 3) {
		t.Error("valid permutation rejected")
	}
	for _, bad := range [][]int{{0, 1}, {0, 1, 1}, {0, 1, 3}, {-1, 0, 1}} {
		if ValidOrder(bad, 3) {
			t.Errorf("ValidOrder(%v, 3) = true", bad)
		}
	}
}

func TestStrategiesReturnPermutations(t *testing.T) {
	ctx := context.Background()
	models := []*Model{
		testModel(),
		{Nets: 0},
		{Nets: 1},
		{Nets: 4}, // all-zero features: must fall back to id order cleanly
	}
	for _, name := range Names() {
		s, err := New(name, Profile{})
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range models {
			order := s.Order(ctx, m)
			if !ValidOrder(order, m.Nets) {
				t.Errorf("%s.Order on %d nets: invalid order %v", name, m.Nets, order)
			}
		}
	}
}

func TestStrategiesAreDeterministic(t *testing.T) {
	ctx := context.Background()
	m := testModel()
	for _, name := range Names() {
		s, _ := New(name, Profile{})
		a := s.Order(ctx, m)
		b := s.Order(ctx, m)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s.Order is not deterministic: %v vs %v", name, a, b)
		}
	}
}

func TestRUDYOrder(t *testing.T) {
	// Congested desc, then pin distance asc, then id asc. Nets 3 and 5 tie
	// at 4 congested tiles; 5 is shorter. Nets 2 and 4 tie at 1 congested
	// tile AND 900 µm: id breaks the tie.
	got := RUDY{}.Order(context.Background(), testModel())
	want := []int{5, 3, 2, 4, 0, 1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("RUDY order = %v, want %v", got, want)
	}
}

func TestNetLenOrder(t *testing.T) {
	got := NetLen{}.Order(context.Background(), testModel())
	want := []int{0, 5, 2, 4, 3, 1} // 100, 800, 900(id2), 900(id4), 1200, 4000
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("NetLen order = %v, want %v", got, want)
	}
}

func TestCongestionOrder(t *testing.T) {
	// The conflict/congestion cluster leads and the long clean net 1
	// trails.
	got := Congestion{}.Order(context.Background(), testModel())
	if got[len(got)-1] != 1 {
		t.Fatalf("Congestion order = %v, want long clean net 1 last", got)
	}
}

func TestProfileParse(t *testing.T) {
	p, err := ParseProfile([]byte(`{"congested_weight": 3, "length_weight": 0.5}`))
	if err != nil {
		t.Fatal(err)
	}
	if p.CongestedWeight != 3 || p.LengthWeight != 0.5 {
		t.Fatalf("parsed profile = %+v", p)
	}
	d := p.withDefaults()
	if d.ConflictWeight != 0.25 {
		t.Fatalf("withDefaults did not fill unset weights: %+v", d)
	}
	if _, err := ParseProfile([]byte(`{"congsted_weight": 3}`)); err == nil {
		t.Fatal("misspelled field accepted")
	}
	if _, err := ParseProfile([]byte(`{"fail_weight": 2}`)); err == nil {
		t.Fatal("the removed fail_weight accepted")
	}
	if _, err := ParseProfile([]byte(`{"length_weight": 1e999}`)); err == nil {
		t.Fatal("non-finite weight accepted")
	}
}

func TestLoadProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "prof.json")
	if err := os.WriteFile(path, []byte(`{"conflict_weight": 2}`), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := LoadProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	if p.ConflictWeight != 2 {
		t.Fatalf("loaded profile = %+v", p)
	}
	if _, err := LoadProfile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestBetterCanonicalObjective(t *testing.T) {
	ok := func(r, w float64, v int, name string) Outcome {
		return Outcome{Strategy: name, OK: true, Routability: r, Wirelength: w, Vias: v}
	}
	cases := []struct {
		a, b Outcome
		want bool
	}{
		{ok(1, 10, 1, "a"), Outcome{Strategy: "b", Err: errors.New("x")}, true},
		{ok(0.9, 10, 1, "a"), ok(0.8, 5, 0, "b"), true},   // routability first
		{ok(0.9, 5, 9, "a"), ok(0.9, 10, 0, "b"), true},   // then wirelength
		{ok(0.9, 10, 1, "a"), ok(0.9, 10, 2, "b"), true},  // then vias
		{ok(0.9, 10, 1, "a"), ok(0.9, 10, 1, "b"), true},  // then name
		{ok(0.9, 10, 1, "b"), ok(0.9, 10, 1, "a"), false}, // name, other side
	}
	for i, c := range cases {
		if got := Better(c.a, c.b); got != c.want {
			t.Errorf("case %d: Better = %v, want %v", i, got, c.want)
		}
	}
}

// brokenStrategy stands in for an attempt that fails in the race tests.
type brokenStrategy struct{}

func (brokenStrategy) Name() string                            { return "broken" }
func (brokenStrategy) Order(_ context.Context, m *Model) []int { return identity(m.Nets) }

func TestRaceWinnerIndependentOfParallelism(t *testing.T) {
	strategies := []Strategy{NetLen{}, RUDY{}, brokenStrategy{}, Congestion{}}
	score := map[string]Outcome{
		"rudy":       {OK: true, Routability: 0.95, Wirelength: 100},
		"netlen":     {OK: true, Routability: 0.95, Wirelength: 90},
		"congestion": {OK: true, Routability: 0.90, Wirelength: 10},
		"broken":     {OK: false, Err: errors.New("boom")},
	}
	var got []struct {
		winner int
		outs   []Outcome
	}
	for _, par := range []int{1, 2, 4, 8} {
		calls := make([]int, len(strategies))
		winner, outs := Race(strategies, par, func(slot int, s Strategy, workers int) Outcome {
			calls[slot]++
			if workers < 1 {
				t.Errorf("attempt got %d workers", workers)
			}
			return score[s.Name()]
		})
		for i, c := range calls {
			if c != 1 {
				t.Fatalf("parallelism %d: strategy %d attempted %d times", par, i, c)
			}
		}
		got = append(got, struct {
			winner int
			outs   []Outcome
		}{winner, outs})
	}
	for i := 1; i < len(got); i++ {
		if got[i].winner != got[0].winner || !reflect.DeepEqual(got[i].outs, got[0].outs) {
			t.Fatalf("race result differs across parallelism: %+v vs %+v", got[i], got[0])
		}
	}
	if name := got[0].outs[got[0].winner].Strategy; name != "netlen" {
		t.Fatalf("winner = %q, want netlen (same routability, less wire)", name)
	}
}

func TestRaceEmpty(t *testing.T) {
	winner, outs := Race(nil, 4, func(int, Strategy, int) Outcome { return Outcome{} })
	if winner != -1 || outs != nil {
		t.Fatalf("Race(nil) = %d, %v", winner, outs)
	}
}

func TestRaceWorkerSplit(t *testing.T) {
	// Budget 8 over 3 attempts: each inner attempt gets floor(8/3) = 2.
	inner := make([]int, 3)
	Race([]Strategy{RUDY{}, NetLen{}, Congestion{}}, 8, func(slot int, _ Strategy, workers int) Outcome {
		inner[slot] = workers
		return Outcome{OK: true}
	})
	for _, w := range inner {
		if w != 2 {
			t.Fatalf("inner worker split = %v, want all 2", inner)
		}
	}
}
