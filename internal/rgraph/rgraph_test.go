package rgraph

import (
	"errors"
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"
	"unsafe"

	"rdlroute/internal/design"
	"rdlroute/internal/geom"
	"rdlroute/internal/obs"
	"rdlroute/internal/viaplan"
)

func buildGraph(t *testing.T, name string, opt Options) *Graph {
	t.Helper()
	d, err := design.GenerateDense(name)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := viaplan.Build(d, viaplan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(d, plan, opt)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestEdgeNodeCapacityEq1(t *testing.T) {
	rules := design.Rules{WireWidth: 2, ViaWidth: 5, MinSpacing: 2, MinTurnDist: 4}
	// d = 41, pitch = 4 → ⌊41/4⌋ = 10.
	if got := EdgeNodeCapacity(geom.Pt(0, 0), geom.Pt(41, 0), rules); got != 10 {
		t.Errorf("capacity = %d, want 10", got)
	}
	// Degenerate edge has zero capacity.
	if got := EdgeNodeCapacity(geom.Pt(0, 0), geom.Pt(1, 0), rules); got != 0 {
		t.Errorf("short edge capacity = %d, want 0", got)
	}
}

func TestCornerCapacityEq2(t *testing.T) {
	rules := design.Rules{WireWidth: 2, ViaWidth: 5, MinSpacing: 2, MinTurnDist: 4}
	// Right-angle corner with legs 100: ang = π/2, cos(π/8) ≈ 0.9239.
	v, a, b := geom.Pt(0, 0), geom.Pt(100, 0), geom.Pt(0, 100)
	got := CornerCapacity(v, a, b, rules)
	l := geom.CornerEffectiveLength(v, a, b)
	want := int(math.Floor(math.Cos(math.Pi/8) * l / rules.Pitch()))
	if got != want {
		t.Errorf("corner capacity = %d, want %d", got, want)
	}
	if got <= 0 {
		t.Error("non-degenerate corner must have positive capacity")
	}
	// A larger corner admits more wires.
	got2 := CornerCapacity(v, a.Scale(2), b.Scale(2), rules)
	if got2 <= got {
		t.Errorf("scaled corner capacity %d not larger than %d", got2, got)
	}
}

func TestBuildDense1Structure(t *testing.T) {
	g := buildGraph(t, "dense1", Options{})
	s := g.Stats()
	if s.Layers != 2 {
		t.Fatalf("layers = %d", s.Layers)
	}
	if s.ViaNodes == 0 || s.EdgeNodes == 0 {
		t.Fatal("missing nodes")
	}
	if s.CrossVia == 0 || s.AccessVia == 0 || s.CrossTile == 0 {
		t.Fatalf("missing link kinds: %+v", s)
	}
	// Each tile contributes exactly 3 cross-tile links.
	tiles := 0
	for _, lg := range g.Layers {
		tiles += len(lg.Tiles)
	}
	if s.CrossTile != 3*tiles {
		t.Errorf("cross-tile links = %d, want %d", s.CrossTile, 3*tiles)
	}
	// One cross-via link per candidate via.
	if s.CrossVia != len(g.Plan.Vias) {
		t.Errorf("cross-via links = %d, want %d", s.CrossVia, len(g.Plan.Vias))
	}
}

// spanLog records every span start, in order, repeats included. The
// parallel build starts spans from several workers, so it locks.
type spanLog struct {
	obs.Recorder
	mu     sync.Mutex
	starts []string
}

func (s *spanLog) Enabled() bool { return true }
func (s *spanLog) StageStart(stage string) {
	s.mu.Lock()
	s.starts = append(s.starts, stage)
	s.mu.Unlock()
}

// TestGraphBuildSubSpans pins the graph build's span layout. Serially it
// is one rgraph.dt span per wire layer, then rgraph.nodes and rgraph.links
// per layer, then one rgraph.adj; on a pool the same spans start in
// another order.
func TestGraphBuildSubSpans(t *testing.T) {
	want := []string{"rgraph.dt", "rgraph.dt", "rgraph.nodes", "rgraph.links",
		"rgraph.nodes", "rgraph.links", "rgraph.adj"}
	log := &spanLog{Recorder: obs.Nop}
	g := buildGraph(t, "dense1", Options{Workers: 1, Rec: log})
	if len(g.Layers) != 2 || !reflect.DeepEqual(log.starts, want) {
		t.Errorf("%d layers, spans %v, want %v", len(g.Layers), log.starts, want)
	}

	log = &spanLog{Recorder: obs.Nop}
	buildGraph(t, "dense1", Options{Workers: 4, Rec: log})
	sort.Strings(log.starts)
	sort.Strings(want)
	if !reflect.DeepEqual(log.starts, want) {
		t.Errorf("4 workers: spans %v, want %v in any order", log.starts, want)
	}
}

func TestPinNodesResolvable(t *testing.T) {
	g := buildGraph(t, "dense1", Options{})
	for _, n := range g.Design.Nets {
		s, tt, err := g.NetPins(n)
		if err != nil {
			t.Fatal(err)
		}
		ns, nt := g.Node(s), g.Node(tt)
		if ns.Layer != 0 || nt.Layer != 0 {
			t.Errorf("net %d pins not on layer 0", n.ID)
		}
		if ns.VertKind != viaplan.KindPin || nt.VertKind != viaplan.KindPin {
			t.Errorf("net %d pin nodes have wrong kind", n.ID)
		}
		if ns.Cap != 1 || nt.Cap != 1 {
			t.Errorf("net %d pin capacity != 1", n.ID)
		}
	}
}

func TestNodeCapacities(t *testing.T) {
	g := buildGraph(t, "dense1", Options{})
	for id := range g.Nodes {
		n := &g.Nodes[id]
		if n.Kind == ViaNode {
			switch n.VertKind {
			case viaplan.KindVia, viaplan.KindPin:
				if n.Cap != 1 {
					t.Fatalf("node %d (%v) cap = %d, want 1", id, n.VertKind, n.Cap)
				}
			case viaplan.KindBump, viaplan.KindDummy:
				if n.Cap != 0 {
					t.Fatalf("node %d (%v) cap = %d, want 0", id, n.VertKind, n.Cap)
				}
			}
		} else {
			lg := g.Layers[n.Layer]
			want := EffectiveEdgeCapacity(lg.Mesh.Points[n.Edge.A], lg.Mesh.Points[n.Edge.B], g.Design.Rules)
			if int(n.Cap) != want {
				t.Fatalf("edge node %d cap = %d, want %d", id, n.Cap, want)
			}
		}
	}
}

func TestAdjacencySymmetry(t *testing.T) {
	g := buildGraph(t, "dense1", Options{})
	for id := range g.Nodes {
		for _, adj := range g.Neighbors(NodeID(id)) {
			l := g.Link(int(adj.Link))
			if l.A != NodeID(id) && l.B != NodeID(id) {
				t.Fatalf("node %d lists link %d it is not part of", id, adj.Link)
			}
			// The reverse adjacency must exist.
			found := false
			for _, back := range g.Neighbors(adj.To) {
				if back.Link == adj.Link && back.To == NodeID(id) {
					found = true
				}
			}
			if !found {
				t.Fatalf("link %d missing reverse adjacency", adj.Link)
			}
		}
	}
}

func TestLinkKindEndpoints(t *testing.T) {
	g := buildGraph(t, "dense3", Options{})
	for id, l := range g.Links {
		a, b := g.Node(l.A), g.Node(l.B)
		switch l.Kind {
		case CrossVia:
			if a.Kind != ViaNode || b.Kind != ViaNode {
				t.Fatalf("cross-via link %d endpoints not via nodes", id)
			}
			if abs(int(a.Layer)-int(b.Layer)) != 1 {
				t.Fatalf("cross-via link %d spans layers %d-%d", id, a.Layer, b.Layer)
			}
			if a.Ref != b.Ref {
				t.Fatalf("cross-via link %d connects different vias", id)
			}
		case AccessVia:
			if a.Kind != ViaNode || b.Kind != EdgeNode {
				t.Fatalf("access-via link %d endpoint kinds wrong", id)
			}
			if a.Layer != b.Layer {
				t.Fatalf("access-via link %d crosses layers", id)
			}
			if l.Cap != 1 {
				t.Fatalf("access-via link %d cap = %d", id, l.Cap)
			}
			// The via vertex must not be an endpoint of the opposite edge.
			if int(a.Vert) == b.Edge.A || int(a.Vert) == b.Edge.B {
				t.Fatalf("access-via link %d: via %d on its own edge", id, a.Vert)
			}
		case CrossTile:
			if a.Kind != EdgeNode || b.Kind != EdgeNode {
				t.Fatalf("cross-tile link %d endpoints not edge nodes", id)
			}
			if a.Layer != b.Layer {
				t.Fatalf("cross-tile link %d crosses layers", id)
			}
			// The two edges share exactly the corner vertex.
			shared := sharedVert(a.Edge.A, a.Edge.B, b.Edge.A, b.Edge.B)
			if shared != int(l.Corner) {
				t.Fatalf("cross-tile link %d corner = %d, shared vertex = %d", id, l.Corner, shared)
			}
		}
	}
}

func TestNoAccessToDeadVertices(t *testing.T) {
	// Bump and dummy vertices (capacity 0) must have no access-via links.
	g := buildGraph(t, "dense1", Options{})
	for id := range g.Nodes {
		n := &g.Nodes[id]
		if n.Kind != ViaNode || n.Cap != 0 {
			continue
		}
		for _, adj := range g.Neighbors(NodeID(id)) {
			if g.Link(int(adj.Link)).Kind == AccessVia {
				t.Fatalf("capacity-0 node %d (%v) has an access-via link", id, n.VertKind)
			}
		}
	}
}

func TestTileBoundaryOrder(t *testing.T) {
	g := buildGraph(t, "dense1", Options{})
	for _, lg := range g.Layers {
		for ti, tile := range lg.Tiles {
			tri := lg.Mesh.Tris[ti]
			for i := 0; i < 3; i++ {
				if int(tile.Verts[i]) != tri.V[i] {
					t.Fatalf("tile %d vertex mismatch", ti)
				}
				en := g.Node(tile.EdgeNodes[i])
				// Edges[i] joins Verts[i] and Verts[(i+1)%3].
				a, b := int(tile.Verts[i]), int(tile.Verts[(i+1)%3])
				if (en.Edge.A != a || en.Edge.B != b) && (en.Edge.A != b || en.Edge.B != a) {
					t.Fatalf("tile %d edge %d joins %v, want {%d %d}", ti, i, en.Edge, a, b)
				}
				// CrossLinks[i] wraps corner Verts[i] inside this tile, joining
				// Edges[(i+2)%3] and Edges[i].
				cl := g.Link(int(tile.CrossLinks[i]))
				if cl.Corner != tile.Verts[i] {
					t.Fatalf("tile %d cross link %d corner = %d, want %d", ti, i, cl.Corner, tile.Verts[i])
				}
				if int(cl.Tile) != ti || cl.A != tile.EdgeNodes[(i+2)%3] || cl.B != tile.EdgeNodes[i] {
					t.Fatalf("tile %d cross link %d is tile %d, %d–%d", ti, i, cl.Tile, cl.A, cl.B)
				}
			}
		}
	}
}

func TestNaiveCornerCapacityAblation(t *testing.T) {
	gSmart := buildGraph(t, "dense1", Options{})
	gNaive := buildGraph(t, "dense1", Options{NaiveCornerCapacity: true})
	// The naive model must differ (it overestimates corners; Fig. 6(a)).
	larger, smaller := 0, 0
	for i := range gSmart.Links {
		if gSmart.Links[i].Kind != CrossTile {
			continue
		}
		if gNaive.Links[i].Cap > gSmart.Links[i].Cap {
			larger++
		}
		if gNaive.Links[i].Cap < gSmart.Links[i].Cap {
			smaller++
		}
	}
	if larger == 0 {
		t.Error("naive corner model never exceeds Eq. 2 capacity; ablation is vacuous")
	}
	t.Logf("naive > eq2 on %d corners, naive < eq2 on %d corners", larger, smaller)
}

func TestEdgeKindString(t *testing.T) {
	if CrossVia.String() != "cross-via" || AccessVia.String() != "access-via" || CrossTile.String() != "cross-tile" {
		t.Error("EdgeKind.String wrong")
	}
}

func sharedVert(a1, a2, b1, b2 int) int {
	if a1 == b1 || a1 == b2 {
		return a1
	}
	if a2 == b1 || a2 == b2 {
		return a2
	}
	return -1
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// TestViaCostZeroNotClobbered is the regression test for the explicit-zero
// via cost: Build used to treat any cost <= 0 as "unset" and replace it with
// the 4×ViaWidth default, making a free-via configuration unexpressible.
// The pointer knob distinguishes the three cases.
func TestViaCostZeroNotClobbered(t *testing.T) {
	crossViaLen := func(g *Graph) float64 {
		for _, l := range g.Links {
			if l.Kind == CrossVia {
				return l.Len
			}
		}
		t.Fatal("no cross-via links")
		return 0
	}

	for _, c := range []float64{0, -1} {
		free := buildGraph(t, "dense1", Options{ViaCost: viaCost(c)})
		if got := crossViaLen(free); got != 0 {
			t.Errorf("free vias (&%v): cross-via Len = %v, want 0", c, got)
		}
	}
	def := buildGraph(t, "dense1", Options{})
	if want := 4 * def.Design.Rules.ViaWidth; crossViaLen(def) != want {
		t.Errorf("default vias: cross-via Len = %v, want %v", crossViaLen(def), want)
	}
	expl := buildGraph(t, "dense1", Options{ViaCost: viaCost(7)})
	if got := crossViaLen(expl); got != 7 {
		t.Errorf("explicit vias: cross-via Len = %v, want 7", got)
	}
}

// viaCost returns a pointer to an explicit via cost.
func viaCost(c float64) *float64 { return &c }

// TestViaCostWireEncoding pins how a ViaCost pointer resolves: nil is the
// 4×ViaWidth default (and 0 on viaplan's scale), a positive cost is itself,
// and zero or a negative cost is free.
func TestViaCostWireEncoding(t *testing.T) {
	if got := ViaCostValue(nil); got != 0 {
		t.Errorf("ViaCostValue(nil) = %v, want 0", got)
	}
	if got := ViaCostValue(viaCost(7)); got != 7 {
		t.Errorf("ViaCostValue(&7) = %v, want 7", got)
	}
	for _, c := range []float64{0, -1} {
		if got := ViaCostValue(viaCost(c)); got >= 0 {
			t.Errorf("ViaCostValue(&%v) = %v, want negative (free)", c, got)
		}
	}
	rules := design.DefaultRules()
	if got := (Options{}).ResolvedViaCost(rules); got != 4*rules.ViaWidth {
		t.Errorf("ResolvedViaCost(nil) = %v, want %v", got, 4*rules.ViaWidth)
	}
	for _, c := range []float64{0, -1} {
		if got := (Options{ViaCost: viaCost(c)}).ResolvedViaCost(rules); got != 0 {
			t.Errorf("ResolvedViaCost(&%v) = %v, want 0", c, got)
		}
	}
}

// TestPackedRecordSizes pins the packed layout of the graph's records: the
// link and adjacency entry the A* reads on every expansion, and the node
// and tile records the graph keeps one of per node and per triangle.
func TestPackedRecordSizes(t *testing.T) {
	for _, r := range []struct {
		name      string
		got, want uintptr
	}{
		{"Link", unsafe.Sizeof(Link{}), 32},
		{"Adjacent", unsafe.Sizeof(Adjacent{}), 12},
		{"Node", unsafe.Sizeof(Node{}), 48},
		{"Tile", unsafe.Sizeof(Tile{}), 56},
	} {
		if r.got != r.want {
			t.Errorf("%s is %d bytes, want %d", r.name, r.got, r.want)
		}
	}
}

// TestBuildRejectsTooManyLayers pins that a layer count past Link.Layer's
// int16 range fails with ErrGraphTooLarge instead of wrapping.
func TestBuildRejectsTooManyLayers(t *testing.T) {
	d, err := design.GenerateDense("dense1")
	if err != nil {
		t.Fatal(err)
	}
	d.WireLayers = math.MaxInt16 + 1
	plan := &viaplan.Plan{Layers: make([]viaplan.LayerPlan, d.WireLayers)}
	g, err := Build(d, plan, Options{Workers: 1})
	if !errors.Is(err, ErrGraphTooLarge) || g != nil {
		t.Fatalf("Build with %d wire layers = %v, %v; want ErrGraphTooLarge", d.WireLayers, g, err)
	}
}
