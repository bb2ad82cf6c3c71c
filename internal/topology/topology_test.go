package topology

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestIndexCoordRoundTrip(t *testing.T) {
	tor := Torus{NX: 5, NY: 4, NZ: 3}
	f := func(raw uint16) bool {
		i := int(raw) % tor.Nodes()
		return tor.Index(tor.CoordOf(i)) == i
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDistanceWraparound(t *testing.T) {
	tor := Torus{NX: 10, NY: 10, NZ: 10}
	// 0 -> 9 along X is 1 hop via wraparound, not 9.
	if d := tor.Distance(Coord{0, 0, 0}, Coord{9, 0, 0}); d != 1 {
		t.Fatalf("wrap distance = %d, want 1", d)
	}
	if d := tor.Distance(Coord{0, 0, 0}, Coord{5, 0, 0}); d != 5 {
		t.Fatalf("half-way distance = %d, want 5", d)
	}
	if d := tor.Distance(Coord{1, 2, 3}, Coord{1, 2, 3}); d != 0 {
		t.Fatalf("self distance = %d", d)
	}
}

func TestDistanceSymmetric(t *testing.T) {
	tor := TitanTorus()
	f := func(a, b uint16) bool {
		ca := tor.CoordOf(int(a) % tor.Nodes())
		cb := tor.CoordOf(int(b) % tor.Nodes())
		return tor.Distance(ca, cb) == tor.Distance(cb, ca)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// bruteHop steps from a round a ring of n positions, one hop at a time
// each way, and returns the signed hop count of the shorter way to b (a
// tie going +).
func bruteHop(a, b, n int) int {
	fwd, bwd := 0, 0
	for p := a; p != b; p = (p + 1) % n {
		fwd++
	}
	for p := a; p != b; p = (p + n - 1) % n {
		bwd++
	}
	if fwd <= bwd {
		return fwd
	}
	return -bwd
}

// Hops and Distance on every pair of nodes of every cubic torus up to
// 8 on a side (odd and even, including the 1- and 2-position rings),
// checked against brute-force stepping along each axis.
func TestHopsMatchBruteForce(t *testing.T) {
	for n := 1; n <= 8; n++ {
		tor := Torus{NX: n, NY: n, NZ: n}
		for i := 0; i < tor.Nodes(); i++ {
			a := tor.CoordOf(i)
			for j := 0; j < tor.Nodes(); j++ {
				b := tor.CoordOf(j)
				want := Coord{bruteHop(a.X, b.X, n), bruteHop(a.Y, b.Y, n), bruteHop(a.Z, b.Z, n)}
				if h := tor.Hops(a, b); h != want {
					t.Fatalf("n=%d: Hops(%v, %v) = %v, want %v", n, a, b, h, want)
				}
				if d, want := tor.Distance(a, b), abs(want.X)+abs(want.Y)+abs(want.Z); d != want {
					t.Fatalf("n=%d: Distance(%v, %v) = %d, want %d", n, a, b, d, want)
				}
			}
		}
	}
}

// FuzzTorusHops: on any ring of 1 to 64 positions, the signed hop count
// from a lands on b, is no longer than the other way round, and takes
// the + way on a tie.
func FuzzTorusHops(f *testing.F) {
	for _, seed := range [][3]uint8{{0, 0, 0}, {1, 0, 1}, {23, 0, 12}, {24, 13, 1}, {63, 5, 40}} {
		f.Add(seed[0], seed[1], seed[2])
	}
	f.Fuzz(func(t *testing.T, rawN, rawA, rawB uint8) {
		n := 1 + int(rawN)%64
		a, b := int(rawA)%n, int(rawB)%n
		h := Torus{NX: n, NY: 1, NZ: 1}.Hops(Coord{X: a}, Coord{X: b})
		if h.Y != 0 || h.Z != 0 {
			t.Fatalf("n=%d: %d -> %d moves along a 1-position axis: %v", n, a, b, h)
		}
		if ((a+h.X)%n+n)%n != b {
			t.Fatalf("n=%d: %d + %d hops does not land on %d", n, a, h.X, b)
		}
		if m := abs(h.X); 2*m > n || (2*m == n && h.X < 0) {
			t.Fatalf("n=%d: %d -> %d takes %d hops, not the short way (+ on a tie)", n, a, b, h.X)
		}
	})
}

func TestTitanDims(t *testing.T) {
	tor := TitanTorus()
	if tor.Nodes() != 25*16*24 {
		t.Fatalf("titan nodes = %d", tor.Nodes())
	}
	grid := TitanCabinets()
	if grid.Cabinets() != 200 {
		t.Fatalf("cabinets = %d", grid.Cabinets())
	}
}

func TestPlaceRoutersSpiderConfig(t *testing.T) {
	p := PlaceRouters(TitanCabinets(), TitanTorus(), 110, 9)
	if len(p.Modules) != 110 {
		t.Fatalf("modules = %d", len(p.Modules))
	}
	// 440 distinct router IDs.
	seen := map[int]bool{}
	for _, m := range p.Modules {
		for _, r := range m.RouterIDs {
			if seen[r] {
				t.Fatalf("duplicate router id %d", r)
			}
			seen[r] = true
		}
	}
	if len(seen) != 440 {
		t.Fatalf("routers = %d, want 440", len(seen))
	}
	// Every group is populated and group count respected.
	counts := map[int]int{}
	for _, m := range p.Modules {
		if m.Group < 0 || m.Group >= 9 {
			t.Fatalf("module group %d out of range", m.Group)
		}
		counts[m.Group]++
	}
	if len(counts) != 9 {
		t.Fatalf("populated groups = %d, want 9", len(counts))
	}
	for g, c := range counts {
		if c < 8 || c > 18 {
			t.Fatalf("group %d has %d modules; want roughly balanced (~12)", g, c)
		}
	}
	// Modules must be inside the torus and on valid cabinets.
	for _, m := range p.Modules {
		if !p.Torus.Contains(m.Coord) {
			t.Fatalf("module coord %v outside torus", m.Coord)
		}
		if m.Col < 0 || m.Col >= 25 || m.Row < 0 || m.Row >= 8 {
			t.Fatalf("module cabinet (%d,%d) invalid", m.Col, m.Row)
		}
	}
}

func TestGroupZonesAreColumnBands(t *testing.T) {
	p := PlaceRouters(TitanCabinets(), TitanTorus(), 110, 9)
	// Group must be nondecreasing in X.
	prev := -1
	for x := 0; x < 25; x++ {
		g := p.GroupOf(Coord{X: x})
		if g < prev {
			t.Fatalf("group not monotone in X at %d", x)
		}
		prev = g
	}
}

func TestPlacementReducesDistance(t *testing.T) {
	good := PlaceRouters(TitanCabinets(), TitanTorus(), 110, 9)
	// A clumped placement: all modules in the first few cabinets.
	clumped := good
	clumped.Modules = append([]IOModule(nil), good.Modules...)
	for i := range clumped.Modules {
		clumped.Modules[i].Coord = Coord{X: 0, Y: 0, Z: i % 24}
	}
	dGood := good.MeanClientRouterDistance(false)
	dClumped := clumped.MeanClientRouterDistance(false)
	if dGood >= dClumped {
		t.Fatalf("spread placement (%f) should beat clumped (%f)", dGood, dClumped)
	}
	if dGood > 6 {
		t.Fatalf("mean client-router distance %f too large for 110 modules", dGood)
	}
}

func TestFGRGroupRestrictionCostsLittle(t *testing.T) {
	p := PlaceRouters(TitanCabinets(), TitanTorus(), 110, 9)
	free := p.MeanClientRouterDistance(false)
	zoned := p.MeanClientRouterDistance(true)
	if zoned < free {
		t.Fatalf("restricting choice cannot reduce distance: zoned=%f free=%f", zoned, free)
	}
	// The whole point of zone banding: the restriction should cost well
	// under 2x.
	if zoned > 2*free+1 {
		t.Fatalf("zone restriction too costly: zoned=%f free=%f", zoned, free)
	}
}

func TestNearestModule(t *testing.T) {
	p := PlaceRouters(TitanCabinets(), TitanTorus(), 10, 2)
	m, d := p.NearestModule(p.Modules[3].Coord, nil)
	if d != 0 || m.Coord != p.Modules[3].Coord {
		t.Fatalf("nearest to a module coord should be itself (d=%d)", d)
	}
}

func TestRenderXYMap(t *testing.T) {
	p := PlaceRouters(TitanCabinets(), TitanTorus(), 110, 9)
	out := p.RenderXYMap()
	if !strings.Contains(out, "110 modules (440 routers) in 9 groups") {
		t.Fatalf("map summary missing:\n%s", out)
	}
	if strings.Count(out, "\n") < 9 {
		t.Fatalf("map should have one line per row:\n%s", out)
	}
	// At least one group letter appears.
	if !strings.ContainsAny(out, "ABCDEFGHI") {
		t.Fatalf("no group letters in map:\n%s", out)
	}
}

func TestBadCoordPanics(t *testing.T) {
	tor := Torus{NX: 2, NY: 2, NZ: 2}
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	tor.Index(Coord{5, 0, 0})
}
