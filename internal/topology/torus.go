// Package topology provides the geometric substrate of the Titan/Spider
// integration: the Gemini 3D torus, the cabinet grid it is folded into,
// and the placement of Lustre I/O routers onto that grid (the subject of
// Fig. 2 and Lesson 14 in the paper).
package topology

import "fmt"

// Coord is a position in a 3D torus.
type Coord struct{ X, Y, Z int }

func (c Coord) String() string { return fmt.Sprintf("(%d,%d,%d)", c.X, c.Y, c.Z) }

// Torus is a 3D torus with wraparound links in every dimension.
type Torus struct{ NX, NY, NZ int }

// TitanTorus returns Titan's Gemini torus dimensions (25 x 16 x 24
// Gemini ASICs; each ASIC fronts two compute nodes).
func TitanTorus() Torus { return Torus{NX: 25, NY: 16, NZ: 24} }

// Nodes returns the number of torus positions.
func (t Torus) Nodes() int { return t.NX * t.NY * t.NZ }

// Contains reports whether c is a valid coordinate.
func (t Torus) Contains(c Coord) bool {
	return c.X >= 0 && c.X < t.NX && c.Y >= 0 && c.Y < t.NY && c.Z >= 0 && c.Z < t.NZ
}

// Index linearizes a coordinate.
func (t Torus) Index(c Coord) int {
	if !t.Contains(c) {
		panic(fmt.Sprintf("topology: coord %v outside torus %dx%dx%d", c, t.NX, t.NY, t.NZ)) //simlint:allow no-library-panic caller-contract assertion: invalid input is a caller bug, not a runtime failure
	}
	return (c.X*t.NY+c.Y)*t.NZ + c.Z
}

// CoordOf inverts Index.
func (t Torus) CoordOf(i int) Coord {
	if i < 0 || i >= t.Nodes() {
		panic("topology: index out of range") //simlint:allow no-library-panic caller-contract assertion: invalid input is a caller bug, not a runtime failure
	}
	z := i % t.NZ
	i /= t.NZ
	y := i % t.NY
	x := i / t.NY
	return Coord{x, y, z}
}

// hop returns the signed minimal hop count from a to b on a ring of n
// positions. A tie (b exactly half-way round) goes the + way: the
// dimension-order rule fwd <= n-fwd that Titan's routes and distances
// share, and the one place it is written.
func hop(a, b, n int) int {
	fwd := b - a
	if fwd < 0 {
		fwd += n
	}
	if 2*fwd > n {
		return fwd - n
	}
	return fwd
}

// Hops returns the signed per-axis hop counts of the minimal
// dimension-ordered route from a to b: stepping a by h.X along X (with
// wraparound), then h.Y along Y, then h.Z along Z, lands on b.
func (t Torus) Hops(a, b Coord) Coord {
	return Coord{hop(a.X, b.X, t.NX), hop(a.Y, b.Y, t.NY), hop(a.Z, b.Z, t.NZ)}
}

// Distance returns the minimal hop count between a and b (wraparound
// Manhattan distance): the length of the route Hops describes.
func (t Torus) Distance(a, b Coord) int {
	return abs(hop(a.X, b.X, t.NX)) + abs(hop(a.Y, b.Y, t.NY)) + abs(hop(a.Z, b.Z, t.NZ))
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
