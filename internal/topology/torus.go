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

// axisDist returns the wraparound distance and step direction (+1/-1)
// along one axis of length n.
func axisDist(a, b, n int) (dist, dir int) {
	fwd := (b - a + n) % n
	bwd := n - fwd
	if fwd == 0 {
		return 0, 0
	}
	if fwd <= bwd {
		return fwd, +1
	}
	return bwd, -1
}

// Distance returns the minimal hop count between a and b (wraparound
// Manhattan distance).
func (t Torus) Distance(a, b Coord) int {
	dx, _ := axisDist(a.X, b.X, t.NX)
	dy, _ := axisDist(a.Y, b.Y, t.NY)
	dz, _ := axisDist(a.Z, b.Z, t.NZ)
	return dx + dy + dz
}

// Walk visits the dimension-ordered route from a to b (excluding a,
// including b) without allocating — the form hot path construction in
// netsim uses, where a []Coord per transfer would dominate allocations.
func (t Torus) Walk(a, b Coord, visit func(Coord)) {
	cur := a
	step := func(axis byte) {
		var n, dist, dir int
		switch axis {
		case 'x':
			n = t.NX
			dist, dir = axisDist(cur.X, b.X, n)
		case 'y':
			n = t.NY
			dist, dir = axisDist(cur.Y, b.Y, n)
		case 'z':
			n = t.NZ
			dist, dir = axisDist(cur.Z, b.Z, n)
		}
		for i := 0; i < dist; i++ {
			switch axis {
			case 'x':
				cur.X = (cur.X + dir + n) % n
			case 'y':
				cur.Y = (cur.Y + dir + n) % n
			case 'z':
				cur.Z = (cur.Z + dir + n) % n
			}
			visit(cur)
		}
	}
	step('x')
	step('y')
	step('z')
}
