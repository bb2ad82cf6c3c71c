package topology

import (
	"fmt"
	"strings"
)

// CabinetGrid is the machine-room view of the torus: Titan's 200
// cabinets stand in 8 rows of 25 columns. Column c maps to torus X=c;
// each row spans two Y coordinates (16 Y positions / 8 rows); the Z
// dimension runs within a cabinet (cages and blades).
type CabinetGrid struct {
	Cols, Rows int
}

// TitanCabinets returns Titan's 25x8 cabinet grid.
func TitanCabinets() CabinetGrid { return CabinetGrid{Cols: 25, Rows: 8} }

// MiniTitan returns the miniature of Titan's I/O fabric that the small
// center and the mini-fabric studies route over: a 5x4x4 torus under a
// 5x2 cabinet grid, with 16 I/O modules (64 routers) in 4 groups.
func MiniTitan() (Torus, Placement) {
	t := Torus{NX: 5, NY: 4, NZ: 4}
	return t, PlaceRouters(CabinetGrid{Cols: 5, Rows: 2}, t, 16, 4)
}

// Cabinets returns the number of cabinets.
func (g CabinetGrid) Cabinets() int { return g.Cols * g.Rows }

// TorusXY returns the torus X and the first of the two torus Y
// coordinates covered by the cabinet at (col, row).
func (g CabinetGrid) TorusXY(col, row int) (x, y int) { return col, row * 2 }

// IOModule is a blade of four I/O (LNET router) nodes. The four routers
// of a module connect to four different InfiniBand leaf switches of the
// module's router group, so a single switch failure degrades rather than
// severs the module.
type IOModule struct {
	Col, Row  int   // cabinet grid position
	Coord     Coord // torus position of the module's Gemini
	Group     int   // router group (~ SSU index block)
	RouterIDs [4]int
}

// Placement is a complete router placement over the machine.
type Placement struct {
	Grid    CabinetGrid
	Torus   Torus
	Groups  int // number of router groups
	Modules []IOModule
}

// SwitchesPerGroup is how many InfiniBand leaf switches serve one router
// group; each module's four routers fan out across all four.
const SwitchesPerGroup = 4

// PlaceRouters computes a topology-aware router placement: nModules I/O
// modules spread across the cabinet grid in a regular lattice, assigned
// to nGroups router groups by contiguous column bands so that every
// group's routers are physically clustered (the paper's "zones"). Router
// IDs are dense in [0, 4*nModules).
//
// This mirrors the published Spider II configuration when called with
// nModules=110, nGroups=9 (440 routers, 36 leaf switches).
func PlaceRouters(grid CabinetGrid, torus Torus, nModules, nGroups int) Placement {
	if nModules <= 0 || nGroups <= 0 {
		panic("topology: need positive module and group counts") //simlint:allow no-library-panic caller-contract assertion: invalid input is a caller bug, not a runtime failure
	}
	p := Placement{Grid: grid, Torus: torus, Groups: nGroups}
	total := grid.Cabinets()
	rid := 0
	for i := 0; i < nModules; i++ {
		// Spread modules across cabinets with a maximal-separation stride.
		cab := (i * total) / nModules
		col := cab % grid.Cols
		row := (cab / grid.Cols) % grid.Rows
		x, y := grid.TorusXY(col, row)
		// Alternate Z within cabinets so modules spread along Z too.
		z := (i * torus.NZ / nModules) % torus.NZ
		m := IOModule{
			Col: col, Row: row,
			Coord: Coord{X: x, Y: y, Z: z},
			Group: groupForColumn(col, grid.Cols, nGroups),
		}
		for k := 0; k < 4; k++ {
			m.RouterIDs[k] = rid
			rid++
		}
		p.Modules = append(p.Modules, m)
	}
	return p
}

// groupForColumn bands the columns into nGroups contiguous zones.
func groupForColumn(col, cols, nGroups int) int {
	g := col * nGroups / cols
	if g >= nGroups {
		g = nGroups - 1
	}
	return g
}

// GroupOf returns the router group of a client coordinate: the zone
// band its X position falls into. FGR clients prefer routers of their
// own zone.
func (p Placement) GroupOf(c Coord) int {
	return groupForColumn(c.X, p.Grid.Cols, p.Groups)
}

// ModulesInGroup returns the modules belonging to group g.
func (p Placement) ModulesInGroup(g int) []IOModule {
	var out []IOModule
	for _, m := range p.Modules {
		if m.Group == g {
			out = append(out, m)
		}
	}
	return out
}

// NearestModule returns the module (in the given slice, or all modules if
// nil) with minimal torus distance from c, and that distance.
func (p Placement) NearestModule(c Coord, among []IOModule) (IOModule, int) {
	if among == nil {
		among = p.Modules
	}
	if len(among) == 0 {
		panic("topology: no modules to choose from") //simlint:allow no-library-panic caller-contract assertion: invalid input is a caller bug, not a runtime failure
	}
	best := among[0]
	bestD := p.Torus.Distance(c, best.Coord)
	for _, m := range among[1:] {
		if d := p.Torus.Distance(c, m.Coord); d < bestD {
			best, bestD = m, d
		}
	}
	return best, bestD
}

// MeanClientRouterDistance computes the mean torus distance from every
// torus position to its nearest router module, optionally restricted to
// the client's own group (the FGR discipline) or any module (free
// choice). This is the objective OLCF optimized when placing routers.
func (p Placement) MeanClientRouterDistance(restrictToGroup bool) float64 {
	sum := 0
	n := 0
	for i := 0; i < p.Torus.Nodes(); i++ {
		c := p.Torus.CoordOf(i)
		var among []IOModule
		if restrictToGroup {
			among = p.ModulesInGroup(p.GroupOf(c))
		}
		_, d := p.NearestModule(c, among)
		sum += d
		n++
	}
	return float64(sum) / float64(n)
}

// Clumped returns a copy of p with every module moved into one cabinet
// column (module i to X=0, Y=0, Z=i mod NZ): the placement Fig. 2's
// spread one is compared against.
func (p Placement) Clumped() Placement {
	c := p
	c.Modules = append([]IOModule(nil), p.Modules...)
	for i := range c.Modules {
		c.Modules[i].Coord = Coord{X: 0, Y: 0, Z: i % p.Torus.NZ}
	}
	return c
}

// RenderXYMap renders the Fig.2-style XY cabinet map: one cell per
// cabinet, '.' for cabinets without I/O modules and the group letter for
// cabinets containing at least one module of that group.
func (p Placement) RenderXYMap() string {
	cell := make(map[[2]int]rune)
	for _, m := range p.Modules {
		key := [2]int{m.Col, m.Row}
		cell[key] = rune('A' + m.Group%26)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Titan I/O router placement (X = column 0..%d, Y = row 0..%d)\n",
		p.Grid.Cols-1, p.Grid.Rows-1)
	for row := p.Grid.Rows - 1; row >= 0; row-- {
		fmt.Fprintf(&b, "Y%-2d ", row)
		for col := 0; col < p.Grid.Cols; col++ {
			if r, ok := cell[[2]int{col, row}]; ok {
				b.WriteRune(r)
			} else {
				b.WriteRune('.')
			}
			b.WriteRune(' ')
		}
		b.WriteRune('\n')
	}
	b.WriteString("    ")
	for col := 0; col < p.Grid.Cols; col++ {
		b.WriteRune(rune('0' + col%10))
		b.WriteRune(' ')
	}
	b.WriteRune('\n')
	fmt.Fprintf(&b, "%d modules (%d routers) in %d groups; letters mark cabinets with I/O modules\n",
		len(p.Modules), 4*len(p.Modules), p.Groups)
	return b.String()
}
