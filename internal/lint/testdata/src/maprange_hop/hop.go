// Sabotage fixture for the transitive hazard rule: outside the engine
// packages, a map range is flagged when the surrounding function
// schedules engine events or writes report output — directly, or any
// number of statically resolved calls away.
package maprangehop

import (
	"fmt"
	"io"
	"sort"

	"spiderfs/internal/sim"
)

type job struct {
	name string
	at   sim.Time
}

// direct: the range and the eng.At live in the same function.
func scheduleAll(eng *sim.Engine, jobs map[string]sim.Time, done func(string)) {
	for name, at := range jobs { // want ordered-map-range
		n := name
		eng.At(at, func() { done(n) })
	}
}

func kick(eng *sim.Engine, j job) {
	eng.After(j.at, func() {})
}

// one hop: the range feeds kick, which schedules.
func scheduleViaHelper(eng *sim.Engine, jobs map[string]sim.Time) {
	for name, at := range jobs { // want ordered-map-range
		kick(eng, job{name: name, at: at})
	}
}

// report writing counts as a sink too.
func dump(w io.Writer, counts map[string]int) {
	for name, n := range counts { // want ordered-map-range
		fmt.Fprintf(w, "%s %d\n", name, n)
	}
}

func middle(eng *sim.Engine, j job) {
	kick(eng, j)
}

// two hops: range -> middle -> kick -> eng.After. The fixpoint
// propagation sees through any depth; the diagnostic spells the path
// scheduleTwoHops → middle → kick → sim.Engine.After.
func scheduleTwoHops(eng *sim.Engine, jobs map[string]sim.Time) {
	for name, at := range jobs { // want ordered-map-range
		middle(eng, job{name: name, at: at})
	}
}

// annotated: order-insensitivity argued at the site.
func countThenReport(w io.Writer, counts map[string]int) {
	total := 0
	for _, n := range counts { //simlint:allow ordered-map-range commutative sum; emission below is a single aggregate line
		total += n
	}
	fmt.Fprintf(w, "total %d\n", total)
}

// sorted-keys rewrite: the deterministic shape the check pushes toward.
func dumpSorted(w io.Writer, counts map[string]int) {
	names := make([]string, 0, len(counts))
	for name := range counts { //simlint:allow ordered-map-range keys are sorted before any output happens
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%s %d\n", name, counts[name])
	}
}

// Stands in for the callers and readers a fixture package does not load.
var _ = []any{scheduleAll, scheduleViaHelper, dump, scheduleTwoHops, countThenReport, dumpSorted, func(j job) string { return j.name }}
