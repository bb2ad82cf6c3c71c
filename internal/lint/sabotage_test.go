package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The PR 2 regression, reconstructed in memory: a tracker that
// schedules completion events straight out of a Go map range. Same
// model, same seed — but the engine sees a different scheduling order
// every run, so traces diverge. simlint must refuse it.
const sabotageSrc = `package sabotage

import "spiderfs/internal/sim"

type Tracker struct {
	eng     *sim.Engine
	pending map[string]sim.Time
}

func (t *Tracker) scheduleCompletions(done func(string)) {
	for name, at := range t.pending {
		n := name
		t.eng.At(at, func() { done(n) })
	}
}

var _ = (*Tracker).scheduleCompletions
`

// The ordered-registry rewrite PR 2 shipped: an insertion-ordered
// slice is the scheduling source; the map (if any) is only a lookup
// index. Zero diagnostics.
const orderedSrc = `package sabotage

import "spiderfs/internal/sim"

type item struct {
	name string
	at   sim.Time
}

type Tracker struct {
	eng   *sim.Engine
	order []item            // insertion-ordered registry drives scheduling
	index map[string]int    // lookup only, never ranged
}

func (t *Tracker) scheduleCompletions(done func(string)) {
	for _, it := range t.order {
		n := it.name
		t.eng.At(it.at, func() { done(n) })
	}
}

func (t *Tracker) lookup(name string) item { return t.order[t.index[name]] }

var _ = []any{(*Tracker).scheduleCompletions, (*Tracker).lookup}
`

// TestSabotageMapRangeScheduling mirrors the PR 2 sabotage-validation
// pattern: the map-range version of the completion scheduler must trip
// ordered-map-range, and the ordered-registry rewrite must be clean —
// so reverting that fix can never land silently again.
func TestSabotageMapRangeScheduling(t *testing.T) {
	m := loadRepo(t)

	pkg, err := m.TypecheckSource("spiderfs/internal/sabotage", map[string]string{
		"sabotage.go": sabotageSrc,
	})
	if err != nil {
		t.Fatalf("TypecheckSource: %v", err)
	}
	diags := m.RunPackage(pkg, Checks())
	if len(diags) != 1 {
		t.Fatalf("sabotage package: got %d diagnostics %v, want exactly 1", len(diags), diags)
	}
	d := diags[0]
	if d.Check != "ordered-map-range" {
		t.Fatalf("check = %s, want ordered-map-range", d.Check)
	}
	if !strings.Contains(d.Message, "schedules engine events") {
		t.Fatalf("message should name the scheduling hazard: %q", d.Message)
	}

	fixed, err := m.TypecheckSource("spiderfs/internal/sabotage", map[string]string{
		"ordered.go": orderedSrc,
	})
	if err != nil {
		t.Fatalf("TypecheckSource(fixed): %v", err)
	}
	if diags := m.RunPackage(fixed, Checks()); len(diags) != 0 {
		t.Fatalf("ordered rewrite should be clean, got %v", diags)
	}
}

// TestSabotageTransitivePath is the whole-program upgrade's sharpest
// regression: a map range three calls from the scheduler, with the
// diagnostic spelling the full chain. The one-hop analyzer this
// replaced was provably blind here.
func TestSabotageTransitivePath(t *testing.T) {
	m := loadRepo(t)
	pkg, err := m.TypecheckSource("spiderfs/internal/sabotage", map[string]string{
		"deep.go": `package sabotage

import "spiderfs/internal/sim"

type entry struct{ at sim.Time }

func arm(eng *sim.Engine, e entry)   { eng.At(e.at, func() {}) }
func relay(eng *sim.Engine, e entry) { arm(eng, e) }
func stage(eng *sim.Engine, e entry) { relay(eng, e) }

func drain(eng *sim.Engine, pending map[string]sim.Time) {
	for _, at := range pending {
		stage(eng, entry{at: at})
	}
}
`,
	})
	if err != nil {
		t.Fatalf("TypecheckSource: %v", err)
	}
	diags := m.RunPackage(pkg, []*Check{checkOrderedMapRange})
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics %v, want exactly 1", len(diags), diags)
	}
	msg := diags[0].Message
	for _, want := range []string{"schedules engine events", "drain → stage → relay → arm → sim.Engine.At"} {
		if !strings.Contains(msg, want) {
			t.Errorf("diagnostic %q missing %q", msg, want)
		}
	}
}

// TestSabotageCallbackHandOff pins the calleeOf fix: a hazardous method
// handed off as a method value (never called directly) still taints the
// handing function.
func TestSabotageCallbackHandOff(t *testing.T) {
	m := loadRepo(t)
	pkg, err := m.TypecheckSource("spiderfs/internal/sabotage", map[string]string{
		"handoff.go": `package sabotage

import "spiderfs/internal/sim"

type trig struct{ eng *sim.Engine }

func (t *trig) fire(at sim.Time) { t.eng.At(at, func() {}) }

func each(ats []sim.Time, f func(sim.Time)) {
	for _, at := range ats {
		f(at)
	}
}

func (t *trig) flush(pending map[string]sim.Time) {
	for _, at := range pending {
		each([]sim.Time{at}, t.fire)
	}
}
`,
	})
	if err != nil {
		t.Fatalf("TypecheckSource: %v", err)
	}
	diags := m.RunPackage(pkg, []*Check{checkOrderedMapRange})
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics %v, want exactly 1 (the handed-off callback must be an edge)", len(diags), diags)
	}
	if !strings.Contains(diags[0].Message, "flush → fire → sim.Engine.At") {
		t.Errorf("diagnostic %q should spell the hand-off path", diags[0].Message)
	}
}

// TestSabotageShardIsolation seeds a captured cross-worker write into
// an in-memory copy of the real internal/sweep sources and asserts
// shard-isolation refuses it — so the replica pool's own-slot rule
// cannot be bypassed silently, even by code living inside the package.
func TestSabotageShardIsolation(t *testing.T) {
	m := loadRepo(t)
	paths, err := filepath.Glob("../sweep/*.go")
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]string{}
	for _, p := range paths {
		if strings.HasSuffix(p, "_test.go") {
			continue
		}
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatalf("reading real sweep source: %v", err)
		}
		files[filepath.Base(p)] = string(src)
	}
	if len(files) == 0 {
		t.Fatal("no internal/sweep sources found")
	}

	// The unmodified copy must be clean: the real worker pool writes
	// only its own out[i] slot.
	clean, err := m.TypecheckSource("spiderfs/internal/sweep", files)
	if err != nil {
		t.Fatalf("TypecheckSource(clean): %v", err)
	}
	if diags := m.RunPackage(clean, []*Check{checkShardIsolation}); len(diags) != 0 {
		t.Fatalf("pristine internal/sweep copy should be clean, got %v", diags)
	}

	// Sabotage: a failed-replica tally accumulated straight across
	// worker goroutines, in whatever order they happen to finish.
	files["sabotage.go"] = `package sweep

import "sync"

func racyErrorTally(out []Replica) int {
	var total int
	var wg sync.WaitGroup
	for _, r := range out {
		wg.Add(1)
		go func(r Replica) {
			defer wg.Done()
			if r.Err != "" {
				total++
			}
		}(r)
	}
	wg.Wait()
	return total
}
`
	sab, err := m.TypecheckSource("spiderfs/internal/sweep", files)
	if err != nil {
		t.Fatalf("TypecheckSource(sabotage): %v", err)
	}
	diags := m.RunPackage(sab, []*Check{checkShardIsolation})
	if len(diags) != 1 {
		t.Fatalf("seeded captured write: got %d diagnostics %v, want exactly 1", len(diags), diags)
	}
	d := diags[0]
	if d.Check != "shard-isolation" || d.File != "sabotage.go" {
		t.Fatalf("diagnostic %v should be shard-isolation in sabotage.go", d)
	}
	if !strings.Contains(d.Message, "total") || !strings.Contains(d.Message, "own slot") {
		t.Errorf("message %q should name the captured target and state the own-slot rule", d.Message)
	}
}

// TestSabotageSingleCheckSelection proves checks run independently: the
// same sabotage source is silent when only an unrelated check runs.
func TestSabotageSingleCheckSelection(t *testing.T) {
	m := loadRepo(t)
	pkg, err := m.TypecheckSource("spiderfs/internal/sabotage", map[string]string{
		"sabotage.go": sabotageSrc,
	})
	if err != nil {
		t.Fatal(err)
	}
	if diags := m.RunPackage(pkg, []*Check{checkNoWallclock}); len(diags) != 0 {
		t.Fatalf("no-wallclock alone should be silent here, got %v", diags)
	}
	if diags := m.RunPackage(pkg, []*Check{checkOrderedMapRange}); len(diags) != 1 {
		t.Fatalf("ordered-map-range alone should fire once, got %v", diags)
	}
}

// TestSabotageTestOnlyExport adds a mechanism that only its own test
// calls — the shape of the dead paper mechanisms test-only-export was
// written to keep deleted — and asserts the check refuses it, while a
// non-test caller in the package clears it.
func TestSabotageTestOnlyExport(t *testing.T) {
	m := loadRepo(t)
	const spread = `package sabotage

import "spiderfs/internal/stats"

// Spread is the p90-p10 band of xs.
func Spread(xs []float64) float64 {
	return stats.Percentile(xs, 0.9) - stats.Percentile(xs, 0.1)
}
`
	const spreadTest = `package sabotage

import "testing"

func TestSpread(t *testing.T) {
	if Spread([]float64{1, 2, 3}) <= 0 {
		t.Fatal("empty band")
	}
}
`
	pkg, err := m.TypecheckSource("spiderfs/internal/sabotage", map[string]string{
		"spread.go":      spread,
		"spread_test.go": spreadTest,
	})
	if err != nil {
		t.Fatalf("TypecheckSource: %v", err)
	}
	diags := m.RunPackage(pkg, Checks())
	if len(diags) != 1 {
		t.Fatalf("test-only export: got %d diagnostics %v, want exactly 1", len(diags), diags)
	}
	if d := diags[0]; d.Check != "test-only-export" || d.File != "spread.go" || !strings.Contains(d.Message, "Spread") {
		t.Fatalf("diagnostic %v should be test-only-export naming Spread in spread.go", d)
	}

	wired, err := m.TypecheckSource("spiderfs/internal/sabotage", map[string]string{
		"spread.go":      spread,
		"spread_test.go": spreadTest,
		"report.go": `package sabotage

import "fmt"

func report(xs []float64) string { return fmt.Sprintf("band %.1f", Spread(xs)) }

var _ = report
`,
	})
	if err != nil {
		t.Fatalf("TypecheckSource(wired): %v", err)
	}
	if diags := m.RunPackage(wired, Checks()); len(diags) != 0 {
		t.Fatalf("Spread with a non-test caller should be clean, got %v", diags)
	}
}

// TestSabotageUntestedOracle replays how netsim's Network.Sync outlived
// its tests: a test-only-export directive says the solver tests call
// it, then those tests stop calling it. The allow still suppresses a
// real diagnostic, so only the debt gate's by-name check can name it.
func TestSabotageUntestedOracle(t *testing.T) {
	m := loadRepo(t)
	const network = `package sabotage

type Network struct{ active []int }

func (n *Network) Start(f int) { n.active = append(n.active, f) }

// Sync brings every active flow's accounting up to date.
//
//simlint:allow test-only-export settles counters so the solver tests can read them mid-transfer
func (n *Network) Sync() { n.active = n.active[:0] }

func run() { (&Network{}).Start(1) }
`
	gate := func(test string) []string {
		t.Helper()
		pkg, err := m.TypecheckSource("spiderfs/internal/sabotage", map[string]string{
			"flow.go":      network,
			"flow_test.go": test,
		})
		if err != nil {
			t.Fatalf("TypecheckSource: %v", err)
		}
		report := m.debtOver([]*Package{pkg})
		return GateDebt(report.Baseline(), report)
	}
	if fails := gate(`package sabotage

import "testing"

func TestMidTransfer(t *testing.T) {
	n := &Network{}
	n.Start(1)
	n.Sync()
}
`); len(fails) != 0 {
		t.Fatalf("Sync with a test that calls it should pass the gate, got %v", fails)
	}
	fails := gate(`package sabotage

import "testing"

func TestStart(t *testing.T) { (&Network{}).Start(1) }
`)
	if len(fails) != 1 || !strings.Contains(fails[0], "flow.go") || !strings.Contains(fails[0], "keeps Sync") {
		t.Fatalf("Sync with no test left should fail the gate once, naming it, got %v", fails)
	}
}

// TestSabotageWriteOnlyField plants a running total into an in-memory
// copy of the real internal/stats, the shape of the Summary.Sum that
// every observation added to and nothing read, and asserts that
// test-only-export names it. The copy's exports and fields have no
// readers outside it, so the planted copy is judged against the
// pristine one: exactly one diagnostic more.
func TestSabotageWriteOnlyField(t *testing.T) {
	m := loadRepo(t)
	paths, err := filepath.Glob("../stats/*.go")
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]string{}
	for _, p := range paths {
		if strings.HasSuffix(p, "_test.go") {
			continue
		}
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatalf("reading real stats source: %v", err)
		}
		files[filepath.Base(p)] = string(src)
	}
	messages := func(files map[string]string) map[string]int {
		t.Helper()
		pkg, err := m.TypecheckSource("spiderfs/internal/stats", files)
		if err != nil {
			t.Fatalf("TypecheckSource: %v", err)
		}
		got := map[string]int{}
		for _, d := range m.RunPackage(pkg, Checks()) {
			got[d.Check+": "+d.Message]++
		}
		return got
	}
	pristine := messages(files)

	src := files["stats.go"]
	planted := strings.Replace(src, "\tm2       float64\n", "\tm2       float64\n\ttotal    float64\n", 1)
	planted = strings.Replace(planted, "\ts.N++\n", "\ts.N++\n\ts.total += x\n", 1)
	if strings.Count(planted, "total") != strings.Count(src, "total")+2 {
		t.Fatal("stats.Summary changed shape; re-anchor the planted field")
	}
	files["stats.go"] = planted
	var extra []string
	for msg, n := range messages(files) {
		for ; n > pristine[msg]; n-- {
			extra = append(extra, msg)
		}
	}
	if len(extra) != 1 || !strings.Contains(extra[0], "test-only-export: field Summary.total is never read") {
		t.Fatalf("planted write-only field: got extra diagnostics %q, want exactly one naming Summary.total", extra)
	}
}
