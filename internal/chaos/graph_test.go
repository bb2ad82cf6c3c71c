package chaos

import (
	"testing"

	"spiderfs/internal/monitor"
	"spiderfs/internal/sim"
)

// buildTestGraph wires a miniature center slice:
//
//	mds            oss0          grp0  grp1
//	  \             |  \          |     |
//	   ns           |   +-- ost0 -+     |
//	    \           +------- ost1 ------+
//	     (ost0, ost1 also depend on mds)
func buildTestGraph(eng *sim.Engine) *Graph {
	g := NewGraph(eng)
	g.Add("mds", KindMDS)
	g.Add("ns", KindNamespace, "mds")
	g.Add("oss0", KindOSS)
	g.Add("grp0", KindGroup)
	g.Add("grp1", KindGroup)
	g.Add("ost0", KindOST, "grp0", "oss0", "mds")
	g.Add("ost1", KindOST, "grp1", "oss0", "mds")
	return g
}

func TestGraphCascadeDownAndUp(t *testing.T) {
	eng := sim.NewEngine()
	g := buildTestGraph(eng)
	var events []monitor.Event
	g.Events = func(ev monitor.Event) { events = append(events, ev) }

	g.Fail("oss0")
	if !g.Down("oss0") || !g.Down("ost0") || !g.Down("ost1") {
		t.Fatal("OSS failure must take both served OSTs down")
	}
	if g.Down("grp0") || g.Down("ns") || g.Down("mds") {
		t.Fatal("fault leaked to components that do not depend on the OSS")
	}
	if g.Cascades != 2 || len(events) != 2 {
		t.Fatalf("cascades = %d, events = %d, want 2/2", g.Cascades, len(events))
	}
	if events[0].Component != "ost0" || events[1].Component != "ost1" {
		t.Fatalf("cascade order %v, want insertion order ost0, ost1", events)
	}
	g.Recover("oss0")
	if g.Down("oss0") || g.Down("ost0") || g.Down("ost1") {
		t.Fatal("recovery must clear the cascade")
	}
}

// Overlapping faults: an OST with both its group lost and its OSS down
// stays down until BOTH causes clear — the cause-set semantics.
func TestGraphOverlappingCauses(t *testing.T) {
	eng := sim.NewEngine()
	g := buildTestGraph(eng)
	g.Fail("grp0")
	g.Fail("oss0")
	g.Recover("oss0")
	if !g.Down("ost0") {
		t.Fatal("ost0 lost its group; OSS recovery alone must not revive it")
	}
	if g.Down("ost1") {
		t.Fatal("ost1 has no remaining cause")
	}
	g.Recover("grp0")
	if g.Down("ost0") {
		t.Fatal("both causes cleared; ost0 must be up")
	}
}

// A diamond (ns and ost both reach mds; mds failure reaches ost both
// directly and through nothing else) must count one downtime interval,
// not one per path, and double-Fail must be idempotent.
func TestGraphDiamondAndIdempotence(t *testing.T) {
	eng := sim.NewEngine()
	g := buildTestGraph(eng)

	g.Fail("mds")
	g.Fail("mds") // idempotent
	if !g.Down("ns") || !g.Down("ost0") || !g.Down("ost1") {
		t.Fatal("MDS outage must take namespace and OSTs down")
	}
	eng.RunFor(10 * sim.Minute)
	g.Recover("mds")
	for _, s := range g.Stats() {
		switch s.Name {
		case "mds", "ns", "ost0", "ost1":
			if s.Failures != 1 {
				t.Fatalf("%s failures = %d, want exactly 1", s.Name, s.Failures)
			}
			if s.Downtime != 10*sim.Minute {
				t.Fatalf("%s downtime = %v, want 10min", s.Name, s.Downtime)
			}
		default:
			if s.Failures != 0 || s.Downtime != 0 {
				t.Fatalf("%s should be untouched, got %+v", s.Name, s)
			}
		}
	}
}

func TestGraphDownCount(t *testing.T) {
	eng := sim.NewEngine()
	g := buildTestGraph(eng)
	g.Fail("oss0")
	if n := g.downCount(KindOST); n != 2 {
		t.Fatalf("down OSTs = %d, want 2", n)
	}
	if n := g.downCount(KindGroup); n != 0 {
		t.Fatalf("down groups = %d, want 0", n)
	}
}

// Close charges an open outage up to the close point and leaves the
// node down, so closing again at once adds nothing.
func TestGraphCloseSettlesOpenOutage(t *testing.T) {
	eng := sim.NewEngine()
	g := NewGraph(eng)
	g.Add("oss", KindOSS)

	g.Fail("oss")
	eng.RunFor(sim.Minute)
	g.Recover("oss")
	eng.RunFor(sim.Minute)
	g.Fail("oss")
	eng.RunFor(30 * sim.Second)
	g.Close() // open outage settles at the close point

	s := g.Stats()[0]
	if s.Failures != 2 {
		t.Fatalf("failures = %d", s.Failures)
	}
	if s.Downtime != sim.Minute+30*sim.Second {
		t.Fatalf("downtime = %v, want 1.5min", s.Downtime)
	}
	// Close is idempotent-ish: closing again immediately adds nothing.
	g.Close()
	if got := g.Stats()[0].Downtime; got != s.Downtime {
		t.Fatalf("second Close changed downtime: %v -> %v", s.Downtime, got)
	}
}

func TestReportKindsOverGraphStats(t *testing.T) {
	eng := sim.NewEngine()
	g := NewGraph(eng)
	g.Add("ost0", KindOST)
	g.Add("ost1", KindOST)
	g.Fail("ost0")
	eng.RunFor(sim.Minute)
	g.Recover("ost0")
	r := &Report{Window: sim.Hour, Components: g.Stats()}
	ks := r.Kinds()
	if len(ks) != 1 || ks[0].Kind != KindOST {
		t.Fatalf("kinds = %+v, want one OST row", ks)
	}
	if k := ks[0]; k.Components != 2 || k.Failures != 1 || k.Downtime != sim.Minute {
		t.Fatalf("kind rollup = (%d, %d, %v)", k.Components, k.Failures, k.Downtime)
	}
}
