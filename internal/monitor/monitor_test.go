package monitor

import (
	"testing"

	"spiderfs/internal/lustre"
	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
	"spiderfs/internal/topology"
)

func TestSchedulerRunsAndAlertsOnTransitions(t *testing.T) {
	eng := sim.NewEngine()
	s := NewScheduler(eng)
	level := OK
	s.Add(Check{
		Name:     "probe",
		Interval: sim.Second,
		Fn:       func() Status { return Status{level, "msg"} },
	})
	s.Start()
	eng.RunUntil(3 * sim.Second)
	if s.Runs != 3 {
		t.Fatalf("runs = %d, want 3", s.Runs)
	}
	if len(s.Alerts) != 0 {
		t.Fatalf("steady OK produced %d alerts", len(s.Alerts))
	}
	level = Critical
	eng.RunUntil(5 * sim.Second)
	if len(s.Alerts) != 1 {
		t.Fatalf("transition produced %d alerts, want 1", len(s.Alerts))
	}
	a := s.Alerts[0]
	if a.From != OK || a.To != Critical || a.Check != "probe" {
		t.Fatalf("alert = %+v", a)
	}
	if s.CurrentLevel("probe") != Critical || s.WorstLevel() != Critical {
		t.Fatal("level tracking broken")
	}
	level = OK
	eng.RunUntil(7 * sim.Second)
	if len(s.Alerts) != 2 {
		t.Fatalf("recovery not alerted: %d", len(s.Alerts))
	}
	s.Stop()
	runs := s.Runs
	eng.RunUntil(20 * sim.Second)
	if s.Runs != runs {
		t.Fatal("scheduler kept running after Stop")
	}
}

func TestSchedulerRejectsInvalidCheck(t *testing.T) {
	eng := sim.NewEngine()
	s := NewScheduler(eng)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	s.Add(Check{Name: "", Interval: sim.Second, Fn: func() Status { return Status{} }})
}

func TestCoalescerGroupsAssociatedEvents(t *testing.T) {
	// The §IV-A scenario: a disk timeout cascades into Lustre errors
	// seconds later; the tooling must present one incident with a
	// hardware root cause.
	c := &Coalescer{}
	c.Ingest(Event{At: 0, Component: "enc3", Class: Hardware, Kind: "disk-timeout"})
	c.Ingest(Event{At: 2 * sim.Second, Component: "ost41", Class: Software, Kind: "ost-io-error"})
	c.Ingest(Event{At: 4 * sim.Second, Component: "oss5", Class: Software, Kind: "client-evict"})
	// A separate, purely software incident well outside the window.
	c.Ingest(Event{At: 60 * sim.Second, Component: "mds0", Class: Software, Kind: "lbug"})
	c.Close()

	if len(c.Incidents) != 2 {
		t.Fatalf("incidents = %d, want 2", len(c.Incidents))
	}
	first := c.Incidents[0]
	if len(first.Events) != 3 {
		t.Fatalf("first incident has %d events", len(first.Events))
	}
	if first.RootClass != Hardware {
		t.Fatalf("first incident root = %v, want hardware", first.RootClass)
	}
	if len(first.Components) != 3 {
		t.Fatalf("components = %v", first.Components)
	}
	second := c.Incidents[1]
	if second.RootClass != Software || len(second.Events) != 1 {
		t.Fatalf("second incident = %+v", second)
	}
}

func TestCoalescerChainExtension(t *testing.T) {
	// Events each within window of the previous extend one incident.
	c := &Coalescer{}
	for i := 0; i < 10; i++ {
		c.Ingest(Event{At: sim.Time(i) * 4 * sim.Second, Component: "x", Class: Software, Kind: "e"})
	}
	c.Close()
	if len(c.Incidents) != 1 {
		t.Fatalf("chained events split into %d incidents", len(c.Incidents))
	}
}

func TestTimeSeriesBounded(t *testing.T) {
	ts := &TimeSeries{Name: "x"}
	for i := 0; i < maxSeriesPoints+5; i++ {
		ts.Add(sim.Time(i), float64(i))
	}
	if len(ts.Points) != maxSeriesPoints {
		t.Fatalf("series len = %d", len(ts.Points))
	}
	if ts.Last() != maxSeriesPoints+4 {
		t.Fatalf("last = %f", ts.Last())
	}
	if v := ts.Points[0].Value; v != 5 {
		t.Fatalf("oldest kept value = %v, want 5", v)
	}
}

func TestControllerPollerRecordsRates(t *testing.T) {
	eng := sim.NewEngine()
	fs := lustre.Build(eng, lustre.TestNamespace(), rng.New(1))
	store := NewStore()
	p := NewControllerPoller(eng, store, fs.Ctrls, 100*sim.Millisecond)

	client := lustre.NewClient(0, topology.Coord{}, fs, lustre.NullTransport{Eng: eng})
	var file *lustre.File
	fs.Create("data", 4, func(f *lustre.File) { file = f })
	eng.RunUntil(10 * sim.Millisecond)
	client.WriteStream(file, 64<<20, 1<<20, nil)
	eng.RunUntil(2 * sim.Second)
	p.Stop()
	eng.Run()

	if p.Samples < 15 {
		t.Fatalf("poller sampled %d times in 2s at 100ms", p.Samples)
	}
	bps := store.Series("ctrl0.write_bps")
	var peak float64
	for _, pt := range bps.Points {
		if pt.Value > peak {
			peak = pt.Value
		}
	}
	if peak <= 0 {
		t.Fatal("poller never saw write traffic")
	}
	// 64 MiB moved within ~2s: peak sampled rate should be plausible
	// (tens of MB/s at least).
	if peak < 10e6 {
		t.Fatalf("peak write rate %g implausibly low", peak)
	}
	if len(store.Names()) < 3 {
		t.Fatalf("store has %v", store.Names())
	}
}

func TestStandardChecksFire(t *testing.T) {
	eng := sim.NewEngine()
	fs := lustre.Build(eng, lustre.TestNamespace(), rng.New(2))
	s := NewScheduler(eng)
	for _, c := range StandardChecks(fs) {
		s.Add(c)
	}
	s.Start()
	eng.RunUntil(30 * sim.Second)
	if s.WorstLevel() != OK {
		t.Fatalf("idle system worst level = %v", s.WorstLevel())
	}
	// Push fill over the warning threshold.
	for _, ost := range fs.OSTs {
		ost.SetFill(0.75)
	}
	eng.RunUntil(45 * sim.Second)
	if s.CurrentLevel(fs.Name+".fill") != Warning {
		t.Fatalf("fill check = %v at 75%% full", s.CurrentLevel(fs.Name+".fill"))
	}
	for _, ost := range fs.OSTs {
		ost.SetFill(0.95)
	}
	eng.RunUntil(60 * sim.Second)
	if s.CurrentLevel(fs.Name+".fill") != Critical {
		t.Fatalf("fill check = %v at 95%% full", s.CurrentLevel(fs.Name+".fill"))
	}
	s.Stop()
}

func TestLevelAndClassStrings(t *testing.T) {
	if OK.String() != "OK" || Warning.String() != "WARNING" || Critical.String() != "CRITICAL" {
		t.Fatal("level strings")
	}
	if Hardware.String() != "hardware" || Software.String() != "software" {
		t.Fatal("class strings")
	}
}
