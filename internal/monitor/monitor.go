// Package monitor implements the operational monitoring layer of §IV-A:
// a Nagios-style check scheduler with alert transitions, the Lustre
// Health Checker's event coalescing (grouping associated errors from a
// failure into one incident and discriminating hardware from software
// root causes), and DDN-tool-style controller pollers that record
// time-series into an in-memory store.
package monitor

import (
	"fmt"
	"sort"

	"spiderfs/internal/sim"
)

// Level is a check severity.
type Level int

// Severity levels, ordered.
const (
	OK Level = iota
	Warning
	Critical
)

func (l Level) String() string {
	switch l {
	case OK:
		return "OK"
	case Warning:
		return "WARNING"
	case Critical:
		return "CRITICAL"
	default:
		return fmt.Sprintf("level(%d)", int(l))
	}
}

// Status is a check result.
type Status struct {
	Level   Level
	Message string
}

// Check is a periodic probe of one aspect of the system.
type Check struct {
	Name     string
	Interval sim.Time
	Fn       func() Status
}

// Alert records a level transition of a check.
type Alert struct {
	At      sim.Time
	Check   string
	From    Level
	To      Level
	Message string
}

// Scheduler runs checks on their intervals and records level
// transitions as alerts (steady states don't re-alert, as in Nagios).
type Scheduler struct {
	eng    *sim.Engine
	checks []Check
	level  map[string]Level

	Alerts  []Alert
	Runs    uint64
	stopped bool
}

// NewScheduler builds an idle scheduler.
func NewScheduler(eng *sim.Engine) *Scheduler {
	return &Scheduler{eng: eng, level: map[string]Level{}}
}

// Add registers a check. Call before Start.
func (s *Scheduler) Add(c Check) {
	if c.Interval <= 0 || c.Fn == nil || c.Name == "" {
		panic("monitor: invalid check") //simlint:allow no-library-panic caller-contract assertion: invalid input is a caller bug, not a runtime failure
	}
	s.checks = append(s.checks, c)
}

// Start begins periodic execution of all registered checks.
func (s *Scheduler) Start() {
	for _, c := range s.checks {
		s.schedule(c)
	}
}

// Stop halts future check executions.
func (s *Scheduler) Stop() { s.stopped = true }

func (s *Scheduler) schedule(c Check) {
	s.eng.After(c.Interval, func() {
		if s.stopped {
			return
		}
		s.Runs++
		st := c.Fn()
		prev := s.level[c.Name]
		if st.Level != prev {
			s.Alerts = append(s.Alerts, Alert{
				At: s.eng.Now(), Check: c.Name, From: prev, To: st.Level, Message: st.Message,
			})
			s.level[c.Name] = st.Level
		}
		s.schedule(c)
	})
}

// WorstLevel returns the highest current severity across checks.
func (s *Scheduler) WorstLevel() Level {
	worst := OK
	for _, l := range s.level {
		if l > worst {
			worst = l
		}
	}
	return worst
}

// EventClass discriminates physical-hardware events from Lustre
// software events — the distinction the OLCF health tooling was built to
// surface (§IV-A: "discriminate between hardware events and Lustre
// software issues").
type EventClass int

// Event classes.
const (
	Hardware EventClass = iota
	Software
)

func (c EventClass) String() string {
	if c == Hardware {
		return "hardware"
	}
	return "software"
}

// Event is one raw log line from a server, controller, or fabric.
type Event struct {
	At        sim.Time
	Component string // e.g. "oss12", "ctrl3", "ib-leaf7"
	Class     EventClass
	Kind      string // e.g. "disk-timeout", "ost-evict", "hca-error"
}

// Incident is a coalesced group of associated events.
type Incident struct {
	Start, End sim.Time
	Events     []Event
	// RootClass is Hardware if any hardware event participates (a
	// hardware fault explains the software fallout, not vice versa).
	RootClass  EventClass
	Components []string
}

// coalesceWindow is how close in time two events must be to belong to
// one incident: long enough for a disk timeout's Lustre fallout (OST
// I/O errors, client evictions) to land seconds later, short enough
// that unrelated faults stay apart.
const coalesceWindow = 30 * sim.Second

// Coalescer groups events arriving within coalesceWindow of each other
// into one incident. The zero value is ready to use.
type Coalescer struct {
	open      *Incident
	Incidents []Incident
}

// Ingest adds an event; events must arrive in time order.
func (c *Coalescer) Ingest(ev Event) {
	if c.open != nil && ev.At-c.open.End <= coalesceWindow {
		c.open.Events = append(c.open.Events, ev)
		c.open.End = ev.At
		if ev.Class == Hardware {
			c.open.RootClass = Hardware
		}
		return
	}
	c.Close()
	c.open = &Incident{Start: ev.At, End: ev.At, Events: []Event{ev}, RootClass: ev.Class}
}

// Close finalizes any open incident (call at end of stream).
func (c *Coalescer) Close() {
	if c.open == nil {
		return
	}
	seen := map[string]bool{}
	for _, e := range c.open.Events {
		seen[e.Component] = true
	}
	for comp := range seen {
		c.open.Components = append(c.open.Components, comp)
	}
	sort.Strings(c.open.Components)
	c.Incidents = append(c.Incidents, *c.open)
	c.open = nil
}
