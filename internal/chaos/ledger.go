package chaos

import "spiderfs/internal/sim"

// ComponentStats is one component's availability record over a campaign
// window: how often it failed and how long it was out of service.
type ComponentStats struct {
	Name     string
	Kind     Kind
	Failures int
	Downtime sim.Time

	down      bool
	downSince sim.Time
}

// Ledger accrues per-component downtime during a campaign. The graph
// feeds it down/up transitions; Close settles components still down at
// the end of the window so their open outage is charged.
type Ledger struct {
	eng   *sim.Engine
	order []*ComponentStats
}

// NewLedger builds an empty ledger on eng.
func NewLedger(eng *sim.Engine) *Ledger {
	return &Ledger{eng: eng}
}

// register starts a component's record. The graph refuses a duplicate
// node name, and each node keeps the record it gets here, so the ledger
// needs no index by name.
func (l *Ledger) register(name string, kind Kind) *ComponentStats {
	s := &ComponentStats{Name: name, Kind: kind}
	l.order = append(l.order, s)
	return s
}

func (l *Ledger) down(s *ComponentStats) {
	if s.down {
		return
	}
	s.down = true
	s.downSince = l.eng.Now()
	s.Failures++
}

func (l *Ledger) up(s *ComponentStats) {
	if !s.down {
		return
	}
	s.down = false
	s.Downtime += l.eng.Now() - s.downSince
}

// Close settles open outages at the current time (end of the campaign
// window). Components still down remain marked down; calling Close
// again later accrues only the additional time.
func (l *Ledger) Close() {
	now := l.eng.Now()
	for _, s := range l.order {
		if s.down {
			s.Downtime += now - s.downSince
			s.downSince = now
		}
	}
}

// Stats returns a copy of every component's record, in registration
// order (deterministic).
func (l *Ledger) Stats() []ComponentStats {
	out := make([]ComponentStats, len(l.order))
	for i, s := range l.order {
		out[i] = *s
	}
	return out
}

// KindDowntime sums downtime and failures across components of a kind.
func (l *Ledger) KindDowntime(kind Kind) (components, failures int, downtime sim.Time) {
	for _, s := range l.order {
		if s.Kind != kind {
			continue
		}
		components++
		failures += s.Failures
		downtime += s.Downtime
	}
	return
}
