package monitor

import (
	"fmt"
	"sort"

	"spiderfs/internal/lustre"
	"spiderfs/internal/sim"
)

// Point is one time-series sample.
type Point struct {
	At    sim.Time
	Value float64
}

// maxSeriesPoints bounds each series' memory: more than eleven days of
// samples at a 10 s polling interval.
const maxSeriesPoints = 100000

// TimeSeries is a bounded in-memory series (the MySQL store of the DDN
// tool, reduced to what the analyses need).
type TimeSeries struct {
	Name   string
	Points []Point
}

// Add appends a sample, evicting the oldest beyond maxSeriesPoints.
func (ts *TimeSeries) Add(at sim.Time, v float64) {
	ts.Points = append(ts.Points, Point{At: at, Value: v})
	if len(ts.Points) > maxSeriesPoints {
		ts.Points = ts.Points[len(ts.Points)-maxSeriesPoints:]
	}
}

// Last returns the most recent value, or 0 if empty.
//
//simlint:allow test-only-export read-only accessor the series tests assert
func (ts *TimeSeries) Last() float64 {
	if len(ts.Points) == 0 {
		return 0
	}
	return ts.Points[len(ts.Points)-1].Value
}

// Store holds named series.
type Store struct {
	series map[string]*TimeSeries
}

// NewStore builds an empty store.
func NewStore() *Store {
	return &Store{series: map[string]*TimeSeries{}}
}

// Series returns (creating if needed) the named series.
func (s *Store) Series(name string) *TimeSeries {
	ts, ok := s.series[name]
	if !ok {
		ts = &TimeSeries{Name: name}
		s.series[name] = ts
	}
	return ts
}

// Names returns the registered series names, sorted. (The backing
// index is a map; handing callers its iteration order would leak map
// randomization into reports — see the determinism contract.)
//
//simlint:allow test-only-export read-only accessor the poller tests assert
func (s *Store) Names() []string {
	out := make([]string, 0, len(s.series))
	for n := range s.series {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ControllerPoller samples each controller's request counters, inbound
// bytes, and cache dirtiness at a fixed rate — the §IV-A "DDN Tool".
type ControllerPoller struct {
	eng      *sim.Engine
	store    *Store
	ctrls    []*lustre.Controller
	interval sim.Time
	stop     bool
	pending  sim.Event

	lastRPCs  []uint64
	lastBytes []int64
	Samples   uint64
}

// NewControllerPoller starts polling immediately.
func NewControllerPoller(eng *sim.Engine, store *Store, ctrls []*lustre.Controller, interval sim.Time) *ControllerPoller {
	p := &ControllerPoller{
		eng: eng, store: store, ctrls: ctrls, interval: interval,
		lastRPCs: make([]uint64, len(ctrls)), lastBytes: make([]int64, len(ctrls)),
	}
	p.schedule()
	return p
}

func (p *ControllerPoller) schedule() {
	p.pending = p.eng.After(p.interval, func() {
		if p.stop {
			return
		}
		p.Samples++
		secs := p.interval.Seconds()
		for i, c := range p.ctrls {
			rpcs := c.RPCs
			bytes := c.BytesIn
			p.store.Series(fmt.Sprintf("ctrl%d.rpc_rate", i)).Add(p.eng.Now(), float64(rpcs-p.lastRPCs[i])/secs)
			p.store.Series(fmt.Sprintf("ctrl%d.write_bps", i)).Add(p.eng.Now(), float64(bytes-p.lastBytes[i])/secs)
			p.store.Series(fmt.Sprintf("ctrl%d.dirty_bytes", i)).Add(p.eng.Now(), float64(c.Dirty()))
			p.lastRPCs[i] = rpcs
			p.lastBytes[i] = bytes
		}
		p.schedule()
	})
}

// Stop halts polling and cancels the pending tick.
func (p *ControllerPoller) Stop() {
	p.stop = true
	p.pending.Cancel()
}

// StandardChecks returns the check battery OLCF ran against a
// namespace: OST fill (the purge/performance policy), MDS queue depth,
// and controller cache pressure.
func StandardChecks(fs *lustre.FS) []Check {
	return []Check{
		{
			Name:     fs.Name + ".fill",
			Interval: 10 * sim.Second,
			Fn: func() Status {
				f := fs.Fill()
				switch {
				case f > 0.90:
					return Status{Critical, fmt.Sprintf("namespace %.0f%% full", f*100)}
				case f > 0.70:
					return Status{Warning, fmt.Sprintf("namespace %.0f%% full (performance degrades)", f*100)}
				default:
					return Status{OK, "fill nominal"}
				}
			},
		},
		{
			Name:     fs.Name + ".mds",
			Interval: 5 * sim.Second,
			Fn: func() Status {
				q := fs.MDS.QueueLen()
				switch {
				case q > 1000:
					return Status{Critical, fmt.Sprintf("MDS queue %d", q)}
				case q > 100:
					return Status{Warning, fmt.Sprintf("MDS queue %d", q)}
				default:
					return Status{OK, "mds nominal"}
				}
			},
		},
		{
			Name:     fs.Name + ".ctrl-cache",
			Interval: 5 * sim.Second,
			Fn: func() Status {
				worst := 0.0
				for _, c := range fs.Ctrls {
					f := float64(c.Dirty()) / float64(c.Config().CacheBytes)
					if f > worst {
						worst = f
					}
				}
				switch {
				case worst > 0.95:
					return Status{Critical, fmt.Sprintf("controller cache %.0f%% dirty", worst*100)}
				case worst > 0.80:
					return Status{Warning, fmt.Sprintf("controller cache %.0f%% dirty", worst*100)}
				default:
					return Status{OK, "cache nominal"}
				}
			},
		},
	}
}
