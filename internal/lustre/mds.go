package lustre

import "spiderfs/internal/sim"

// MDSConfig sets the metadata server's service profile. Lustre (pre-DNE)
// supports a single MDS per namespace — the central scaling limit that
// drove OLCF to multiple namespaces (Lesson 10). Stat is its one knob:
// the stripe-count ablation shrinks it to expose the OSS glimpse cost.
type MDSConfig struct {
	Stat sim.Time
}

// The rest of the production-class MDS profile (~20k creates/s, ~50k
// stats/s peak).
const (
	mdsThreads = 8
	mdsCreate  = 400 * sim.Microsecond
	mdsUnlink  = 300 * sim.Microsecond
	mdsMkdir   = 250 * sim.Microsecond
	mdsLookup  = 80 * sim.Microsecond
)

// Spider2MDS returns the production-class MDS profile.
func Spider2MDS() MDSConfig {
	return MDSConfig{Stat: 150 * sim.Microsecond}
}

// MDS is the metadata server of one namespace.
type MDS struct {
	cfg MDSConfig
	srv *sim.Server

	Creates, Stats, Unlinks, Mkdirs, Lookups uint64
}

// NewMDS builds an MDS on eng.
func NewMDS(eng *sim.Engine, cfg MDSConfig) *MDS {
	return &MDS{cfg: cfg, srv: sim.NewServer(eng, "mds", mdsThreads)}
}

// Utilization reports the MDS thread-pool busy fraction — the saturation
// signal for the single-vs-multiple namespace experiment.
func (m *MDS) Utilization() float64 { return m.srv.Utilization() }

// QueueLen reports queued metadata operations.
func (m *MDS) QueueLen() int { return m.srv.QueueLen() }

// MeanWait reports the mean metadata op queueing delay.
func (m *MDS) MeanWait() sim.Time { return m.srv.MeanWait() }

// Ops returns the total operations served.
func (m *MDS) Ops() uint64 {
	return m.Creates + m.Stats + m.Unlinks + m.Mkdirs + m.Lookups
}

func (m *MDS) create(done func()) { m.Creates++; m.srv.Submit(mdsCreate, done) }
func (m *MDS) stat(done func())   { m.Stats++; m.srv.Submit(m.cfg.Stat, done) }
func (m *MDS) unlink(done func()) { m.Unlinks++; m.srv.Submit(mdsUnlink, done) }
func (m *MDS) mkdir(done func())  { m.Mkdirs++; m.srv.Submit(mdsMkdir, done) }
func (m *MDS) lookup(done func()) { m.Lookups++; m.srv.Submit(mdsLookup, done) }
