package lustre

import (
	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
	"spiderfs/internal/spantrace"
	"spiderfs/internal/topology"
)

// Transport carries RPC payloads from a client to an OSS. The lustre
// package ships NullTransport (infinite network, for file-system-level
// studies); internal/center supplies the full Gemini+IB path.
type Transport interface {
	Send(from topology.Coord, oss int, bytes int64, done func())
}

// NullTransport delivers instantly; use it to benchmark the storage
// stack in isolation (the paper's obdfilter-survey level).
type NullTransport struct{ Eng *sim.Engine }

// Send implements Transport.
func (n NullTransport) Send(_ topology.Coord, _ int, _ int64, done func()) {
	n.Eng.After(0, done)
}

// Client is one compute-node Lustre client issuing pipelined RPC
// streams, like an IOR file-per-process rank.
type Client struct {
	ID    int
	Coord topology.Coord
	FS    *FS
	TR    Transport

	// Tracer, when set, samples issued RPCs as spantrace root spans;
	// every layer the request crosses attaches child spans under them.
	Tracer *spantrace.Tracer

	// RPCTimeout, when positive, arms a watchdog on every issued RPC.
	// An RPC still unacknowledged when the watchdog expires counts one
	// timeout and one (modeled) resend, and the watchdog re-arms — so a
	// send stalled behind a dead server or router is visible in the
	// counters even though the simulated RPC eventually replays. Zero
	// disables the watchdog.
	RPCTimeout sim.Time

	// BackoffSrc, when set, jitters backed-off re-arm delays by ±25% so
	// a thundering herd of stalled clients desynchronizes. Only
	// backed-off arms draw from it — the first watchdog of every RPC
	// uses RPCTimeout exactly, so a client that never stalls consumes
	// nothing from the stream (determinism isolation).
	BackoffSrc *rng.Source

	BytesWritten int64
	BytesRead    int64
	RPCsSent     uint64
	// RPCTimeouts counts watchdog expirations (stalled sends);
	// RPCRetries counts the resends those expirations model.
	RPCTimeouts uint64
	RPCRetries  uint64
	// BackoffWaits counts expirations of backed-off (longer-than-base)
	// watchdogs; BackoffWait accumulates the extra delay they waited
	// beyond RPCTimeout.
	BackoffWaits uint64
	BackoffWait  sim.Time

	idle []*rpc // reusable RPC records, at most rpcWindow
}

// Every client runs Lustre's stock RPC pipeline.
const (
	// rpcWindow is the number of RPCs a stream keeps in flight (Lustre's
	// max_rpcs_in_flight, default 8).
	rpcWindow = 8
	// maxRPC caps the wire RPC size (1 MiB in Lustre of the Spider II
	// era): application transfers larger than this are split, which is
	// why Fig. 3 plateaus past 1 MiB rather than improving.
	maxRPC = 1 << 20
)

// backoffCapFactor bounds the exponential watchdog backoff: each
// consecutive expiration of the same RPC doubles the re-arm delay up to
// backoffCapFactor x RPCTimeout, so a long server outage costs O(log)
// retries instead of one every RPCTimeout.
const backoffCapFactor = 8

// NewClient builds a client at the given torus coordinate.
func NewClient(id int, coord topology.Coord, fs *FS, tr Transport) *Client {
	return &Client{ID: id, Coord: coord, FS: fs, TR: tr}
}

// stream drives one pipelined RPC stream.
type stream struct {
	c           *Client
	f           *File
	xfer        int64
	total       int64 // 0 means unbounded (stonewall-only)
	deadline    sim.Time
	hasDeadline bool
	write       bool
	random      bool

	issued    int64
	acked     int64
	inFlight  int
	stopped   bool
	done      func(bytes int64)
	stripeIdx int
}

func (s *stream) pump() {
	eng := s.c.FS.eng
	for s.inFlight < rpcWindow && !s.stopped {
		if s.total > 0 && s.issued >= s.total {
			break
		}
		if s.hasDeadline && eng.Now() >= s.deadline {
			s.stopped = true
			break
		}
		size := min(s.xfer, maxRPC)
		if s.total > 0 && s.issued+size > s.total {
			size = s.total - s.issued
		}
		s.issue(size)
	}
	if s.inFlight == 0 {
		finished := s.total > 0 && s.acked >= s.total
		timedOut := s.stopped || (s.hasDeadline && eng.Now() >= s.deadline)
		if finished || timedOut {
			if s.done != nil {
				d := s.done
				s.done = nil
				d(s.acked)
			}
		}
	}
}

func (s *stream) issue(size int64) {
	s.issued += size
	s.inFlight++
	c := s.c
	c.RPCsSent++
	i := s.stripeIdx % len(s.f.OSTIndices)
	s.stripeIdx++
	r := c.takeRPC()
	r.s, r.size, r.obj = s, size, s.f.Objects[i]
	r.ossIdx = c.FS.ostOSS[s.f.OSTIndices[i]]
	r.oss = c.FS.OSSes[r.ossIdx]
	// Sample the RPC as a spantrace root. ctx is the request context
	// threaded to deeper layers: the root span when sampled, NoSpan when
	// this request was considered and skipped (suppresses fabric
	// self-sampling), 0 when tracing is off entirely.
	tr := c.Tracer
	r.span, r.ctx = 0, 0
	if tr != nil {
		op := "rpc-read"
		if s.write {
			op = "rpc-write"
		}
		r.span = tr.SampleRoot(spantrace.Client, op, size)
		r.ctx = r.span
		if r.ctx == 0 {
			r.ctx = spantrace.NoSpan
		}
	}
	r.watchdog = sim.Event{}
	if c.RPCTimeout > 0 {
		r.delay = c.RPCTimeout
		r.arm()
	}
	// Each synchronous call boundary is bracketed with Swap so deeper
	// layers see this RPC as their parent context; deferred callbacks
	// re-install the captured context before descending further.
	old := tr.Swap(r.ctx)
	if s.write {
		c.TR.Send(c.Coord, r.ossIdx, size, r.onSent)
	} else {
		// Read: request travels to the OSS, data is produced, and the
		// payload returns over the same fabric path class.
		r.oss.Service(size, r.onServed)
	}
	tr.Swap(old)
}

// rpc is one RPC in flight: its stream, size, target, trace context,
// watchdog and backoff delay. A client keeps up to rpcWindow idle
// records and reuses them; each record's callbacks are bound once, so
// a steady-state RPC allocates nothing.
type rpc struct {
	c      *Client
	s      *stream
	size   int64
	obj    *Object
	ossIdx int
	oss    *OSS
	span   spantrace.SpanID
	ctx    spantrace.SpanID

	watchdog sim.Event
	delay    sim.Time // base delay of the next watchdog arm
	armed    sim.Time // delay of the armed watchdog, jitter included

	// r.sent, r.served, r.fetched, r.complete and r.expire, bound once.
	onSent, onServed, onFetched, onComplete, onExpire func()
}

// takeRPC returns an idle record of c, or a new one.
func (c *Client) takeRPC() *rpc {
	if n := len(c.idle); n > 0 {
		r := c.idle[n-1]
		c.idle = c.idle[:n-1]
		return r
	}
	r := &rpc{c: c}
	r.onSent, r.onServed, r.onFetched, r.onComplete, r.onExpire = r.sent, r.served, r.fetched, r.complete, r.expire
	return r
}

// arm schedules the watchdog at the current backoff delay.
func (r *rpc) arm() {
	c := r.c
	d := r.delay
	if d > c.RPCTimeout && c.BackoffSrc != nil {
		// ±25% deterministic jitter, drawn only on backed-off arms so
		// unstalled clients touch no rng stream.
		d = d - d/4 + sim.Time(c.BackoffSrc.Float64()*float64(d/2))
	}
	r.armed = d
	r.watchdog = c.FS.eng.After(d, r.onExpire)
}

// expire counts a stalled send and re-arms with a doubled delay.
func (r *rpc) expire() {
	c := r.c
	c.RPCTimeouts++
	c.RPCRetries++
	if r.armed > c.RPCTimeout {
		c.BackoffWaits++
		c.BackoffWait += r.armed - c.RPCTimeout
	}
	c.Tracer.Mark(spantrace.Client, "rpc-retry", r.span, r.size, "")
	if r.delay *= 2; r.delay > backoffCapFactor*c.RPCTimeout {
		r.delay = backoffCapFactor * c.RPCTimeout
	}
	r.arm()
}

// sent runs a write's OSS service once its payload has arrived.
func (r *rpc) sent() {
	old := r.c.Tracer.Swap(r.ctx)
	r.oss.Service(r.size, r.onServed)
	r.c.Tracer.Swap(old)
}

// served hands the RPC to its object: a write acks from the write-back
// cache, a read returns its payload over the transport once fetched.
func (r *rpc) served() {
	old := r.c.Tracer.Swap(r.ctx)
	if r.s.write {
		r.obj.Write(r.size, r.onComplete)
	} else {
		r.obj.Read(r.size, r.s.random, r.onFetched)
	}
	r.c.Tracer.Swap(old)
}

// fetched sends a read's payload back to the client.
func (r *rpc) fetched() {
	c := r.c
	old := c.Tracer.Swap(r.ctx)
	c.TR.Send(c.Coord, r.ossIdx, r.size, r.onComplete)
	c.Tracer.Swap(old)
}

// complete acknowledges the RPC, returns the record to its client's
// idle list and refills the stream's window.
func (r *rpc) complete() {
	r.watchdog.Cancel()
	c, s, size := r.c, r.s, r.size
	c.Tracer.End(r.span)
	if len(c.idle) < rpcWindow {
		r.s, r.obj, r.oss = nil, nil, nil
		c.idle = append(c.idle, r)
	}
	s.inFlight--
	s.acked += size
	if s.write {
		c.BytesWritten += size
		s.f.MTime = c.FS.eng.Now()
	} else {
		c.BytesRead += size
		s.f.ATime = c.FS.eng.Now()
	}
	s.pump()
}

// WriteStream writes total bytes to f in xfer-sized RPCs, round-robin
// across the file's stripes, keeping rpcWindow RPCs in flight. done (may be
// nil) receives the bytes acknowledged.
func (c *Client) WriteStream(f *File, total, xfer int64, done func(int64)) {
	if xfer <= 0 || total <= 0 {
		panic("lustre: WriteStream needs positive sizes") //simlint:allow no-library-panic caller-contract assertion: invalid input is a caller bug, not a runtime failure
	}
	s := &stream{c: c, f: f, xfer: xfer, total: total, write: true, done: done}
	s.pump()
}

// WriteUntil writes xfer-sized RPCs to f until the deadline (stonewall
// mode, as the paper's IOR runs used), then reports bytes acknowledged.
func (c *Client) WriteUntil(f *File, deadline sim.Time, xfer int64, done func(int64)) {
	if xfer <= 0 {
		panic("lustre: WriteUntil needs positive xfer") //simlint:allow no-library-panic caller-contract assertion: invalid input is a caller bug, not a runtime failure
	}
	s := &stream{c: c, f: f, xfer: xfer, deadline: deadline, hasDeadline: true, write: true, done: done}
	s.pump()
}

// ReadStream reads total bytes from f; random selects a seeky access
// pattern (data analytics) versus streaming.
func (c *Client) ReadStream(f *File, total, xfer int64, random bool, done func(int64)) {
	if xfer <= 0 || total <= 0 {
		panic("lustre: ReadStream needs positive sizes") //simlint:allow no-library-panic caller-contract assertion: invalid input is a caller bug, not a runtime failure
	}
	s := &stream{c: c, f: f, xfer: xfer, total: total, random: random, done: done}
	s.pump()
}

// ReadUntil reads until the deadline (stonewall), reporting bytes read.
func (c *Client) ReadUntil(f *File, deadline sim.Time, xfer int64, done func(int64)) {
	if xfer <= 0 {
		panic("lustre: ReadUntil needs positive xfer") //simlint:allow no-library-panic caller-contract assertion: invalid input is a caller bug, not a runtime failure
	}
	s := &stream{c: c, f: f, xfer: xfer, deadline: deadline, hasDeadline: true, done: done}
	s.pump()
}
