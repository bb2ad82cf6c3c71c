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

	// Window is the number of RPCs kept in flight (Lustre's
	// max_rpcs_in_flight, default 8).
	Window int

	// MaxRPC caps the wire RPC size (1 MiB in Lustre of the Spider II
	// era): application transfers larger than this are split, which is
	// why Fig. 3 plateaus past 1 MiB rather than improving.
	MaxRPC int64

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

	// RetryBackoffCap bounds the exponential watchdog backoff: each
	// consecutive expiration of the same RPC doubles the re-arm delay up
	// to this cap, so a long server outage costs O(log) retries instead
	// of hammering every RPCTimeout. Zero means 8x RPCTimeout.
	RetryBackoffCap sim.Time

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
}

// backoffCap returns the effective backoff ceiling.
func (c *Client) backoffCap() sim.Time {
	if c.RetryBackoffCap > 0 {
		return c.RetryBackoffCap
	}
	return 8 * c.RPCTimeout
}

// NewClient builds a client at the given torus coordinate.
func NewClient(id int, coord topology.Coord, fs *FS, tr Transport) *Client {
	return &Client{ID: id, Coord: coord, FS: fs, TR: tr, Window: 8, MaxRPC: 1 << 20}
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
	for s.inFlight < s.c.Window && !s.stopped {
		if s.total > 0 && s.issued >= s.total {
			break
		}
		if s.hasDeadline && eng.Now() >= s.deadline {
			s.stopped = true
			break
		}
		size := s.xfer
		if max := s.c.MaxRPC; max > 0 && size > max {
			size = max
		}
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
	s.c.RPCsSent++
	oi := s.f.OSTIndices[s.stripeIdx%len(s.f.OSTIndices)]
	obj := s.f.Objects[s.stripeIdx%len(s.f.OSTIndices)]
	s.stripeIdx++
	ossIdx := s.c.FS.ostOSS[oi]
	oss := s.c.FS.OSSes[ossIdx]
	fs := s.c.FS
	// Sample the RPC as a spantrace root. ctx is the request context
	// threaded to deeper layers: the root span when sampled, NoSpan when
	// this request was considered and skipped (suppresses fabric
	// self-sampling), 0 when tracing is off entirely.
	tr := s.c.Tracer
	var rpcSpan, ctx spantrace.SpanID
	if tr != nil {
		op := "rpc-read"
		if s.write {
			op = "rpc-write"
		}
		rpcSpan = tr.SampleRoot(spantrace.Client, op, size)
		ctx = rpcSpan
		if ctx == 0 {
			ctx = spantrace.NoSpan
		}
	}
	var watchdog sim.Event
	if cl := s.c; cl.RPCTimeout > 0 {
		delay := cl.RPCTimeout
		var arm func()
		arm = func() {
			d := delay
			if d > cl.RPCTimeout && cl.BackoffSrc != nil {
				// ±25% deterministic jitter, drawn only on backed-off
				// arms so unstalled clients touch no rng stream.
				d = d - d/4 + sim.Time(cl.BackoffSrc.Float64()*float64(d/2))
			}
			armed := d
			watchdog = fs.eng.After(d, func() {
				cl.RPCTimeouts++
				cl.RPCRetries++
				if armed > cl.RPCTimeout {
					cl.BackoffWaits++
					cl.BackoffWait += armed - cl.RPCTimeout
				}
				tr.Mark(spantrace.Client, "rpc-retry", rpcSpan, size, "")
				if delay *= 2; delay > cl.backoffCap() {
					delay = cl.backoffCap()
				}
				arm()
			})
		}
		arm()
	}
	complete := func() {
		watchdog.Cancel()
		tr.End(rpcSpan)
		s.inFlight--
		s.acked += size
		if s.write {
			s.c.BytesWritten += size
			s.f.MTime = fs.eng.Now()
		} else {
			s.c.BytesRead += size
			s.f.ATime = fs.eng.Now()
		}
		s.pump()
	}
	// Each synchronous call boundary is bracketed with Swap so deeper
	// layers see this RPC as their parent context; deferred callbacks
	// re-install the captured context before descending further.
	if s.write {
		old := tr.Swap(ctx)
		s.c.TR.Send(s.c.Coord, ossIdx, size, func() {
			o1 := tr.Swap(ctx)
			oss.Service(size, func() {
				o2 := tr.Swap(ctx)
				obj.Write(size, complete)
				tr.Swap(o2)
			})
			tr.Swap(o1)
		})
		tr.Swap(old)
	} else {
		// Read: request travels to the OSS, data is produced, and the
		// payload returns over the same fabric path class.
		old := tr.Swap(ctx)
		oss.Service(size, func() {
			o1 := tr.Swap(ctx)
			obj.Read(size, s.random, func() {
				o2 := tr.Swap(ctx)
				s.c.TR.Send(s.c.Coord, ossIdx, size, complete)
				tr.Swap(o2)
			})
			tr.Swap(o1)
		})
		tr.Swap(old)
	}
}

// WriteStream writes total bytes to f in xfer-sized RPCs, round-robin
// across the file's stripes, keeping Window RPCs in flight. done (may be
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
