package serve

import (
	"fmt"
	"sync"
)

// Session states, in lifecycle order.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// Event is one progress record of a session: admission, execution
// start (annotated cold/warm/cache-hit), per-wave progress, and the
// terminal transition. Seq is the event's index in the session's
// stream, so a poller can resume from where its last read ended.
type Event struct {
	Seq   int    `json:"seq"`
	State string `json:"state"`
	Note  string `json:"note,omitempty"`
}

// Session is one submitted spec moving through the service. All fields
// behind mu; the cond broadcasts every append so progress streams wake
// without polling.
type Session struct {
	// ID is the service-assigned session identifier.
	ID string
	// Token is the session's service-plane random token, drawn from the
	// isolated rng.New(cfg.Seed).Split("serve/<session-id>") stream.
	Token uint64
	// Spec is the normalized spec (canonical; Spec.Key() is the cache key).
	Spec Spec

	mu     sync.Mutex
	cond   *sync.Cond
	state  string
	events []Event
	report *Report
	errmsg string
	cached bool // answered from the result cache
	warm   bool // executed on a pooled (reused) instance
	latNs  int64
}

func newSession(id string, token uint64, spec Spec) *Session {
	s := &Session{ID: id, Token: token, Spec: spec, state: StateQueued}
	s.cond = sync.NewCond(&s.mu)
	s.append(StateQueued, "")
	return s
}

// append records an event in the session's current state. Callers that
// change state set it first (under mu via the helpers below).
func (s *Session) append(state, note string) {
	s.events = append(s.events, Event{Seq: len(s.events), State: state, Note: note})
	s.cond.Broadcast()
}

// start transitions queued -> running, annotated with the execution
// path ("cold", "warm", or "cache").
func (s *Session) start(path string) {
	s.mu.Lock()
	s.state = StateRunning
	s.append(StateRunning, path)
	s.mu.Unlock()
}

// note records mid-run progress (wave completions).
func (s *Session) note(msg string) {
	s.mu.Lock()
	s.append(StateRunning, msg)
	s.mu.Unlock()
}

// finish publishes the report and transitions to done.
func (s *Session) finish(rep *Report, cached, warm bool, latNs int64) {
	s.mu.Lock()
	s.state = StateDone
	s.report = rep
	s.cached = cached
	s.warm = warm
	s.latNs = latNs
	s.append(StateDone, "fingerprint "+rep.Fingerprint)
	s.mu.Unlock()
}

// fail transitions to failed with the error message.
func (s *Session) fail(msg string, latNs int64) {
	s.mu.Lock()
	s.state = StateFailed
	s.errmsg = msg
	s.latNs = latNs
	s.append(StateFailed, msg)
	s.mu.Unlock()
}

// Snapshot is a point-in-time view of a session, shaped for the JSON
// the poll endpoint serves.
type Snapshot struct {
	ID     string  `json:"id"`
	Token  string  `json:"token"`
	Key    string  `json:"key"`
	State  string  `json:"state"`
	Events int     `json:"events"`
	Cached bool    `json:"cached,omitempty"`
	Warm   bool    `json:"warm,omitempty"`
	Error  string  `json:"error,omitempty"`
	Report *Report `json:"report,omitempty"`
}

// Snapshot returns the session's current view.
func (s *Session) Snapshot() Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Snapshot{
		ID: s.ID, Token: fmt.Sprintf("%016x", s.Token), Key: s.Spec.Key(),
		State: s.state, Events: len(s.events),
		Cached: s.cached, Warm: s.warm, Error: s.errmsg, Report: s.report,
	}
}

// LatencyNs returns the session's recorded execution wall latency —
// worker pickup to terminal state — or 0 when the service has no clock
// or the session is not terminal yet. The bench harness reads this.
func (s *Session) LatencyNs() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.latNs
}

// Report returns the final report once done, or (nil, false).
func (s *Session) Report() (*Report, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.report, s.report != nil
}

// EventsSince blocks until the session has events past seq (or is
// terminal), then returns the new tail and whether the session is
// terminal. A progress stream calls this in a loop: each call returns
// at least one event until the terminal event has been delivered.
func (s *Session) EventsSince(seq int) ([]Event, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	seq = max(seq, 0)
	for len(s.events) <= seq && s.state != StateDone && s.state != StateFailed {
		s.cond.Wait()
	}
	seq = min(seq, len(s.events))
	tail := make([]Event, len(s.events)-seq)
	copy(tail, s.events[seq:])
	return tail, s.state == StateDone || s.state == StateFailed
}
