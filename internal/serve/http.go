package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"sync"
)

// Handler returns the service's HTTP API:
//
//	POST /v1/sessions              submit a spec; 202 + the admission
//	                               snapshot (queued, one event, no
//	                               report, even for a cache hit), or
//	                               429 + Retry-After when shedding
//	GET  /v1/sessions/{id}         poll a session snapshot
//	GET  /v1/sessions/{id}/events  chunked progress stream (ndjson),
//	                               ?seq=N resumes past the first N events
//	GET  /v1/sessions/{id}/report  final report (202 while running)
//	GET  /v1/sessions/{id}/ledger  session operations-ledger export, the
//	                               ledger's one endpoint (202 while
//	                               running, 404 for kinds that keep none)
//	GET  /v1/stats                 service counters; ?sessions=1 lists
//	                               the retained sessions
//
// Every response is JSON; no handler blocks past its own session's
// bounded execution (submission itself never blocks at all). A finished
// session's endpoints answer 404, like an unknown ID's, once
// retainFinished (1,024) newer sessions have finished; resubmitting its
// spec answers the report from the result cache while the cache holds
// it.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", s.handleSubmit)
	mux.HandleFunc("GET /v1/sessions/{id}", s.handleSession)
	mux.HandleFunc("GET /v1/sessions/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/sessions/{id}/report", s.handleReport)
	mux.HandleFunc("GET /v1/sessions/{id}/ledger", s.handleLedger)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	return mux
}

// maxPooledBuffer bounds the buffer an encoder may keep in the pool. A
// quick chaos session's ledger is 23–132 KB of indented JSON and reuses
// its buffer; a rarer, larger document is encoded into a buffer that is
// then dropped, so the pool never pins its size between requests.
const maxPooledBuffer = 1 << 20

// encoder is one reusable pair of JSON encoders over one buffer: doc
// writes an indented document, exactly json.MarshalIndent(v, "", "  ")
// plus "\n" (both escape HTML, and indenting keeps the newline), and
// line writes one compact ndjson line.
type encoder struct {
	buf       bytes.Buffer
	doc, line *json.Encoder
}

var encoders = sync.Pool{New: func() any {
	e := new(encoder)
	e.doc = json.NewEncoder(&e.buf)
	e.doc.SetIndent("", "  ")
	e.line = json.NewEncoder(&e.buf)
	return e
}}

// getEncoder returns a pooled encoder with an empty buffer. The bytes it
// encodes are valid until putEncoder: a caller that keeps them copies
// them out first.
func getEncoder() *encoder {
	e := encoders.Get().(*encoder)
	e.buf.Reset()
	return e
}

func putEncoder(e *encoder) {
	if e.buf.Cap() <= maxPooledBuffer {
		encoders.Put(e)
	}
}

// writeJSON is the one encode path of every JSON document the API
// serves: v is encoded into a pooled buffer and written with one Write.
// A value that does not encode answers 500 with a JSON apiError.
func writeJSON(w http.ResponseWriter, status int, v any) {
	e := getEncoder()
	defer putEncoder(e)
	if err := e.doc.Encode(v); err != nil {
		status = http.StatusInternalServerError
		// An apiError always encodes, and a failed Encode writes nothing.
		_ = e.doc.Encode(apiError{Error: "encoding failure: " + err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(e.buf.Bytes())
}

type apiError struct {
	Error string `json:"error"`
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "bad spec: " + err.Error()})
		return
	}
	sess, err := s.Submit(spec)
	if err != nil {
		var busy ErrBusy
		if errors.As(err, &busy) {
			w.Header().Set("Retry-After", strconv.Itoa(busy.RetryAfter))
			writeJSON(w, http.StatusTooManyRequests, apiError{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusAccepted, sess.admission())
}

func (s *Service) lookup(w http.ResponseWriter, r *http.Request) (*Session, bool) {
	sess, ok := s.Session(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "unknown session " + r.PathValue("id")})
	}
	return sess, ok
}

func (s *Service) handleSession(w http.ResponseWriter, r *http.Request) {
	if sess, ok := s.lookup(w, r); ok {
		writeJSON(w, http.StatusOK, sess.Snapshot())
	}
}

// handleEvents streams the session's progress events as
// newline-delimited JSON, flushing each chunk, until the terminal
// event has been delivered. ?seq=N skips the first N events (resume);
// a seq that is not a count of events, 0 or more, is a 400.
func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookup(w, r)
	if !ok {
		return
	}
	seq := 0
	if q := r.URL.Query().Get("seq"); q != "" {
		n, err := strconv.Atoi(q)
		if err == nil && n < 0 {
			// The stream counts delivered events from seq, so a negative
			// start would resend the first ones until the count caught up.
			err = errors.New("negative")
		}
		if err != nil {
			writeJSON(w, http.StatusBadRequest, apiError{Error: "bad seq: " + err.Error()})
			return
		}
		seq = n
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	for {
		tail, terminal := sess.EventsSince(seq)
		if err := writeLines(w, tail); err != nil {
			return // client went away
		}
		seq += len(tail)
		if flusher != nil {
			flusher.Flush()
		}
		if terminal {
			// The terminal transition appends its event before the state
			// flips, so a terminal read has already delivered everything.
			return
		}
	}
}

// writeLines writes a batch of events as ndjson lines with one Write,
// encoded into a pooled buffer.
func writeLines(w http.ResponseWriter, events []Event) error {
	e := getEncoder()
	defer putEncoder(e)
	for i := range events {
		// An Event always encodes. Passing a pointer to the element
		// puts no copy of the Event on the heap.
		_ = e.line.Encode(&events[i])
	}
	_, err := w.Write(e.buf.Bytes())
	return err
}

func (s *Service) handleReport(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookup(w, r)
	if !ok {
		return
	}
	rep, snap := result(sess)
	switch {
	case rep != nil:
		writeJSON(w, http.StatusOK, rep)
	case snap.State == StateFailed:
		writeJSON(w, http.StatusUnprocessableEntity, apiError{Error: snap.Error})
	default:
		writeJSON(w, http.StatusAccepted, snap)
	}
}

// result reads a session's report or, while it has none, the snapshot
// a 202 or 422 answers with. The snapshot is one locked read, so a
// session that finishes in between answers with its report. A finished
// session, the common GET, builds no snapshot.
func result(sess *Session) (*Report, Snapshot) {
	if rep, ok := sess.Report(); ok {
		return rep, Snapshot{}
	}
	snap := sess.Snapshot()
	return snap.Report, snap
}

// handleLedger serves the finished session's tamper-evident
// operations-ledger export, ready for `spidersim ledger verify`
// against a trusted root sequence. Sweep sessions keep no ledger and
// answer 404.
func (s *Service) handleLedger(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookup(w, r)
	if !ok {
		return
	}
	rep, snap := result(sess)
	switch {
	case rep != nil:
		if rep.Ledger == nil {
			writeJSON(w, http.StatusNotFound,
				apiError{Error: rep.Kind + " sessions keep no operations ledger"})
			return
		}
		writeJSON(w, http.StatusOK, rep.Ledger)
	case snap.State == StateFailed:
		writeJSON(w, http.StatusUnprocessableEntity, apiError{Error: snap.Error})
	default:
		writeJSON(w, http.StatusAccepted, snap)
	}
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats(r.URL.Query().Get("sessions") != ""))
}
