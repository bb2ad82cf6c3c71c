package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
)

// Handler returns the service's HTTP API:
//
//	POST /v1/sessions              submit a spec; 202 + session snapshot,
//	                               or 429 + Retry-After when shedding
//	GET  /v1/sessions/{id}         poll a session snapshot
//	GET  /v1/sessions/{id}/events  chunked progress stream (ndjson),
//	                               ?seq=N resumes past the first N events
//	GET  /v1/sessions/{id}/report  final report (202 while running)
//	GET  /v1/sessions/{id}/ledger  session operations-ledger export
//	                               (202 while running, 404 for kinds
//	                               that keep none)
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

func writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, `{"error":"encoding failure"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(append(data, '\n'))
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
	writeJSON(w, http.StatusAccepted, sess.Snapshot())
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
	enc := json.NewEncoder(w)
	for {
		tail, terminal := sess.EventsSince(seq)
		for _, ev := range tail {
			if err := enc.Encode(ev); err != nil {
				return // client went away
			}
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

func (s *Service) handleReport(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookup(w, r)
	if !ok {
		return
	}
	snap := sess.Snapshot()
	switch snap.State {
	case StateDone:
		rep, _ := sess.Report()
		data, err := rep.JSON()
		if err != nil {
			writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(data)
	case StateFailed:
		writeJSON(w, http.StatusUnprocessableEntity, apiError{Error: snap.Error})
	default:
		writeJSON(w, http.StatusAccepted, snap)
	}
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
	snap := sess.Snapshot()
	switch snap.State {
	case StateDone:
		rep, _ := sess.Report()
		if rep.Ledger == nil {
			writeJSON(w, http.StatusNotFound,
				apiError{Error: rep.Kind + " sessions keep no operations ledger"})
			return
		}
		writeJSON(w, http.StatusOK, rep.Ledger)
	case StateFailed:
		writeJSON(w, http.StatusUnprocessableEntity, apiError{Error: snap.Error})
	default:
		writeJSON(w, http.StatusAccepted, snap)
	}
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats(r.URL.Query().Get("sessions") != ""))
}
