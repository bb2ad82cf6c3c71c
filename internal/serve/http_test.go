package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"spiderfs/internal/ledger"
)

func postSpec(t *testing.T, ts *httptest.Server, body string) (*http.Response, Snapshot) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap Snapshot
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			t.Fatal(err)
		}
	} else {
		_, _ = io.Copy(io.Discard, resp.Body)
	}
	return resp, snap
}

// drainEvents reads the ndjson progress stream to EOF (the handler
// closes it after the terminal event) and returns the events.
func drainEvents(t *testing.T, ts *httptest.Server, id string, seq int) []Event {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/sessions/" + id + "/events?seq=" + strconv.Itoa(seq))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("events content-type %q", ct)
	}
	var events []Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return events
}

// TestHTTPSessionLifecycle submits over HTTP, streams progress to the
// terminal event, and byte-compares the served report against the
// one-shot solo run — the API half of the determinism contract.
func TestHTTPSessionLifecycle(t *testing.T) {
	svc := New(Config{Workers: 2, PoolSize: 1, QueueDepth: 8})
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	resp, snap := postSpec(t, ts, `{"kind":"workload","seed":42,"waves":2,"flows":64,"bytes":4e6}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	if snap.ID == "" || snap.Token == "" || snap.Key == "" {
		t.Fatalf("incomplete snapshot %+v", snap)
	}

	events := drainEvents(t, ts, snap.ID, 0)
	if len(events) < 4 { // queued, running, 2 waves, done
		t.Fatalf("only %d events: %+v", len(events), events)
	}
	if events[0].State != StateQueued || events[len(events)-1].State != StateDone {
		t.Fatalf("event stream ends wrong: %+v", events)
	}
	if !strings.HasPrefix(events[len(events)-1].Note, "fingerprint ") {
		t.Fatalf("terminal note %q", events[len(events)-1].Note)
	}
	// Resume from mid-stream: the tail after seq=2 must line up.
	tail := drainEvents(t, ts, snap.ID, 2)
	if len(tail) != len(events)-2 || tail[0].Seq != 2 {
		t.Fatalf("resume tail wrong: %+v", tail)
	}

	// Poll endpoint agrees the session is done.
	poll, err := http.Get(ts.URL + "/v1/sessions/" + snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	var done Snapshot
	if err := json.NewDecoder(poll.Body).Decode(&done); err != nil {
		t.Fatal(err)
	}
	poll.Body.Close()
	if done.State != StateDone || done.Report == nil {
		t.Fatalf("poll after terminal: %+v", done)
	}

	// The served report is byte-identical to the solo run.
	want, err := RunSolo(Spec{Kind: "workload", Seed: 42, Waves: 2, Flows: 64, Bytes: 4e6}, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := want.JSON()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := http.Get(ts.URL + "/v1/sessions/" + snap.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := io.ReadAll(rep.Body)
	rep.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if rep.StatusCode != http.StatusOK {
		t.Fatalf("report status %d: %s", rep.StatusCode, gotJSON)
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("served report differs from solo run:\n%s\nvs\n%s", gotJSON, wantJSON)
	}

	// Stats endpoint lists the session in admission order.
	st, err := http.Get(ts.URL + "/v1/stats?sessions=1")
	if err != nil {
		t.Fatal(err)
	}
	var stats Stats
	if err := json.NewDecoder(st.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	st.Body.Close()
	if stats.Completed != 1 || len(stats.Sessions) != 1 || stats.Sessions[0].ID != snap.ID {
		t.Fatalf("stats: %+v", stats)
	}
}

func TestHTTPErrors(t *testing.T) {
	svc := New(Config{Workers: 1, PoolSize: 1, QueueDepth: 4, Sweeps: toyCatalog()})
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	if resp, _ := postSpec(t, ts, `{"kind":"nonsense"}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown kind: status %d, want 400", resp.StatusCode)
	}
	if resp, _ := postSpec(t, ts, `{not json`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d, want 400", resp.StatusCode)
	}
	if resp, _ := postSpec(t, ts, `{"kind":"workload","seed":7,"waves":1000000}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("over-cap spec: status %d, want 400", resp.StatusCode)
	}
	// A sweep the catalog does not hold is refused at submission, not
	// admitted for a worker to fail.
	if resp, _ := postSpec(t, ts, `{"kind":"sweep","sweep":"nope"}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unregistered sweep: status %d, want 400", resp.StatusCode)
	}
	if n := svc.Stats(false).Submitted; n != 0 {
		t.Fatalf("refused specs counted as submitted: %d", n)
	}
	for _, path := range []string{"/v1/sessions/s-999999", "/v1/sessions/s-999999/events", "/v1/sessions/s-999999/report"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: status %d, want 404", path, resp.StatusCode)
		}
	}

	// A real session with a garbage or negative seq parameter is a 400.
	_, snap := postSpec(t, ts, `{"kind":"workload","seed":7,"waves":1,"flows":16,"bytes":1e6}`)
	for _, seq := range []string{"banana", "-1"} {
		resp, err := http.Get(ts.URL + "/v1/sessions/" + snap.ID + "/events?seq=" + seq)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("seq=%s: status %d, want 400", seq, resp.StatusCode)
		}
	}
	if sess, ok := svc.Session(snap.ID); ok {
		_, _ = sess.wait()
	}
}

// TestHTTPBackpressure429 overflows the admission queue over HTTP and
// demands 429 with a Retry-After header — the shedding contract.
func TestHTTPBackpressure429(t *testing.T) {
	svc := New(Config{Workers: 1, PoolSize: 1, QueueDepth: 1, CacheSize: 0})
	gate := make(chan struct{})
	svc.testGate = func(*Session) { gate <- struct{}{}; <-gate }
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	resp, blocker := postSpec(t, ts, `{"kind":"workload","seed":800,"waves":1,"flows":16,"bytes":1e6}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("blocker status %d", resp.StatusCode)
	}
	<-gate // worker owns the blocker and is parked: the queue slot is free

	if resp, _ := postSpec(t, ts, `{"kind":"workload","seed":801,"waves":1,"flows":16,"bytes":1e6}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("filler status %d", resp.StatusCode)
	}
	resp, _ = postSpec(t, ts, `{"kind":"workload","seed":802,"waves":1,"flows":16,"bytes":1e6}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow status %d, want 429", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After %q, want a positive integer", resp.Header.Get("Retry-After"))
	}

	// Release both admitted sessions so Close has nothing in flight.
	gate <- struct{}{}
	<-gate
	gate <- struct{}{}
	if sess, ok := svc.Session(blocker.ID); ok {
		_, _ = sess.wait()
	}
}

// TestHTTPLedgerEndpoint pulls a finished workload session's
// operations-ledger export, audits it clean, and byte-compares it
// against the solo run's — then checks that sweep sessions (which keep
// no ledger) answer 404.
func TestHTTPLedgerEndpoint(t *testing.T) {
	svc := New(Config{Workers: 1, PoolSize: 1, QueueDepth: 8, Sweeps: toyCatalog()})
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	_, snap := postSpec(t, ts, `{"kind":"workload","seed":42,"waves":2,"flows":64,"bytes":4e6}`)
	sess, ok := svc.Session(snap.ID)
	if !ok {
		t.Fatal("session vanished")
	}
	if _, err := sess.wait(); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/v1/sessions/" + snap.ID + "/ledger")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ledger status %d: %s", resp.StatusCode, body)
	}
	var exp ledger.Export
	if err := json.Unmarshal(body, &exp); err != nil {
		t.Fatalf("ledger export does not decode: %v", err)
	}
	if fs := ledger.Audit(&exp); len(fs) != 0 {
		t.Fatalf("served ledger audit found %v", fs)
	}
	if len(exp.Entries) != 2 || len(exp.Anchors) != 2 {
		t.Fatalf("2-wave session served %d entries in %d anchors, want 2/2",
			len(exp.Entries), len(exp.Anchors))
	}

	// Byte-identical to the solo run's export — the pooled-replay half
	// of the ledger determinism contract.
	want, err := RunSolo(Spec{Kind: "workload", Seed: 42, Waves: 2, Flows: 64, Bytes: 4e6}, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want.Ledger)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.Marshal(&exp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("served ledger differs from solo run:\n%s\nvs\n%s", gotJSON, wantJSON)
	}

	// Sweep sessions keep no ledger: 404.
	_, sw := postSpec(t, ts, `{"kind":"sweep","seed":11,"sweep":"toy"}`)
	if sess, ok := svc.Session(sw.ID); ok {
		if _, err := sess.wait(); err != nil {
			t.Fatal(err)
		}
	}
	resp, err = http.Get(ts.URL + "/v1/sessions/" + sw.ID + "/ledger")
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("sweep ledger status %d, want 404", resp.StatusCode)
	}
}

// TestServiceRetiresFinishedSessions checks the retention rule: a
// finished session stays reachable until retainFinished newer sessions
// have finished, then answers 404 like an unknown ID, while a session
// held at pickup is never retired however many finish after it. Every
// session runs one spec, so all but the first executed one are cache
// hits.
func TestServiceRetiresFinishedSessions(t *testing.T) {
	const retired = 64
	const n = retainFinished + retired
	svc := New(Config{Workers: 2, PoolSize: 1, CacheSize: 4})
	held, release := make(chan struct{}), make(chan struct{})
	// The first session admitted is held at pickup; its worker parks
	// until release while the other worker runs the rest.
	svc.testGate = func(sess *Session) {
		if sess.ID == "s-000001" {
			held <- struct{}{}
			<-release
		}
	}
	defer svc.Close()
	// Release runs before Close, so a failing check does not leave
	// Close waiting on the parked worker.
	releaseHeld := sync.OnceFunc(func() { close(release) })
	defer releaseHeld()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	status := func(path string) int {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	spec := workloadSpec(500)
	ids := make([]string, n)
	for i := range ids {
		sess, err := svc.Submit(spec)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids[i] = sess.ID
		if i == 0 {
			<-held
			continue
		}
		if _, err := sess.wait(); err != nil {
			t.Fatalf("session %s: %v", sess.ID, err)
		}
	}
	// n-1 sessions admitted after the held one have finished: the held
	// one is still reachable, and what the service keeps is the bound
	// plus that one unfinished session.
	if sess, ok := svc.Session(ids[0]); !ok {
		t.Fatalf("held session %s retired while unfinished", ids[0])
	} else if st := sess.Snapshot().State; st != StateQueued {
		t.Fatalf("held session %s is %s, want %s", ids[0], st, StateQueued)
	}
	if got := len(svc.Stats(true).Sessions); got != retainFinished+1 {
		t.Fatalf("service keeps %d sessions with one held, want %d", got, retainFinished+1)
	}
	sess, _ := svc.Session(ids[0])
	releaseHeld()
	if _, err := sess.wait(); err != nil {
		t.Fatal(err)
	}

	// The held session finished last, so in completion order the oldest
	// are ids[1:1+retired] and the newest retainFinished are the rest.
	kept := append([]string{ids[0]}, ids[1+retired:]...)
	gone := ids[1 : 1+retired]
	for _, id := range kept {
		if _, ok := svc.Session(id); !ok {
			t.Fatalf("session %s retired among the newest %d finished", id, retainFinished)
		}
		if code := status("/v1/sessions/" + id + "/report"); code != http.StatusOK {
			t.Fatalf("report of retained %s: status %d, want 200", id, code)
		}
	}
	for _, id := range gone {
		if _, ok := svc.Session(id); ok {
			t.Fatalf("session %s still reachable after %d newer finished", id, retainFinished)
		}
		for _, path := range []string{"", "/events", "/report", "/ledger"} {
			if code := status("/v1/sessions/" + id + path); code != http.StatusNotFound {
				t.Fatalf("retired %s%s: status %d, want 404", id, path, code)
			}
		}
	}

	st := svc.Stats(true)
	if st.Submitted != n || st.Completed != n {
		t.Fatalf("submitted %d, completed %d; want %d each", st.Submitted, st.Completed, n)
	}
	if len(st.Sessions) != len(kept) {
		t.Fatalf("stats lists %d sessions, want the %d retained", len(st.Sessions), len(kept))
	}
	for i, snap := range st.Sessions {
		if snap.ID != kept[i] {
			t.Fatalf("stats session %d is %s, want %s (admission order)", i, snap.ID, kept[i])
		}
	}
	// The admission-order listing keeps retired sessions only until they
	// are half of it, so it is bounded by what the service retains.
	svc.mu.Lock()
	mapped, listed := len(svc.sessions), len(svc.admitted)
	svc.mu.Unlock()
	if mapped != retainFinished || listed > 2*mapped+1 {
		t.Fatalf("service holds %d sessions in its map and %d in its admission list, want %d and at most %d",
			mapped, listed, retainFinished, 2*mapped+1)
	}
}
