package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
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

// TestHTTPLedgerEndpoint pulls a finished workload session's and a
// chaos session's operations-ledger export, audits it clean, and holds
// it to the bytes `spidersim session -ledger` writes from the solo run:
// MarshalIndent of RunSolo's export plus a newline. The ledger's one
// endpoint is /ledger: the report, the poll of a finished session and
// the POST body of a cache hit carry no ledger key. Sweep sessions
// (which keep no ledger) answer 404.
func TestHTTPLedgerEndpoint(t *testing.T) {
	svc := New(Config{Workers: 1, PoolSize: 1, QueueDepth: 8, CacheSize: 4, Sweeps: toyCatalog()})
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	for _, tc := range []struct {
		spec             Spec
		entries, anchors int // 0: at least one
	}{
		{Spec{Kind: "workload", Seed: 42, Waves: 2, Flows: 64, Bytes: 4e6}, 2, 2},
		{Spec{Kind: "chaos", Seed: 7}, 0, 0},
	} {
		kind := tc.spec.Kind
		body, err := json.Marshal(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		run := func() (string, response) {
			t.Helper()
			got := fetch(t, ts, "POST", "/v1/sessions", string(body))
			var snap Snapshot
			if err := json.Unmarshal(got.body, &snap); err != nil || got.status != http.StatusAccepted {
				t.Fatalf("%s submit: status %d, %v: %s", kind, got.status, err, got.body)
			}
			sess, ok := svc.Session(snap.ID)
			if !ok {
				t.Fatal("session vanished")
			}
			if _, err := sess.wait(); err != nil {
				t.Fatal(err)
			}
			return snap.ID, got
		}
		id, _ := run()
		path := "/v1/sessions/" + id
		got := fetch(t, ts, "GET", path+"/ledger", "")
		if got.status != http.StatusOK {
			t.Fatalf("%s ledger status %d: %s", kind, got.status, got.body)
		}
		var exp ledger.Export
		if err := json.Unmarshal(got.body, &exp); err != nil {
			t.Fatalf("%s ledger export does not decode: %v", kind, err)
		}
		if fs := ledger.Audit(&exp); len(fs) != 0 {
			t.Fatalf("served %s ledger audit found %v", kind, fs)
		}
		if len(exp.Entries) == 0 || len(exp.Anchors) == 0 ||
			tc.entries != 0 && (len(exp.Entries) != tc.entries || len(exp.Anchors) != tc.anchors) {
			t.Fatalf("%s session served %d entries in %d anchors, want %d/%d",
				kind, len(exp.Entries), len(exp.Anchors), tc.entries, tc.anchors)
		}

		// Byte-identical to the solo run's export — the pooled-replay
		// half of the ledger determinism contract.
		want, err := RunSolo(tc.spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		if wantJSON := mustJSON(t, want.Ledger); !bytes.Equal(got.body, wantJSON) {
			t.Fatalf("served %s ledger differs from solo run:\n%s\nvs\n%s", kind, got.body, wantJSON)
		}

		// No other body carries the ledger. A cache hit's POST body is
		// its admission snapshot, with no report; its poll has one.
		hitID, hitPost := run()
		bodies := map[string]response{
			"report":         fetch(t, ts, "GET", path+"/report", ""),
			"poll":           fetch(t, ts, "GET", path, ""),
			"cache-hit POST": hitPost,
			"cache-hit poll": fetch(t, ts, "GET", "/v1/sessions/"+hitID, ""),
		}
		for what, got := range bodies {
			// A "ledger" key at any depth; inside a string value the
			// quotes would be escaped.
			if bytes.Contains(got.body, []byte(`"ledger":`)) {
				t.Errorf("%s %s body has a ledger key:\n%s", kind, what, got.body)
			}
		}
		for _, what := range []string{"poll", "cache-hit poll"} {
			var snap Snapshot
			if err := json.Unmarshal(bodies[what].body, &snap); err != nil || snap.Report == nil {
				t.Errorf("%s %s: %v, no report in\n%s", kind, what, err, bodies[what].body)
			}
		}
	}

	// Sweep sessions keep no ledger: 404.
	_, sw := postSpec(t, ts, `{"kind":"sweep","seed":11,"sweep":"toy"}`)
	if sess, ok := svc.Session(sw.ID); ok {
		if _, err := sess.wait(); err != nil {
			t.Fatal(err)
		}
	}
	if got := fetch(t, ts, "GET", "/v1/sessions/"+sw.ID+"/ledger", ""); got.status != http.StatusNotFound {
		t.Fatalf("sweep ledger status %d, want 404", got.status)
	}
}

// TestHTTPSubmitAnswersAdmissionSnapshot submits one cached spec many
// times while two workers answer each from the result cache as soon as
// it is queued. Every 202 body must be the session as admitted: state
// queued, one event, not yet cached and no report, however far a
// worker has got with it by the time the handler writes the body.
func TestHTTPSubmitAnswersAdmissionSnapshot(t *testing.T) {
	const posts = 200
	svc := New(Config{Workers: 2, PoolSize: 1, QueueDepth: posts, CacheSize: 4})
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	const spec = `{"kind":"workload","seed":7,"waves":1,"flows":16,"bytes":1e6}`
	_, first := postSpec(t, ts, spec)
	sess, ok := svc.Session(first.ID)
	if !ok {
		t.Fatal("session vanished")
	}
	if _, err := sess.wait(); err != nil {
		t.Fatal(err)
	}
	bad, firstBad := 0, ""
	for i := 0; i < posts; i++ {
		got := fetch(t, ts, "POST", "/v1/sessions", spec)
		var snap Snapshot
		if err := json.Unmarshal(got.body, &snap); err != nil || got.status != http.StatusAccepted {
			t.Fatalf("submit %d: status %d, %v: %s", i, got.status, err, got.body)
		}
		hit, ok := svc.Session(snap.ID)
		if !ok {
			t.Fatalf("submit %d: session %q not found", i, snap.ID)
		}
		want := Snapshot{ID: hit.ID, Token: hit.Snapshot().Token, Key: first.Key, State: StateQueued, Events: 1}
		if snap != want || bytes.Contains(got.body, []byte(`"report"`)) {
			if bad++; bad == 1 {
				firstBad = string(got.body)
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d cache-hit POST bodies were not the admission snapshot; the first:\n%s", bad, posts, firstBad)
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

// response is one served response: status, content type and body.
type response struct {
	status int
	ctype  string
	body   []byte
}

// mustJSON is the document the API serves for v: MarshalIndent plus a
// newline, as Report.JSON encodes a report.
func mustJSON(t testing.TB, v any) []byte {
	t.Helper()
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

func fetch(t *testing.T, ts *httptest.Server, method, path, body string) response {
	t.Helper()
	req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return response{resp.StatusCode, resp.Header.Get("Content-Type"), data}
}

// expectJSON checks the byte contract of every JSON document the API
// serves: the body is json.MarshalIndent(v, "", "  ") plus a newline,
// typed application/json.
func expectJSON(t *testing.T, what string, got response, status int, v any) {
	t.Helper()
	want, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if got.status != status || got.ctype != "application/json" {
		t.Errorf("%s: status %d, content type %q; want %d, application/json", what, got.status, got.ctype, status)
	}
	if !bytes.Equal(got.body, want) {
		t.Errorf("%s: served %d bytes, want the %d of MarshalIndent plus a newline:\n%s\nvs\n%s",
			what, len(got.body), len(want), got.body, want)
	}
}

// TestHTTPJSONByteContract holds every JSON endpoint, its error bodies
// included, to the bytes of MarshalIndent plus a newline of the value
// it serves. The chaos session's ledger (31 KB) is served before every
// small body, so a pooled buffer that it grew must carry no bytes into
// the next.
func TestHTTPJSONByteContract(t *testing.T) {
	svc := New(Config{Workers: 1, PoolSize: 1, QueueDepth: 1, CacheSize: 4})
	held, release, refuse := make(chan struct{}), make(chan struct{}), make(chan struct{})
	svc.testGate = func(sess *Session) {
		switch sess.ID {
		case "s-000001":
			held <- struct{}{}
			<-release
		case "s-000003":
			<-refuse
			panic("refused")
		}
	}
	defer svc.Close()
	// Both gates open before Close, so a failing check does not leave
	// Close waiting on a parked worker.
	releaseHeld := sync.OnceFunc(func() { close(release) })
	defer releaseHeld()
	refuseHeld := sync.OnceFunc(func() { close(refuse) })
	defer refuseHeld()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	session := func(id string) *Session {
		t.Helper()
		sess, ok := svc.Session(id)
		if !ok {
			t.Fatalf("session %s not found", id)
		}
		return sess
	}

	// Submit (202) while the worker holds the chaos session at pickup,
	// so its snapshot is still the one served.
	got := fetch(t, ts, "POST", "/v1/sessions", `{"kind":"chaos","seed":7}`)
	<-held
	chaosSess := session("s-000001")
	expectJSON(t, "submit", got, http.StatusAccepted, chaosSess.Snapshot())
	got = fetch(t, ts, "POST", "/v1/sessions", `{"kind":"workload","seed":7,"waves":1,"flows":16,"bytes":1e6}`)
	small := session("s-000002")
	expectJSON(t, "submit", got, http.StatusAccepted, small.Snapshot())

	// The queue holds one session: a third submit is shed with 429.
	got = fetch(t, ts, "POST", "/v1/sessions", `{"kind":"workload","seed":8}`)
	expectJSON(t, "busy", got, http.StatusTooManyRequests, apiError{Error: ErrBusy{RetryAfter: 1}.Error()})
	bad := Spec{Kind: "nonsense"}
	got = fetch(t, ts, "POST", "/v1/sessions", `{"kind":"nonsense"}`)
	expectJSON(t, "bad spec", got, http.StatusBadRequest, apiError{Error: bad.Normalize().Error()})
	got = fetch(t, ts, "GET", "/v1/sessions/s-999999/report", "")
	expectJSON(t, "unknown session", got, http.StatusNotFound, apiError{Error: "unknown session s-999999"})

	releaseHeld()
	for _, sess := range []*Session{chaosSess, small} {
		rep, err := sess.wait()
		if err != nil {
			t.Fatal(err)
		}
		path := "/v1/sessions/" + sess.ID
		expectJSON(t, sess.ID+" ledger", fetch(t, ts, "GET", path+"/ledger", ""), http.StatusOK, rep.Ledger)
		expectJSON(t, sess.ID+" report", fetch(t, ts, "GET", path+"/report", ""), http.StatusOK, rep)
		expectJSON(t, sess.ID+" poll", fetch(t, ts, "GET", path, ""), http.StatusOK, sess.Snapshot())

		// The event stream is compact ndjson, one json.Marshal line each.
		events, _ := sess.EventsSince(0)
		var want []byte
		for _, ev := range events {
			line, _ := json.Marshal(ev)
			want = append(append(want, line...), '\n')
		}
		if got := fetch(t, ts, "GET", path+"/events", ""); !bytes.Equal(got.body, want) {
			t.Errorf("%s events: served\n%s\nwant\n%s", sess.ID, got.body, want)
		}
	}
	big, _ := chaosSess.Report()
	little, _ := small.Report()
	if b, l := mustJSON(t, big.Ledger), mustJSON(t, little); len(b) < 8*len(l) {
		t.Fatalf("chaos ledger is %d bytes and workload report %d: too close to show a carry-over", len(b), len(l))
	}

	// A failed session answers 422 on its report and its ledger. It
	// fails only once its submit is checked.
	got = fetch(t, ts, "POST", "/v1/sessions", `{"kind":"workload","seed":9,"waves":1,"flows":16,"bytes":1e6}`)
	failed := session("s-000003")
	expectJSON(t, "submit", got, http.StatusAccepted, failed.Snapshot())
	refuseHeld()
	if _, err := failed.wait(); err == nil {
		t.Fatal("s-000003 did not fail")
	}
	errBody := apiError{Error: failed.Snapshot().Error}
	expectJSON(t, "failed report", fetch(t, ts, "GET", "/v1/sessions/s-000003/report", ""), http.StatusUnprocessableEntity, errBody)
	expectJSON(t, "failed ledger", fetch(t, ts, "GET", "/v1/sessions/s-000003/ledger", ""), http.StatusUnprocessableEntity, errBody)

	expectJSON(t, "stats", fetch(t, ts, "GET", "/v1/stats", ""), http.StatusOK, svc.Stats(false))
	expectJSON(t, "stats with sessions", fetch(t, ts, "GET", "/v1/stats?sessions=1", ""), http.StatusOK, svc.Stats(true))
}

// TestHTTPEncodingFailureIsJSON500: a report that does not encode (a
// NaN metric) answers 500 with a JSON apiError, from the report
// endpoint and from the poll endpoint that embeds the report alike.
func TestHTTPEncodingFailureIsJSON500(t *testing.T) {
	svc := New(Config{Workers: 1, QueueDepth: 4, CacheSize: 4})
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	spec := workloadSpec(9)
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	nan := &Report{Kind: spec.Kind, Key: spec.Key(), Seed: spec.Seed,
		Metrics: []Metric{{Name: "broken", Value: math.NaN()}}}
	_, encErr := json.Marshal(nan)
	if encErr == nil {
		t.Fatal("a NaN metric encoded")
	}
	// The cache answers the spec with the broken report.
	svc.mu.Lock()
	svc.cache.put(spec.Key(), nan, 0)
	svc.mu.Unlock()
	sess, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.wait(); err != nil {
		t.Fatal(err)
	}
	want := apiError{Error: "encoding failure: " + encErr.Error()}
	for _, path := range []string{"/v1/sessions/" + sess.ID + "/report", "/v1/sessions/" + sess.ID} {
		expectJSON(t, path, fetch(t, ts, "GET", path, ""), http.StatusInternalServerError, want)
	}
}
