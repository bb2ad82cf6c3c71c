package serve

import (
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"testing"
)

// discardWriter is a ResponseWriter that keeps only the status and the
// byte count, so a response costs it nothing per byte.
type discardWriter struct {
	header http.Header
	status int
	n      int
}

func (d *discardWriter) Header() http.Header    { return d.header }
func (d *discardWriter) WriteHeader(status int) { d.status = status }
func (d *discardWriter) Write(p []byte) (int, error) {
	d.n += len(p)
	return len(p), nil
}

// chaosLedgerRequest finishes one quick chaos session (seed 7) and
// returns the service's handler with a GET of that session's
// operations ledger, the API's one document of tens of kilobytes.
func chaosLedgerRequest(tb testing.TB) (http.Handler, *http.Request, *Report) {
	tb.Helper()
	svc := New(Config{Workers: 1})
	tb.Cleanup(svc.Close)
	sess, err := svc.Submit(Spec{Kind: "chaos", Seed: 7})
	if err != nil {
		tb.Fatal(err)
	}
	rep, err := sess.wait()
	if err != nil {
		tb.Fatal(err)
	}
	return svc.Handler(), httptest.NewRequest("GET", "/v1/sessions/"+sess.ID+"/ledger", nil), rep
}

// BenchmarkServeReport serves the operations ledger of a finished
// quick chaos session through Handler() per op: the encode path's time
// and allocations for a document of tens of kilobytes.
func BenchmarkServeReport(b *testing.B) {
	h, req, _ := chaosLedgerRequest(b)
	w := &discardWriter{header: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(w, req)
	}
	if w.status != http.StatusOK {
		b.Fatalf("status %d", w.status)
	}
}

// TestServeReportAllocationsFlat holds the encode path to a small
// constant allocation per response, not one proportional to the
// document: serving a chaos session's 31 KB ledger reuses a pooled
// buffer. The lower quartile of 41 responses is pinned, because a
// garbage collection empties the pool and the race detector drops a
// quarter of its Puts, so some responses do grow a fresh buffer.
func TestServeReportAllocationsFlat(t *testing.T) {
	h, req, rep := chaosLedgerRequest(t)
	size := len(mustJSON(t, rep.Ledger))
	if size < 16<<10 {
		t.Fatalf("the chaos ledger is %d bytes, too small to show a per-byte cost", size)
	}
	w := &discardWriter{header: http.Header{}}
	h.ServeHTTP(w, req) // fill the pool
	var before, after runtime.MemStats
	perCall := make([]uint64, 41)
	for i := range perCall {
		runtime.ReadMemStats(&before)
		h.ServeHTTP(w, req)
		runtime.ReadMemStats(&after)
		perCall[i] = after.TotalAlloc - before.TotalAlloc
	}
	if w.status != http.StatusOK || w.n != (len(perCall)+1)*size {
		t.Fatalf("status %d, %d bytes served; want 200 and %d", w.status, w.n, (len(perCall)+1)*size)
	}
	slices.Sort(perCall)
	if q1 := perCall[len(perCall)/4]; q1 > 2048 {
		t.Errorf("serving a %d-byte ledger allocates %d bytes (lower quartile of %d), want at most 2,048",
			size, q1, len(perCall))
	}
}
