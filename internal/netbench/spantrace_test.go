package netbench

import (
	"encoding/json"
	"testing"
)

// The verify bench smoke drives these at -benchtime=1x so the traced
// and untraced congestion paths both stay runnable; the real overhead
// numbers come from the checked-in BENCH_spantrace.json artifact.
func BenchmarkSpantraceUntraced(b *testing.B) {
	spider2Spans(0, 128, nil)(b)
}

func BenchmarkSpantraceSampled(b *testing.B) {
	var spans float64
	spider2Spans(spantraceEvery, 128, &spans)(b)
	b.ReportMetric(spans, "spans/op")
}

// A quick span-suite run must produce both measurements, a sane span
// count, and a renderable artifact. The 5% overhead ceiling is only
// asserted on the full-scale artifact (cmd/benchsuite -spantrace):
// at the shrunken smoke scale the absolute per-op time is so small
// that scheduler noise swamps the tracer's real cost.
func TestSpanSuiteQuickRun(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed; skipped in -short")
	}
	s := RunSpans(false)
	if s.SampleEvery != spantraceEvery {
		t.Fatalf("sample_every = %d, want %d", s.SampleEvery, spantraceEvery)
	}
	if s.Untraced.NsPerOp <= 0 || s.Traced.NsPerOp <= 0 {
		t.Fatalf("missing measurements: untraced %v, traced %v", s.Untraced.NsPerOp, s.Traced.NsPerOp)
	}
	// 128 flows at 1-in-64 sampling → about 2 roots/op, each with a
	// send+flow pair and a handful of hop marks.
	if s.SpansPerOp <= 0 || s.SpansPerOp > 128 {
		t.Fatalf("spans/op = %.1f, want a small positive count", s.SpansPerOp)
	}
	out, err := json.Marshal(s)
	if err != nil || len(out) == 0 {
		t.Fatalf("JSON render failed: %v", err)
	}
	if len(s.Render()) == 0 {
		t.Fatal("empty table render")
	}
}
