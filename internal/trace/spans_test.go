package trace

import (
	"bytes"
	"testing"

	"spiderfs/internal/sim"
	"spiderfs/internal/spantrace"
)

func sampleSpans() []spantrace.Span {
	return []spantrace.Span{
		{ID: 0xabc, Parent: 0, Layer: spantrace.Client, Op: "rpc-write",
			Start: 0, End: 3 * sim.Millisecond, Bytes: 1 << 20},
		{ID: 0xdef, Parent: 0xabc, Layer: spantrace.Disk, Op: "disk-write",
			Start: sim.Millisecond, End: 2 * sim.Millisecond, Bytes: 1 << 20, Detail: "lun3"},
		// Never closed: must round-trip as end_ns -1.
		{ID: 0x123, Parent: 0xabc, Layer: spantrace.OSS, Op: "oss-service",
			Start: sim.Millisecond, End: -1, Bytes: 64},
	}
}

func TestSpansJSONRoundTrip(t *testing.T) {
	spans := sampleSpans()
	var buf bytes.Buffer
	if err := WriteSpans(&buf, spans); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(spans) {
		t.Fatalf("round-tripped %d records, want %d", len(recs), len(spans))
	}
	want := FromSpans(spans)
	for i := range recs {
		if recs[i] != want[i] {
			t.Fatalf("record %d differs:\n got %+v\nwant %+v", i, recs[i], want[i])
		}
	}
	if recs[2].EndNS != -1 {
		t.Fatalf("open span end_ns = %d, want -1", recs[2].EndNS)
	}
	if recs[1].Layer != "disk" || recs[1].Detail != "lun3" {
		t.Fatalf("child record mangled: %+v", recs[1])
	}
}
