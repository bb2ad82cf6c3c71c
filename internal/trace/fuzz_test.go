package trace

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"spiderfs/internal/sim"
)

// FuzzTraceRead feeds arbitrary bytes to the throughput-log reader,
// the boundary `iosi -import` crosses. Read must never panic; every log
// it accepts must yield a Series with a positive interval whose span
// (samples times interval) fits the simulated clock; and Write then
// Read must give back the same logs.
func FuzzTraceRead(f *testing.F) {
	for _, seed := range []string{
		`[{"name":"run-a","interval_ms":500,"samples_bps":[1e9,2e9,40e9]}]`,
		`[{"name":"x","interval_ms":1e-6,"samples_bps":[1]}]`,
		`[{"name":"x","interval_ms":1e-9,"samples_bps":[1]}]`,
		`[{"name":"x","interval_ms":1e15,"samples_bps":[1,2]}]`,
		`[{"name":"x","interval_ms":9.2e12,"samples_bps":[1]}]`,
		`[{"name":"x","interval_ms":0,"samples_bps":null}]`,
		`[{"name":"x","interval_ms":1,"samples_bps":[]}]`,
		`[]`,
		`null`,
		`not json`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		logs, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, l := range logs {
			s := l.Series()
			if s.Interval <= 0 {
				t.Fatalf("accepted log %q yields interval %v", l.Name, s.Interval)
			}
			if n := sim.Time(len(s.Samples)); n > 0 && s.Interval > sim.MaxTime/n {
				t.Fatalf("accepted log %q: %d samples of %v overflow the clock", l.Name, n, s.Interval)
			}
		}
		var buf bytes.Buffer
		if err := Write(&buf, logs); err != nil {
			t.Fatalf("Write of accepted logs: %v", err)
		}
		again, err := Read(&buf)
		if err != nil {
			t.Fatalf("re-Read of written logs: %v", err)
		}
		if !reflect.DeepEqual(again, logs) {
			t.Fatalf("round trip changed the logs:\n got %+v\nwant %+v", again, logs)
		}
	})
}

// FuzzReadSpans feeds arbitrary bytes to the span reader, the boundary
// `spidersim ledger replay -spans` crosses. ReadSpans must never panic,
// and re-encoding the records it accepts must read back unchanged.
func FuzzReadSpans(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteSpans(&buf, sampleSpans()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	for _, seed := range []string{
		`[{"id":1,"layer":"disk","op":"x","start_ns":-1,"end_ns":9223372036854775807}]`,
		`[{"id":18446744073709551615,"parent":1,"bytes":-1}]`,
		`[]`,
		`null`,
		`{"id":1}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := ReadSpans(bytes.NewReader(data))
		if err != nil {
			return
		}
		enc, err := json.Marshal(recs)
		if err != nil {
			t.Fatalf("re-encoding accepted records: %v", err)
		}
		again, err := ReadSpans(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-reading encoded records: %v", err)
		}
		if !reflect.DeepEqual(again, recs) {
			t.Fatalf("round trip changed the records:\n got %+v\nwant %+v", again, recs)
		}
	})
}
