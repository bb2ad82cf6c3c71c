package trace

import (
	"bytes"
	"strings"
	"testing"

	"spiderfs/internal/iosi"
	"spiderfs/internal/sim"
)

func sample() iosi.Series {
	return iosi.Series{
		Interval: 500 * sim.Millisecond,
		Samples:  []float64{1e9, 2e9, 40e9, 3e9, 41e9, 2e9},
	}
}

func TestJSONRoundTrip(t *testing.T) {
	logs := []Log{FromSeries("run-a", sample()), FromSeries("run-b", sample())}
	var buf bytes.Buffer
	if err := Write(&buf, logs); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "run-a" {
		t.Fatalf("got %+v", got)
	}
	s := got[0].Series()
	if s.Interval != 500*sim.Millisecond {
		t.Fatalf("interval = %v", s.Interval)
	}
	if len(s.Samples) != 6 || s.Samples[2] != 40e9 {
		t.Fatalf("samples = %v", s.Samples)
	}
}

func TestReadRejectsBadInterval(t *testing.T) {
	for _, tc := range []struct {
		name, interval string
	}{
		{"zero", "0"},
		{"negative", "-5"},
		{"below 1 ns", "1e-9"},
		{"span past MaxTime", "1e15"},
	} {
		r := strings.NewReader(`[{"name":"x","interval_ms":` + tc.interval + `,"samples_bps":[1,2,3]}]`)
		if _, err := Read(r); err == nil {
			t.Errorf("%s: interval_ms %s accepted", tc.name, tc.interval)
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("not json")); err == nil {
		t.Fatal("expected decode error")
	}
}

func TestSignatureSurvivesRoundTrip(t *testing.T) {
	// The point of the format: IOSI extraction on the round-tripped log
	// equals extraction on the original.
	s := sample()
	before := iosi.ExtractRun(s, 3)
	var buf bytes.Buffer
	if err := Write(&buf, []Log{FromSeries("rt", s)}); err != nil {
		t.Fatal(err)
	}
	logs, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	after := iosi.ExtractRun(logs[0].Series(), 3)
	if before.BurstsPerRun != after.BurstsPerRun || before.BurstVolume != after.BurstVolume {
		t.Fatalf("signature changed: %+v vs %+v", before, after)
	}
}
