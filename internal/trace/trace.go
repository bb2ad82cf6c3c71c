// Package trace provides portable serialization for server-side
// throughput logs — the artifact the IOSI workflow (§VI-B) stores and
// mines. Logs round-trip through JSON, so extracted signatures can be
// compared across runs collected on different days, as the OLCF
// tooling did.
package trace

import (
	"encoding/json"
	"fmt"
	"io"

	"spiderfs/internal/iosi"
	"spiderfs/internal/sim"
)

// Log is one serialized throughput series.
type Log struct {
	Name       string    `json:"name"`
	IntervalMS float64   `json:"interval_ms"`
	SamplesBps []float64 `json:"samples_bps"`
}

// FromSeries converts a live sampler series into a portable log.
func FromSeries(name string, s iosi.Series) Log {
	return Log{
		Name:       name,
		IntervalMS: s.Interval.Millis(),
		SamplesBps: append([]float64(nil), s.Samples...),
	}
}

// Series reconstructs the in-memory form.
func (l Log) Series() iosi.Series {
	return iosi.Series{
		Interval: sim.FromSeconds(l.IntervalMS / 1000),
		Samples:  append([]float64(nil), l.SamplesBps...),
	}
}

// Write serializes logs as indented JSON.
func Write(w io.Writer, logs []Log) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(logs)
}

// Read parses logs written by Write. It rejects a log whose Series
// could not represent it: an interval that rounds below 1 ns, or a span
// (samples times interval) past sim.MaxTime.
func Read(r io.Reader) ([]Log, error) {
	var logs []Log
	if err := json.NewDecoder(r).Decode(&logs); err != nil {
		return nil, fmt.Errorf("trace: decoding logs: %w", err)
	}
	for i, l := range logs {
		iv := sim.FromSeconds(l.IntervalMS / 1000)
		switch {
		case iv < 1:
			return nil, fmt.Errorf("trace: log %d (%q) has interval %g ms, below 1 ns", i, l.Name, l.IntervalMS)
		case iv == sim.MaxTime || sim.Time(len(l.SamplesBps)) > sim.MaxTime/iv:
			return nil, fmt.Errorf("trace: log %d (%q) spans %d samples of %g ms, past the simulated clock's range", i, l.Name, len(l.SamplesBps), l.IntervalMS)
		}
	}
	return logs, nil
}
