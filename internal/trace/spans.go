package trace

import (
	"encoding/json"
	"fmt"
	"io"

	"spiderfs/internal/spantrace"
)

// SpanRecord is the portable serialized form of one spantrace span,
// the interchange format for offline analysis of request traces
// (the per-request counterpart of the IOSI throughput Log).
type SpanRecord struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Layer   string `json:"layer"`
	Op      string `json:"op"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"` // -1 if the span never closed
	Bytes   int64  `json:"bytes,omitempty"`
	Detail  string `json:"detail,omitempty"`
}

// FromSpans converts a tracer dump to records, preserving order.
func FromSpans(spans []spantrace.Span) []SpanRecord {
	recs := make([]SpanRecord, len(spans))
	for i, s := range spans {
		end := int64(s.End)
		if !s.Done() {
			end = -1
		}
		recs[i] = SpanRecord{
			ID: uint64(s.ID), Parent: uint64(s.Parent),
			Layer: s.Layer.String(), Op: s.Op,
			StartNS: int64(s.Start), EndNS: end,
			Bytes: s.Bytes, Detail: s.Detail,
		}
	}
	return recs
}

// WriteSpans serializes a span dump as indented JSON.
func WriteSpans(w io.Writer, spans []spantrace.Span) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(FromSpans(spans))
}

// ReadSpans parses WriteSpans output.
func ReadSpans(r io.Reader) ([]SpanRecord, error) {
	var recs []SpanRecord
	if err := json.NewDecoder(r).Decode(&recs); err != nil {
		return nil, fmt.Errorf("trace: decoding spans: %w", err)
	}
	return recs, nil
}
