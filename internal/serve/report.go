package serve

import (
	"encoding/json"
	"math"

	"spiderfs/internal/ledger"
)

// Metric is one named scalar of a session report, kept in a fixed
// record order so the marshaled report is byte-stable.
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// Report is the final result of a session. Two runs of the same
// normalized spec — solo or pooled, alone or among 64 concurrent
// sessions — produce byte-identical reports; Fingerprint condenses
// that identity into one comparable value.
type Report struct {
	Kind        string   `json:"kind"`
	Key         string   `json:"key"`
	Seed        uint64   `json:"seed"`
	Fingerprint string   `json:"fingerprint"`
	Metrics     []Metric `json:"metrics"`

	// Ledger is the session's tamper-evident operations ledger —
	// per-wave milestones for workload sessions, the full campaign
	// export for chaos sessions, absent for sweep sessions. It is
	// deterministic (entry hashes derive from simulated time only) but
	// deliberately not folded into Fingerprint: the fingerprint pins the
	// model outcome, the ledger pins the operational narrative, and the
	// auditor — not the fingerprint — is what proves the narrative
	// untampered.
	Ledger *ledger.Export `json:"ledger,omitempty"`
}

// JSON marshals the report with a trailing newline — the exact bytes
// the /v1/sessions/{id}/report endpoint serves, and what the CLI
// prints, so the byte-identity contract is testable end to end.
func (r *Report) JSON() ([]byte, error) {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// fingerprinter folds 64-bit words into an FNV-1a fingerprint (the
// same offset/prime as hash/fnv and sim.TraceHash).
type fingerprinter struct{ h uint64 }

func newFingerprinter() *fingerprinter { return &fingerprinter{h: 14695981039346656037} }

func (f *fingerprinter) word(v uint64) {
	for i := 0; i < 8; i++ {
		f.h ^= (v >> (8 * i)) & 0xff
		f.h *= 1099511628211
	}
}

func (f *fingerprinter) float(v float64) { f.word(math.Float64bits(v)) }

func (f *fingerprinter) sum() uint64 { return f.h }

// hex renders a fingerprint the way every artifact in the repo does.
func hex(v uint64) string {
	const digits = "0123456789abcdef"
	var b [16]byte
	for i := range b {
		b[i] = digits[(v>>(60-4*i))&0xf]
	}
	return string(b[:])
}
