package serve

import (
	"encoding/json"

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
