package serve

import (
	"bytes"

	"spiderfs/internal/ledger"
	"spiderfs/internal/sweep"
)

// Metric is one named scalar of a session report, kept in a fixed
// record order so the marshaled report is byte-stable. It is the sweep
// runner's type under the name the benchmark harness uses.
type Metric = sweep.Metric

// Report is the final result of a session. Two runs of the same
// normalized spec — solo or pooled, alone or among 64 concurrent
// sessions — produce byte-identical reports; Fingerprint condenses
// that identity into one comparable value. Its JSON — the /report
// body, the report of a finished session's snapshot and what
// `spidersim session` prints — carries the run's outcome only: kind,
// key, seed, fingerprint and metrics.
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
	// untampered. It is an audit trail read on demand, so the report's
	// JSON leaves it out: /v1/sessions/{id}/ledger is its one endpoint
	// (`spidersim session -ledger FILE` its solo reference).
	Ledger *ledger.Export `json:"-"`
}

// JSON encodes the report with a trailing newline through the API's
// one encode path — the exact bytes the /v1/sessions/{id}/report
// endpoint serves, and what the CLI prints, so the byte-identity
// contract is testable end to end. The bytes are a copy the caller
// owns.
func (r *Report) JSON() ([]byte, error) {
	e := getEncoder()
	defer putEncoder(e)
	if err := e.doc.Encode(r); err != nil {
		return nil, err
	}
	return bytes.Clone(e.buf.Bytes()), nil
}
