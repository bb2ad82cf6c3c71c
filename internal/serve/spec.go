// Package serve is the multi-tenant simulation service plane: a warm
// pool of engine/fabric instances serving concurrent scenario sessions
// behind a stdlib-only net/http API (cmd/spidersimd). A session is one
// scenario spec — a congestion workload, a chaos campaign, or a seed
// sweep — submitted over HTTP, executed by a bounded worker pool, and
// answered with a report whose fingerprint is bit-identical to the same
// spec/seed run solo through the one-shot CLI.
//
// The determinism contract extends the repo-wide one to tenancy:
//
//  1. Every model stream a session consumes is derived from the spec's
//     own seed with stable labels, exactly as RunSolo derives them —
//     never from service state — so N concurrent sessions reproduce N
//     serial solo runs bit for bit.
//  2. Service-plane randomness (session tokens) comes from an isolated
//     per-session stream, rng.New(cfg.Seed).Split("serve/<session-id>"),
//     which shares no state across sessions and never feeds a model.
//  3. Warm-pool reuse goes through the sim.Engine.Reset and
//     netsim.Fabric.Reset seams, which restore the just-built state —
//     sequence numbers included — so a pooled run's event trace equals
//     a cold run's exactly.
//
// Load is shed, never queued unboundedly: admission is a bounded queue,
// and an overflowing submit is refused immediately with a Retry-After
// hint (HTTP 429 at the API layer). Nor is history kept unboundedly: a
// finished session stays reachable until 1,024 newer sessions have
// finished, then leaves the service; its report lives on in the (spec,
// seed) result cache, which answers a resubmission of the spec.
package serve

import (
	"fmt"
	"strings"

	"spiderfs/internal/chaos"
	"spiderfs/internal/sweep"
)

// Spec declares one scenario session. The zero fields of the chosen
// kind are filled with defaults by Normalize; Key() canonicalizes the
// normalized spec into the result-cache key, so two submissions that
// normalize identically share one cached report.
type Spec struct {
	// Kind selects the scenario: "workload" (congestion waves on the
	// pooled fabric), "chaos" (a center-wide chaos campaign), or "sweep"
	// (one entry of the registered seed-sweep catalog).
	Kind string `json:"kind"`
	// Seed is the root of every model stream the session draws.
	Seed uint64 `json:"seed"`

	// Full selects the production-scale shape (Titan torus fabric for
	// workloads, the 7-day full-scale campaign for chaos) instead of the
	// small center.
	Full bool `json:"full,omitempty"`

	// Workload parameters: Waves waves of Flows client->OSS transfers of
	// Bytes each, drained to quiescence between waves.
	Waves int     `json:"waves,omitempty"`
	Flows int     `json:"flows,omitempty"`
	Bytes float64 `json:"bytes,omitempty"`

	// Chaos parameter: campaign length override in simulated days.
	Days int `json:"days,omitempty"`

	// Sweep parameters: the catalog label to run and an optional replica
	// override.
	Sweep    string `json:"sweep,omitempty"`
	Replicas int    `json:"replicas,omitempty"`
}

// Workload defaults: three waves of 256 x 16 MB transfers keep a small
// session under ~10ms of wall clock while still congesting every OSS
// port, so service tests and benchmarks stay fast.
const (
	defaultWaves = 3
	defaultFlows = 256
	defaultBytes = 16e6
)

// Work caps: a spec over any of these is refused, so no single request
// can hold a worker for hours. Every documented and benchmarked spec
// sits far below them.
const (
	maxWaves = 64
	maxFlows = 8192
	maxBytes = 1e12
)

// Normalize validates the spec and fills kind-appropriate defaults,
// clearing parameters that belong to other kinds so Key() is canonical.
func (s *Spec) Normalize() error {
	switch s.Kind {
	case "workload":
		if s.Waves <= 0 {
			s.Waves = defaultWaves
		}
		if s.Flows <= 0 {
			s.Flows = defaultFlows
		}
		if s.Bytes <= 0 {
			s.Bytes = defaultBytes
		}
		if s.Waves > maxWaves || s.Flows > maxFlows || !(s.Bytes <= maxBytes) {
			return fmt.Errorf("serve: workload %d waves x %d flows x %g bytes exceeds the cap of %d x %d x %g",
				s.Waves, s.Flows, s.Bytes, maxWaves, maxFlows, maxBytes)
		}
		s.Days, s.Sweep, s.Replicas = 0, "", 0
	case "chaos":
		if s.Days < 0 || s.Days > chaos.MaxDays {
			return fmt.Errorf("serve: days %d outside [0, %d]", s.Days, chaos.MaxDays)
		}
		s.Waves, s.Flows, s.Bytes, s.Sweep, s.Replicas = 0, 0, 0, "", 0
	case "sweep":
		if s.Sweep == "" {
			return fmt.Errorf("serve: sweep spec needs a sweep label")
		}
		if strings.ContainsAny(s.Sweep, "/ \t\n") {
			return fmt.Errorf("serve: invalid sweep label %q", s.Sweep)
		}
		if s.Replicas < 0 || s.Replicas > sweep.MaxReplicas {
			return fmt.Errorf("serve: replicas %d outside [0, %d]", s.Replicas, sweep.MaxReplicas)
		}
		s.Full, s.Waves, s.Flows, s.Bytes, s.Days = false, 0, 0, 0, 0
	default:
		return fmt.Errorf("serve: unknown kind %q (want workload, chaos, or sweep)", s.Kind)
	}
	return nil
}

// Key returns the canonical (spec, seed) fingerprint used as the result
// cache key. Field order is fixed and only the normalized fields of the
// spec's kind participate, so equal work maps to equal keys.
func (s Spec) Key() string {
	switch s.Kind {
	case "workload":
		return fmt.Sprintf("workload/seed=%d/full=%t/waves=%d/flows=%d/bytes=%g",
			s.Seed, s.Full, s.Waves, s.Flows, s.Bytes)
	case "chaos":
		return fmt.Sprintf("chaos/seed=%d/full=%t/days=%d", s.Seed, s.Full, s.Days)
	case "sweep":
		return fmt.Sprintf("sweep/seed=%d/label=%s/replicas=%d", s.Seed, s.Sweep, s.Replicas)
	}
	return "invalid/" + s.Kind
}
