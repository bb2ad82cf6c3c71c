package benchsuite

import (
	"fmt"
	"strings"

	"spiderfs/internal/integrity"
	"spiderfs/internal/sim"
	"spiderfs/internal/sweep"
)

// IntegrityEntries returns the E19 sweep: the same storm+failure
// scenario replicated at three scrub pass intervals — off (the exposure
// baseline), the default (which must drive undetected corrupt reads to
// zero), and a deliberately slow interval that loses the race.
func IntegrityEntries(seed uint64) []sweep.Entry {
	base := integrity.DefaultScenario()
	return []sweep.Entry{
		{Label: "e19-scrub-off", Replicas: 8, Seed: seed,
			Body: integrity.E19Replica(base, 0)},
		{Label: "e19-scrub-default", Replicas: 8, Seed: seed,
			Body: integrity.E19Replica(base, integrity.DefaultScrubInterval)},
		{Label: "e19-scrub-slow", Replicas: 8, Seed: seed,
			Body: integrity.E19Replica(base, 30*sim.Minute)},
	}
}

// IntegritySchema identifies the BENCH_integrity.json shape.
const IntegritySchema = "spiderfs-integrity-bench/1"

// IntegritySuite is the BENCH_integrity.json artifact: the three E19
// sweep records plus the headline quantities the regression gate pins.
type IntegritySuite struct {
	Schema  string `json:"schema"`
	CPUs    int    `json:"cpus"`
	Workers int    `json:"workers"`

	// DefaultScrubS is the default scrub pass interval in seconds.
	DefaultScrubS float64 `json:"default_scrub_interval_s"`

	// Headline gates, all replica means. UndetectedAtDefault must be
	// exactly zero — the acceptance property of the integrity plane.
	UndetectedAtDefault  float64 `json:"undetected_reads_at_default"`
	UndetectedNoScrub    float64 `json:"undetected_reads_no_scrub"`
	RebuildLatentDefault float64 `json:"rebuild_latent_hits_at_default"`
	RebuildLatentNoScrub float64 `json:"rebuild_latent_hits_no_scrub"`
	LostStripesNoScrub   float64 `json:"lost_stripes_no_scrub"`
	// ScrubOverheadFrac is the foreground read-latency tax of default
	// scrubbing versus no scrubbing (mean_read_ms ratio - 1).
	ScrubOverheadFrac float64 `json:"scrub_overhead_frac"`

	Sweeps []sweep.Record `json:"sweeps"`
}

// RunIntegritySuite runs the E19 sweep through the double-run suite
// harness and derives the headline summary fields.
func RunIntegritySuite(seed uint64, workers int, clock sweep.Clock) (IntegritySuite, error) {
	base, err := sweep.RunSuite(IntegrityEntries(seed), workers, clock)
	if err != nil {
		return IntegritySuite{}, err
	}
	s := IntegritySuite{
		Schema:        IntegritySchema,
		CPUs:          base.CPUs,
		Workers:       base.Workers,
		DefaultScrubS: integrity.DefaultScrubInterval.Seconds(),
		Sweeps:        base.Sweeps,
	}
	mean := func(label, metric string) float64 {
		for _, r := range base.Sweeps {
			if r.Label != label {
				continue
			}
			for _, m := range r.Metrics {
				if m.Name == metric {
					return m.Mean
				}
			}
		}
		return 0
	}
	s.UndetectedAtDefault = mean("e19-scrub-default", "undetected_reads")
	s.UndetectedNoScrub = mean("e19-scrub-off", "undetected_reads")
	s.RebuildLatentDefault = mean("e19-scrub-default", "rebuild_latent_hits")
	s.RebuildLatentNoScrub = mean("e19-scrub-off", "rebuild_latent_hits")
	s.LostStripesNoScrub = mean("e19-scrub-off", "lost_stripes")
	if off := mean("e19-scrub-off", "mean_read_ms"); off > 0 {
		s.ScrubOverheadFrac = mean("e19-scrub-default", "mean_read_ms")/off - 1
	}
	return s, nil
}

// Render formats the suite for stdout.
func (s IntegritySuite) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "integrity suite (E19): default scrub interval %.0f s, %d workers on %d CPU(s)\n",
		s.DefaultScrubS, s.Workers, s.CPUs)
	fmt.Fprintf(&b, "undetected corrupt reads per replica: %.2f unscrubbed -> %.2f at default\n",
		s.UndetectedNoScrub, s.UndetectedAtDefault)
	fmt.Fprintf(&b, "rebuild latent-error hits per replica: %.2f unscrubbed -> %.2f at default\n",
		s.RebuildLatentNoScrub, s.RebuildLatentDefault)
	fmt.Fprintf(&b, "stripes lost per replica unscrubbed: %.2f; scrub read-latency overhead %.1f%%\n",
		s.LostStripesNoScrub, s.ScrubOverheadFrac*100)
	for _, r := range s.Sweeps {
		fmt.Fprintf(&b, "%s: %d replicas, deterministic=%v, fingerprint %s\n",
			r.Label, r.Replicas, r.Deterministic, r.Fingerprint)
		for _, m := range r.Metrics {
			fmt.Fprintf(&b, "  %-24s mean %.4f ± %.4f (95%% CI, n=%d), range [%.4f, %.4f]\n",
				m.Name, m.Mean, m.CI95, m.N, m.Min, m.Max)
		}
	}
	return b.String()
}
