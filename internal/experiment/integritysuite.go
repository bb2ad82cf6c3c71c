package experiment

import (
	"errors"
	"fmt"
	"strings"

	"spiderfs/internal/integrity"
	"spiderfs/internal/sweep"
)

// IntegritySchema identifies the BENCH_integrity.json shape.
const IntegritySchema = "spiderfs-integrity-bench/1"

// scrubOverheadCeiling: background scrubbing at the default interval
// may tax foreground read latency by at most this fraction.
const scrubOverheadCeiling = 0.25

// IntegritySuite is the BENCH_integrity.json artifact: the three E19
// sweep records plus the headline quantities Check holds to the integrity
// plane's acceptance properties.
type IntegritySuite struct {
	Schema string `json:"schema"`

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

// RunIntegritySuite runs the E19 sweeps at seed through the double-run
// suite harness and derives the headline summary fields.
func RunIntegritySuite(seed uint64) (IntegritySuite, error) {
	base, err := sweep.RunSuite(seed, SelectSweeps("e19"))
	if err != nil {
		return IntegritySuite{}, err
	}
	s := IntegritySuite{
		Schema:        IntegritySchema,
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

// Check reports every broken invariant: the sweep records' own, zero
// undetected corrupt reads at the default scrub interval, a positive
// unscrubbed exposure baseline (without one the zero proves nothing),
// and the scrub-overhead ceiling.
func (s IntegritySuite) Check() error {
	errs := []error{sweep.Suite{Sweeps: s.Sweeps}.Check()}
	if s.UndetectedAtDefault != 0 {
		errs = append(errs, fmt.Errorf("undetected_reads_at_default %v != 0: silent corruption reached clients at the default scrub interval",
			s.UndetectedAtDefault))
	}
	if s.UndetectedNoScrub <= 0 {
		errs = append(errs, fmt.Errorf("undetected_reads_no_scrub %v: the unscrubbed baseline shows no exposure",
			s.UndetectedNoScrub))
	}
	if s.ScrubOverheadFrac > scrubOverheadCeiling {
		errs = append(errs, fmt.Errorf("scrub_overhead_frac %.4f exceeds ceiling %.2f",
			s.ScrubOverheadFrac, scrubOverheadCeiling))
	}
	return errors.Join(errs...)
}

// Render formats the suite for stdout: the headline summary, then the
// sweep records as sweep.Suite renders them.
func (s IntegritySuite) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "integrity suite (E19): default scrub interval %.0f s\n", s.DefaultScrubS)
	fmt.Fprintf(&b, "undetected corrupt reads per replica: %.2f unscrubbed -> %.2f at default\n",
		s.UndetectedNoScrub, s.UndetectedAtDefault)
	fmt.Fprintf(&b, "rebuild latent-error hits per replica: %.2f unscrubbed -> %.2f at default\n",
		s.RebuildLatentNoScrub, s.RebuildLatentDefault)
	fmt.Fprintf(&b, "stripes lost per replica unscrubbed: %.2f; scrub read-latency overhead %.1f%%\n",
		s.LostStripesNoScrub, s.ScrubOverheadFrac*100)
	b.WriteString(sweep.Suite{Sweeps: s.Sweeps}.Render())
	return b.String()
}
