// BenchmarkPaper regenerates every figure and quantitative claim of the
// paper: one sub-benchmark per internal/experiment study (F* = figures,
// E* = embedded claims, HERO, A* = ablations), named after the study
// and run at its Seed. Each prints its table once per process, so `go
// test -run '^$' -bench . -benchtime 1x .` emits the reproduction
// tables alongside the timings, and reports each of the study's
// metrics under its own name. `spidersim <study> -seed <Seed>` prints
// the same table; DESIGN.md
// defines the row ids and EXPERIMENTS.md records paper-vs-measured
// values.
package spiderfs_test

import (
	"fmt"
	"testing"

	"spiderfs/internal/experiment"
)

func BenchmarkPaper(b *testing.B) {
	printed := map[string]bool{}
	for _, s := range experiment.Studies {
		b.Run(s.Name, func(b *testing.B) {
			var r experiment.Result
			for i := 0; i < b.N; i++ {
				r = s.Run(s.Seed)
			}
			if !printed[s.Name] {
				printed[s.Name] = true
				fmt.Printf("\n--- %s ---\n%s", r.Title, r.Body)
			}
			for _, m := range r.Metrics {
				b.ReportMetric(m.Value, m.Name)
			}
		})
	}
}
