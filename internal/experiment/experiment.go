// Package experiment holds the one definition of each paper row: Figs.
// 2-4, the embedded claims E1-E17, the HERO full-fabric run and the
// ablations A1-A8. The root BenchmarkPaper and `spidersim <study>` both
// run it. Each study takes a base seed (derived streams add small
// offsets to it) and returns its title, its rendered table and its
// headline value, so the benchmark at seed S and `spidersim <study>
// -seed S` print the same bytes. EXPERIMENTS.md records the headlines
// at each study's Seed.
package experiment

// Result is one study run.
type Result struct {
	Title    string  // the table's heading
	Body     string  // the rendered table, newline-terminated
	Headline float64 // the value the benchmark reports
}

// Study is one entry of the study table.
type Study struct {
	Name string // the spidersim subcommand and the BenchmarkPaper sub-benchmark
	Run  func(seed uint64) Result
	Seed uint64 // the base seed the root benchmark and EXPERIMENTS.md use
	Unit string // the unit the benchmark reports Headline under
}

// Studies lists every study in paper order.
var Studies = []Study{
	{"fig2", Fig2, 0, "hops"},
	{"fig3", Fig3, 300, "peak-GB/s"},
	{"fig4", Fig4, 400, "plateau-GB/s"},
	{"mixed", E1, 500, "write-frac"},
	{"checkpoint", E2, 600, "TB/s-req"},
	{"slowdisk", E3, 700, "replaced-frac"},
	{"fgr", E4, 800, "speedup"},
	{"libpio", E5, 900, "gain-%"},
	{"workflow", E6, 1000, "exclusive/dc-time"},
	{"fill", E7, 1100, "empty/full-ratio"},
	{"incident", E8, 1200, "recovery-%"},
	{"iosi", E9, 1300, "period-ratio"},
	{"tools", E10, 1400, "du-speedup"},
	{"namespaces", E11, 1500, "split-gain"},
	{"blockfs", E12, 1600, "cells"},
	{"purge", E13, 1700, "resident-files"},
	{"upgrade", E14, 1800, "upgrade-ratio"},
	{"monitoring", E15, 1900, "incidents"},
	{"provisioning", E16, 2000, "boot-speedup"},
	{"layers", E17, 2050, "worst-layer-eff"},
	{"hero", Hero, 2025, "namespace-GB/s"},
	{"journaling", A1, 2100, "hp/sync"},
	{"recovery", A2, 2200, "stall-reduction"},
	{"notification", A3, 2300, "completion-speedup"},
	{"dne", A4, 2400, "dne-speedup"},
	{"stripecount", A5, 2500, "stripe4/stripe1"},
	{"alignment", A6, 2600, "aligned-gain"},
	{"compile", A7, 2700, "latency-inflation"},
	{"bursts", A8, 2800, "stagger-gain"},
}

// Lookup returns the study with the given name.
func Lookup(name string) (Study, bool) {
	for _, s := range Studies {
		if s.Name == name {
			return s, true
		}
	}
	return Study{}, false
}
