// Package experiment holds the one definition of each paper row: Figs.
// 2-4, the embedded claims E1-E17, the HERO full-fabric run and the
// ablations A1-A8. The root BenchmarkPaper and `spidersim <study>` both
// run it. Each study takes a base seed (derived streams add small
// offsets to it) and returns its title, its rendered table and its
// named metrics, so the benchmark at seed S and `spidersim <study>
// -seed S` print the same bytes. EXPERIMENTS.md records the headlines
// at each study's Seed.
package experiment

import "spiderfs/internal/sweep"

// Result is one study run.
type Result struct {
	Title   string         // the table's heading
	Body    string         // the rendered table, newline-terminated
	Metrics []sweep.Metric // the values the benchmark reports, in a fixed order
}

// Study is one entry of the study table.
type Study struct {
	Name     string // the spidersim subcommand and the BenchmarkPaper sub-benchmark
	Run      func(seed uint64) Result
	Seed     uint64 // the base seed the root benchmark and EXPERIMENTS.md use
	Headline string // the name of the metric EXPERIMENTS.md quotes for the study
}

// Studies lists every study in paper order.
var Studies = []Study{
	{"fig2", Fig2, 0, "spread_hops"},
	{"fig3", Fig3, 300, "peak_gbps"},
	{"fig4", Fig4, 400, "plateau_gbps"},
	{"mixed", E1, 500, "write_frac"},
	{"checkpoint", E2, 600, "seq_tbps"},
	{"slowdisk", E3, 700, "replaced_frac"},
	{"fgr", E4, 800, "speedup"},
	{"libpio", E5, 900, "job_gain_pct"},
	{"workflow", E6, 1000, "exclusive_over_dc"},
	{"fill", E7, 1100, "empty_over_full"},
	{"incident", E8, 1200, "recovered_pct"},
	{"iosi", E9, 1300, "period_ratio"},
	{"tools", E10, 1400, "du_speedup"},
	{"namespaces", E11, 1500, "split_gain"},
	{"blockfs", E12, 1600, "cells"},
	{"purge", E13, 1700, "resident_files"},
	{"upgrade", E14, 1800, "upgrade_ratio"},
	{"monitoring", E15, 1900, "incidents"},
	{"provisioning", E16, 2000, "boot_speedup"},
	{"layers", E17, 2050, "worst_layer_eff"},
	{"hero", Hero, 2025, "namespace_gbps"},
	{"journaling", A1, 2100, "hp_over_sync"},
	{"recovery", A2, 2200, "stall_reduction"},
	{"notification", A3, 2300, "completion_speedup"},
	{"dne", A4, 2400, "dne_speedup"},
	{"stripecount", A5, 2500, "stripe4_over_stripe1"},
	{"alignment", A6, 2600, "aligned_gain"},
	{"compile", A7, 2700, "latency_inflation"},
	{"bursts", A8, 2800, "stagger_gain"},
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
