// Package experiment holds the one definition of each paper study that
// both the root benchmarks and `spidersim <study>` run: Figs. 3 and 4,
// E1, E2, E3, E6, E8, E11, E13 and the A2 imperative-recovery
// ablation. Each study takes a base seed (derived streams add small
// offsets to it) and returns its title, its rendered table and its
// headline value, so a benchmark at seed S and `spidersim <study>
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
	Name string // the spidersim subcommand
	Run  func(seed uint64) Result
	Seed uint64 // the base seed the root benchmark and EXPERIMENTS.md use
	Unit string // the unit the benchmark reports Headline under
}

// Studies lists every study in paper order.
var Studies = []Study{
	{"fig3", Fig3, 300, "peak-GB/s"},
	{"fig4", Fig4, 400, "plateau-GB/s"},
	{"mixed", E1, 500, "write-frac"},
	{"checkpoint", E2, 600, "TB/s-req"},
	{"slowdisk", E3, 700, "replaced-frac"},
	{"workflow", E6, 1000, "exclusive/dc-time"},
	{"incident", E8, 1200, "recovery-%"},
	{"namespaces", E11, 1500, "split-gain"},
	{"purge", E13, 1700, "resident-files"},
	{"recovery", A2, 2200, "stall-reduction"},
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
