// Command bench is the repository benchmark. It runs one workload of the
// simulator with a fixed amount of work, measures the host time, memory
// and allocations it takes, checks the simulated results, and prints its
// metrics, the last line being one JSON object:
//
//	bash bench/run.sh --workload paper-storage --seed 42 --seconds 10 --trace 0
//
// --trace 1 runs the workload untraced and then traced, runs the probe
// ladder, prints the per-layer metrics and writes the traced run's spans
// to <spans>/<workload>.spans.json. README.md describes the workloads,
// the metrics and the run protocol.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/big"
	"os"
	"strconv"
)

// calibratedSeconds is the --seconds value the work is sized for: at it,
// each workload runs its documented fixed work (options.work == 1).
const calibratedSeconds = 10

//go:embed fingerprints.json
var fingerprintsJSON []byte

// recorded is fingerprints.json: what a run at the recorded seed and
// length must reproduce.
type recorded struct {
	Seed      uint64                  `json:"seed"`
	Seconds   int                     `json:"seconds"`
	Workloads map[string]*expectation `json:"workloads"`
}

var workloads = []workload{paperStorage, fabricWaves, chaosWeek, serveMix}

func main() { os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr)) }

func cli(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("bench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "paper-storage, fabric-waves, chaos-week or serve-mix")
	seed := seedValue(42)
	fl.Var(&seed, "seed", "seed the workload's inputs are made from: any integer, taken modulo 2^64")
	seconds := fl.Int("seconds", calibratedSeconds, "run length the work is scaled to (seconds on a 2-CPU host)")
	trace := fl.Int("trace", 0, "1 runs traced and prints the per-layer metrics")
	spans := fl.String("spans", ".bench_build/spans", "directory a traced run writes <workload>.spans.json to")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) || fl.NArg() > 0 {
		fmt.Fprintln(stderr, "usage: bench --workload paper-storage|fabric-waves|chaos-week|serve-mix [--seed N] [--seconds N] [--trace 0|1] [--spans DIR]")
		return 2
	}
	var rec recorded
	if err := json.Unmarshal(fingerprintsJSON, &rec); err != nil {
		fmt.Fprintln(stderr, "bench: fingerprints.json:", err)
		return 2
	}
	o := options{seed: uint64(seed), work: float64(*seconds) / calibratedSeconds}
	if o.seed == rec.Seed && *seconds == rec.Seconds {
		o.expect = rec.Workloads[w.name]
	}

	return execute(*w, o, *trace == 1, *spans, stdout, stderr)
}

// seedValue is the --seed flag. It takes any integer, negative or wider
// than 64 bits included, modulo 2^64, so no seed a caller picks is
// refused.
type seedValue uint64

func (s *seedValue) String() string { return strconv.FormatUint(uint64(*s), 10) }

func (s *seedValue) Set(v string) error {
	n, ok := new(big.Int).SetString(v, 0)
	if !ok {
		return fmt.Errorf("%q is not an integer", v)
	}
	// And keeps the low 64 bits of the two's complement, negatives too.
	*s = seedValue(n.And(n, new(big.Int).SetUint64(math.MaxUint64)).Uint64())
	return nil
}

// execute runs the workload once, untraced or traced, and reports.
func execute(w workload, o options, trace bool, spansDir string, stdout, stderr io.Writer) int {
	var r *result
	var ms []metric
	var err error
	if trace {
		var tr *tracer
		if r, ms, tr, err = traced(w, o); err == nil {
			var path string
			if path, err = tr.write(spansDir, w.name, o.seed); err == nil {
				fmt.Fprintf(stdout, "spans: %d in %s\n", len(tr.spans), path)
			}
		}
	} else if r, err = measure(w, o, nil, setupReps); err == nil {
		ms = endToEnd(r)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return report(stdout, stderr, w.name, r, ms)
}

// report prints the human-readable lines and then the verdict line, and
// returns the exit code: 1 when the simulated results are wrong.
func report(stdout, stderr io.Writer, name string, r *result, ms []metric) int {
	out := r.out
	fmt.Fprintf(stdout, "%s: %d ops, %d failed, fingerprint %s\n", name, out.attempted, out.failed, out.fingerprint())
	for _, h := range out.headlines {
		fmt.Fprintf(stdout, "headline %s %s\n", h.name, strconv.FormatFloat(h.value, 'g', -1, 64))
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	values := make(map[string]value, len(ms))
	for _, m := range ms {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			out.problem("metric %s is not a number", m.name)
			m.value = 0
		}
		fmt.Fprintln(stdout, m)
		values[m.name] = value{m.value, m.unit}
	}
	for _, p := range out.problems {
		fmt.Fprintln(stderr, "problem:", p)
	}
	correct := len(out.problems) == 0
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, out.attempted, out.failed, values})
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !correct {
		return 1
	}
	return 0
}
