// Command compare runs two built benchmark binaries against each other
// and judges every (end-to-end metric, workload) pair by the rules in
// bench/README.md. From the bench directory:
//
//	go run ./compare -parent "$PARENT"/.bench_build/spiderbench \
//	    -change ../.bench_build/spiderbench -claim wall_s@paper-storage
//
// For each workload it runs -pairs pairs, alternating which side goes
// first, each pair on its own held-out seed. Each row gives both sides'
// median and quartiles, the fraction of pairs the change won, and a
// verdict:
//
//   - claim met / claim not met: for the claimed pairs, the change must
//     win at least 9 in 10 pairs and its median must differ from the
//     parent's by more than the parent's interquartile range;
//   - regression: the change's median is worse by more than the bound;
//   - unresolved: a side's spread is wider than the bound, unless every
//     change run beat every parent run;
//   - within bound: none of the above.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// spec is the part of BENCHMARK.json the comparison needs.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// verdictLine is the JSON line a benchmark run ends with.
type verdictLine struct {
	Correct bool `json:"correct"`
	Failed  int  `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("compare", flag.ContinueOnError)
	fl.SetOutput(stderr)
	parent := fl.String("parent", "", "benchmark binary built from the parent commit")
	change := fl.String("change", "", "benchmark binary built from the change")
	benchJSON := fl.String("bench", "../BENCHMARK.json", "the benchmark definition with the metrics' bounds")
	pairs := fl.Int("pairs", 10, "pairs per workload (at least 10)")
	seed := fl.Uint64("seed", 1000, "seed of the first pair; pair k uses seed+k")
	claims := fl.String("claim", "", "comma-separated metric@workload pairs the change claims to improve")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *parent == "" || *change == "" || *pairs < 10 {
		fmt.Fprintln(stderr, "compare: need -parent, -change and -pairs of at least 10")
		return 2
	}
	var def spec
	data, err := os.ReadFile(*benchJSON)
	if err == nil {
		err = json.Unmarshal(data, &def)
	}
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	claimed := strings.Split(*claims, ",")

	fmt.Fprintf(stdout, "%-14s %-12s %30s %30s %6s  %s\n", "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins", "verdict")
	status := 0
	for _, w := range def.Workloads {
		sides := [2][]verdictLine{}
		for k := 0; k < *pairs; k++ {
			bins := [2]string{*parent, *change}
			order := [2]int{0, 1}
			if k%2 == 1 {
				order = [2]int{1, 0}
			}
			for _, side := range order {
				v, err := runOnce(bins[side], w.Name, *seed+uint64(k), def.RunSeconds)
				if err != nil {
					fmt.Fprintf(stderr, "compare: %s pair %d: %v\n", w.Name, k, err)
					return 1
				}
				sides[side] = append(sides[side], v)
			}
		}
		if msg := failures(sides); msg != "" {
			fmt.Fprintf(stdout, "%-14s %s\n", w.Name, msg)
			status = 1
		}
		for _, m := range def.EndToEnd {
			p, c := values(sides[0], m.Name), values(sides[1], m.Name)
			row := judge(m, p, c, contains(claimed, m.Name+"@"+w.Name))
			fmt.Fprintf(stdout, "%-14s %-12s %30s %30s %5.0f%%  %s\n", w.Name, m.Name,
				summary(p), summary(c), row.wins*100, row.verdict)
			if row.verdict == "regression" || row.verdict == "claim not met" {
				status = 1
			}
		}
	}
	return status
}

// runOnce runs one benchmark binary and parses its verdict line.
func runOnce(bin, workload string, seed uint64, seconds int) (verdictLine, error) {
	var v verdictLine
	cmd := exec.Command(bin, "--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		return v, err
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &v); err != nil {
		return v, fmt.Errorf("%s printed no verdict line: %w", bin, err)
	}
	return v, nil
}

// failures reports runs that were incorrect, and a change that fails
// more ops than its parent: a gain does not count then.
func failures(sides [2][]verdictLine) string {
	var failed [2]int
	var wrong [2]int
	for s := range sides {
		for _, v := range sides[s] {
			failed[s] += v.Failed
			if !v.Correct {
				wrong[s]++
			}
		}
	}
	if wrong[0]+wrong[1] > 0 || failed[1] > failed[0] {
		return fmt.Sprintf("incorrect runs: parent %d, change %d; failed ops: parent %d, change %d",
			wrong[0], wrong[1], failed[0], failed[1])
	}
	return ""
}

func values(runs []verdictLine, metric string) []float64 {
	out := make([]float64, len(runs))
	for i, v := range runs {
		out[i] = v.Metrics[metric].Value
	}
	return out
}

// quartiles returns the first quartile, the median and the third
// quartile of xs the way Python's statistics.quantiles(xs, n=4) does
// (the default "exclusive" method), which is how the bounds are set.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	if n < 2 {
		return d[0], d[0], d[0]
	}
	q := [3]float64{}
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

func summary(xs []float64) string {
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", q2, q1, q3)
}

type row struct {
	wins    float64
	verdict string
}

// judge applies the rules to one (metric, workload) pair. p and c are
// index-aligned: pair k's parent and change values.
func judge(m metricSpec, p, c []float64, claimed bool) row {
	// worse > 0 means the change's value is worse than the parent's.
	worse := func(parent, change float64) float64 {
		if m.Better == "higher" {
			return parent - change
		}
		return change - parent
	}
	wins := 0
	for k := range p {
		if worse(p[k], c[k]) < 0 {
			wins++
		}
	}
	r := row{wins: float64(wins) / float64(len(p))}
	pq1, pmed, pq3 := quartiles(p)
	cq1, cmed, cq3 := quartiles(c)
	if claimed {
		r.verdict = "claim not met"
		if r.wins >= 0.9 && -worse(pmed, cmed) > pq3-pq1 {
			r.verdict = "claim met"
		}
		return r
	}
	allBetter := true
	for _, pv := range p {
		for _, cv := range c {
			if worse(pv, cv) >= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case worse(pmed, cmed) > m.Bound*pmed:
		r.verdict = "regression"
	case allBetter:
		r.verdict = "better in every run"
	case (pq3-pq1)/pmed > m.Bound || (cq3-cq1)/cmed > m.Bound:
		r.verdict = "unresolved"
	default:
		r.verdict = "within bound"
	}
	return r
}

func contains(xs []string, x string) bool {
	for _, s := range xs {
		if s == x {
			return true
		}
	}
	return false
}
