package experiment

import (
	"encoding/binary"
	"go/parser"
	"go/token"
	"hash/fnv"
	"math"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"spiderfs/internal/sim"
	"spiderfs/internal/sweep"
)

// aggregateHash is FNV-1a over every field of every aggregate row, in
// order: the name, n, then the float64 bits of mean, stddev, min, max,
// p50 and the 95% CI half-width, little-endian. Equal hashes mean the
// merged statistics agree bit for bit.
func aggregateHash(ms []sweep.MetricStats) uint64 {
	h := fnv.New64a()
	var b [8]byte
	w64 := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(b[:0], v)) }
	for _, m := range ms {
		h.Write([]byte(m.Name))
		w64(uint64(m.N))
		for _, v := range []float64{m.Mean, m.Stddev, m.Min, m.Max, m.P50, m.CI95} {
			w64(math.Float64bits(v))
		}
	}
	return h.Sum64()
}

// sweepPins are each Sweeps() entry's report fingerprint and
// aggregateHash at seed 42 and its full replica count.
var sweepPins = []struct {
	label                  string
	fingerprint, aggregate uint64
}{
	{"e3-slowdisk", 0xdc7aa66bacbb2327, 0xfd141d125972aa1f},
	{"e13-purge", 0x8aefe670f0273ee2, 0x453fcca1c4485dc6},
	{"e18-chaos", 0x166019643672046e, 0xd0a6a04e6466e559},
	{"e19-scrub-off", 0x127e98ffe5db3ba8, 0xd7c766f9b3f5804d},
	{"e19-scrub-default", 0xa4ad2a97cbf7ccfe, 0x1e4727b38f8983f7},
	{"e19-scrub-slow", 0x254431269b6b455c, 0xdd2d0bb956582386},
}

// runBoth runs e at seed serially and on 4 workers and fails unless the
// two merged reports are byte-identical and no replica failed. It
// returns the 4-worker result.
func runBoth(t *testing.T, e sweep.Entry, seed uint64) *sweep.Result {
	t.Helper()
	const workers = 4
	serial, err := sweep.Run(e, seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := sweep.Run(e, seed, workers)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Report() != parallel.Report() {
		t.Errorf("%s: serial and %d-worker reports differ:\n%s\nvs\n%s",
			e.Label, workers, serial.Report(), parallel.Report())
	}
	if parallel.Errors != 0 {
		t.Errorf("%s: %d failed replicas", e.Label, parallel.Errors)
	}
	return parallel
}

// TestSweepSuiteDeterministic runs every Sweeps() entry, trimmed to 3
// replicas, on its real replica bodies at a seed other than the pins'
// one: each must run serially and on 4 workers to the same report with
// no failed replica, and report merged metrics under its own label.
func TestSweepSuiteDeterministic(t *testing.T) {
	want := []string{"e3-slowdisk", "e13-purge", "e18-chaos", "e19-scrub-off", "e19-scrub-default", "e19-scrub-slow"}
	var labels []string
	for _, e := range Sweeps() {
		labels = append(labels, e.Label)
		e.Replicas = 3
		r := runBoth(t, e, 7)
		if len(r.Aggregate()) == 0 {
			t.Errorf("%s: no merged metrics", e.Label)
		}
		if !strings.Contains(r.Report(), e.Label) {
			t.Errorf("%s: report omits its label", e.Label)
		}
	}
	if !slices.Equal(labels, want) {
		t.Fatalf("Sweeps() is %v, want %v", labels, want)
	}
}

// TestSweepsPinnedDeterministic runs every Sweeps() entry on its real
// replica bodies at seed 42 and full replica count through runBoth,
// and pins each fingerprint and merged statistics; the E19 means must
// then pass checkIntegrityPlane.
func TestSweepsPinnedDeterministic(t *testing.T) {
	const seed = 42
	entries := Sweeps()
	if len(entries) != len(sweepPins) {
		t.Fatalf("%d sweeps, %d pins", len(entries), len(sweepPins))
	}
	means := map[string]float64{} // "label/metric" -> replica mean
	for i, e := range entries {
		pin := sweepPins[i]
		if e.Label != pin.label {
			t.Fatalf("sweep %d is %s, pin is for %s", i, e.Label, pin.label)
		}
		r := runBoth(t, e, seed)
		if got := r.Fingerprint(); got != pin.fingerprint {
			t.Errorf("%s: fingerprint %016x, want %016x", e.Label, got, pin.fingerprint)
		}
		agg := r.Aggregate()
		if got := aggregateHash(agg); got != pin.aggregate {
			t.Errorf("%s: aggregate hash %#x, want %#x", e.Label, got, pin.aggregate)
		}
		for _, m := range agg {
			means[e.Label+"/"+m.Name] = m.Mean
		}
	}
	checkIntegrityPlane(t, means)
}

// TestIntegritySuiteDeterministic runs the three E19 entries at full
// replicas at a seed other than the pins' one through runBoth, and
// holds their means to checkIntegrityPlane: the integrity claim must
// not be an accident of one seed.
func TestIntegritySuiteDeterministic(t *testing.T) {
	entries := SelectSweeps("e19")
	if len(entries) != 3 {
		t.Fatalf("%d e19 sweeps, want off/default/slow", len(entries))
	}
	means := map[string]float64{}
	for _, e := range entries {
		for _, m := range runBoth(t, e, 7).Aggregate() {
			means[e.Label+"/"+m.Name] = m.Mean
		}
	}
	checkIntegrityPlane(t, means)
}

// checkIntegrityPlane holds the E19 means ("label/metric" keys) to what
// the integrity plane promises at the 30 s default scrub interval: no
// undetected corrupt read, against a positive exposure without
// scrubbing, fewer latent hits on rebuild, and a read-latency tax of at
// most 25%.
func checkIntegrityPlane(t *testing.T, means map[string]float64) {
	t.Helper()
	if DefaultScrubInterval != 30*sim.Second {
		t.Errorf("DefaultScrubInterval %v, want 30 s", DefaultScrubInterval)
	}
	if got := means["e19-scrub-default/undetected_reads"]; got != 0 {
		t.Errorf("undetected reads at the default interval %v, want exactly 0", got)
	}
	if got := means["e19-scrub-off/undetected_reads"]; got <= 0 {
		t.Errorf("undetected reads unscrubbed %v: the baseline shows no exposure", got)
	}
	if off, def := means["e19-scrub-off/rebuild_latent_hits"], means["e19-scrub-default/rebuild_latent_hits"]; off <= def {
		t.Errorf("rebuild latent hits unscrubbed %v not above default %v", off, def)
	}
	overhead := means["e19-scrub-default/mean_read_ms"]/means["e19-scrub-off/mean_read_ms"] - 1
	if !(overhead > 0 && overhead <= 0.25) {
		t.Errorf("scrub read-latency overhead %v, want in (0, 0.25]", overhead)
	}
}

// TestModelPackagesDoNotImportSweep keeps the sweep definitions in this
// package: the models the sweep bodies run (qa, purge, chaos, raid)
// expose plain entry points and never import the sweep runner
// themselves.
func TestModelPackagesDoNotImportSweep(t *testing.T) {
	const runner = "spiderfs/internal/sweep"
	for _, pkg := range []string{"qa", "purge", "chaos", "raid"} {
		files, err := filepath.Glob(filepath.Join("..", pkg, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) == 0 {
			t.Fatalf("internal/%s: no Go files found", pkg)
		}
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			parsed, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range parsed.Imports {
				if path, _ := strconv.Unquote(imp.Path.Value); path == runner {
					t.Errorf("%s imports %s: seed sweeps belong in internal/experiment", f, runner)
				}
			}
		}
	}
}
