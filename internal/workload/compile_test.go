package workload

import (
	"testing"

	"spiderfs/internal/sim"
)

func TestRunCompileCompletes(t *testing.T) {
	fs := mkTestFS(60)
	var res CompileResult
	RunCompile(fs, func(r CompileResult) { res = r })
	fs.Engine().Run()
	if res.Duration <= 0 {
		t.Fatal("compile never finished")
	}
	// Every source costs its header lookups plus one create.
	if want := uint64(compileSources * (compileStatsPerFile + 1)); res.MDSOps < want {
		t.Fatalf("MDS ops = %d, want >=%d", res.MDSOps, want)
	}
	if fs.NumFiles < compileSources {
		t.Fatalf("object files = %d", fs.NumFiles)
	}
}

// The §VII warning quantified: a compile on the scratch file system
// inflates other users' metadata latency.
func TestCompileDegradesOtherUsersMetadataLatency(t *testing.T) {
	probe := func(withCompile bool) sim.Time {
		fs := mkTestFS(61)
		eng := fs.Engine()
		if withCompile {
			RunCompile(fs, nil)
		}
		var mean sim.Time
		MetadataLatencyProbe(fs, "user/data", 50, func(m sim.Time) { mean = m })
		eng.Run()
		return mean
	}
	quiet := probe(false)
	busy := probe(true)
	if quiet <= 0 || busy <= 0 {
		t.Fatalf("probes: quiet=%v busy=%v", quiet, busy)
	}
	ratio := float64(busy) / float64(quiet)
	if ratio < 3 {
		t.Fatalf("compile inflated stat latency only %.1fx (%v -> %v); the MDS storm should hurt", ratio, quiet, busy)
	}
}
