package tools

import (
	"strings"
	"testing"

	"spiderfs/internal/lustre"
	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
)

func populated(t *testing.T, seed uint64, dirs, filesPerDir int) (*sim.Engine, *lustre.FS) {
	t.Helper()
	eng := sim.NewEngine()
	fs := lustre.Build(eng, lustre.TestNamespace(), rng.New(seed))
	Populate(fs, TreeSpec{Dirs: dirs, FilesPerDir: filesPerDir, FileSize: 4 << 20, StripeCount: 2})
	eng.Run()
	return eng, fs
}

func TestPopulateShape(t *testing.T) {
	_, fs := populated(t, 1, 5, 10)
	if fs.NumFiles != 50 {
		t.Fatalf("files = %d", fs.NumFiles)
	}
	count := 0
	var bytes int64
	fs.Walk(nil, func(f *lustre.File) { count++; bytes += f.Size() })
	if count != 50 {
		t.Fatalf("walk found %d", count)
	}
	if bytes != 50*4<<20 {
		t.Fatalf("bytes = %d", bytes)
	}
}

func TestSerialDUvsLustreDU(t *testing.T) {
	eng, fs := populated(t, 2, 10, 20)
	var serial, server DUResult
	SerialDU(fs, nil, func(r DUResult) { serial = r })
	eng.Run()
	LustreDU(fs, nil, func(r DUResult) { server = r })
	eng.Run()

	if serial.Bytes != server.Bytes || serial.Files != server.Files {
		t.Fatalf("results disagree: serial=%+v server=%+v", serial, server)
	}
	if serial.Bytes != 200*4<<20 {
		t.Fatalf("bytes = %d", serial.Bytes)
	}
	// The whole point: du hammers the MDS (one stat per file), LustreDU
	// does not touch it.
	if serial.MDSOps < 200 {
		t.Fatalf("serial du issued only %d MDS ops", serial.MDSOps)
	}
	if server.MDSOps != 0 {
		t.Fatalf("LustreDU issued %d MDS ops, want 0", server.MDSOps)
	}
	if server.Duration >= serial.Duration {
		t.Fatalf("LustreDU (%v) not faster than du (%v)", server.Duration, serial.Duration)
	}
	if float64(serial.Duration)/float64(server.Duration) < 5 {
		t.Fatalf("speedup only %.1fx", float64(serial.Duration)/float64(server.Duration))
	}
}

func TestDFindSpeedupAndSameAnswer(t *testing.T) {
	eng, fs := populated(t, 3, 10, 20)
	pred := func(f *lustre.File) bool { return strings.HasSuffix(f.Path, "3") }
	var serial, parallel FindResult
	DFind(fs, nil, pred, 1, func(r FindResult) { serial = r })
	eng.Run()
	DFind(fs, nil, pred, 8, func(r FindResult) { parallel = r })
	eng.Run()
	if serial.Matches != parallel.Matches || serial.Visited != parallel.Visited {
		t.Fatalf("answers differ: %+v vs %+v", serial, parallel)
	}
	if serial.Matches == 0 {
		t.Fatal("predicate matched nothing; test is vacuous")
	}
	speedup := float64(serial.Duration) / float64(parallel.Duration)
	if speedup < 3 {
		t.Fatalf("dfind speedup = %.1fx with 8 workers", speedup)
	}
}

func TestDCPSpeedupAndIntegrity(t *testing.T) {
	eng, fs := populated(t, 4, 4, 8)
	var files []*lustre.File
	fs.Walk(nil, func(f *lustre.File) { files = append(files, f) })

	var serial CopyResult
	DCP(fs, files, "copy-serial", 1, func(r CopyResult) { serial = r })
	eng.Run()
	var parallel CopyResult
	DCP(fs, files, "copy-dcp", 8, func(r CopyResult) { parallel = r })
	eng.Run()

	if serial.Files != 32 || parallel.Files != 32 {
		t.Fatalf("file counts: %d / %d", serial.Files, parallel.Files)
	}
	if serial.Bytes != parallel.Bytes {
		t.Fatalf("bytes differ: %d vs %d", serial.Bytes, parallel.Bytes)
	}
	speedup := float64(serial.Duration) / float64(parallel.Duration)
	if speedup < 2 {
		t.Fatalf("dcp speedup = %.1fx with 8 workers", speedup)
	}
}

func TestDTarSpeedup(t *testing.T) {
	eng, fs := populated(t, 5, 4, 8)
	var files []*lustre.File
	fs.Walk(nil, func(f *lustre.File) { files = append(files, f) })

	var serial CopyResult
	DTar(fs, files, "arch/serial.tar", 1, func(r CopyResult) { serial = r })
	eng.Run()
	var parallel CopyResult
	DTar(fs, files, "arch/dtar.tar", 8, func(r CopyResult) { parallel = r })
	eng.Run()

	if serial.Files != parallel.Files || serial.Bytes != parallel.Bytes {
		t.Fatalf("results differ: %+v vs %+v", serial, parallel)
	}
	if parallel.Duration >= serial.Duration {
		t.Fatalf("dtar (%v) not faster than tar (%v)", parallel.Duration, serial.Duration)
	}
}

func TestCopyEmptyList(t *testing.T) {
	eng, fs := populated(t, 6, 1, 1)
	ran := false
	DCP(fs, nil, "dst", 1, func(r CopyResult) { ran = r.Files == 0 })
	eng.Run()
	if !ran {
		t.Fatal("empty copy never completed")
	}
}
