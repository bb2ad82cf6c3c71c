// Command dtools benchmarks the parallel file tools (dcp, dfind, dtar)
// against their single-threaded baselines on a populated namespace
// (§VI-C: "standard Linux tools do not work well at scale"), then the
// standard du (a stat per file through the MDS) against the server-side
// LustreDU scan of the same tree (Lesson 19).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"spiderfs/internal/lustre"
	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
	"spiderfs/internal/tools"
)

// Bounds on the populated tree: at most maxFiles files of at most
// maxFileMB MiB each, so every size and the tree's byte total fit in an
// int64. -workers is bounded by maxFiles too: a worker beyond the file
// count has nothing to do.
const (
	maxFiles  = 1 << 20
	maxFileMB = 1 << 22
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("dtools", flag.ContinueOnError)
	flags.SetOutput(stderr)
	dirs := flags.Int("dirs", 8, "directories")
	filesPer := flags.Int("files", 16, "files per directory")
	fileMB := flags.Int64("filemb", 8, "file size in MiB")
	workers := flags.Int("workers", 8, "parallel tool worker count")
	seed := flags.Uint64("seed", 42, "random seed")
	if err := flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	switch {
	case *dirs < 1 || *filesPer < 1:
		return fail(stderr, "-dirs and -files must be at least 1")
	case *filesPer > maxFiles / *dirs:
		return fail(stderr, "-dirs x -files must be at most %d files", maxFiles)
	case *fileMB < 1 || *fileMB > maxFileMB:
		return fail(stderr, "-filemb must be in [1, %d]", maxFileMB)
	case *workers < 1 || *workers > maxFiles:
		return fail(stderr, "-workers must be in [1, %d]", maxFiles)
	}
	eng := sim.NewEngine()
	fs := lustre.Build(eng, lustre.TestNamespace(), rng.New(*seed))
	if tree := int64(*dirs) * int64(*filesPer) * (*fileMB << 20); tree > fs.TotalCapacity() {
		return fail(stderr, "-dirs x -files x -filemb is %.1f GiB, more than the namespace's %.1f GiB",
			float64(tree)/(1<<30), float64(fs.TotalCapacity())/(1<<30))
	}
	tools.Populate(fs, tools.TreeSpec{
		Dirs: *dirs, FilesPerDir: *filesPer, FileSize: *fileMB << 20, StripeCount: 2,
	})
	eng.Run()
	// du runs first, on the populated tree alone, and prints last.
	var du, ldu tools.DUResult
	tools.SerialDU(fs, nil, func(r tools.DUResult) { du = r })
	eng.Run()
	tools.LustreDU(fs, nil, func(r tools.DUResult) { ldu = r })
	eng.Run()
	var files []*lustre.File
	fs.Walk(nil, func(f *lustre.File) { files = append(files, f) })
	fmt.Fprintf(stdout, "namespace: %d files, %.1f GiB\n\n", len(files), float64(fs.TotalUsed())/(1<<30))
	fmt.Fprintf(stdout, "%-8s %14s %14s %9s\n", "tool", "serial", fmt.Sprintf("parallel(x%d)", *workers), "speedup")

	// find
	pred := func(f *lustre.File) bool { return strings.HasSuffix(f.Path, "1") }
	var sf, pf tools.FindResult
	tools.DFind(fs, nil, pred, 1, func(r tools.FindResult) { sf = r })
	eng.Run()
	tools.DFind(fs, nil, pred, *workers, func(r tools.FindResult) { pf = r })
	eng.Run()
	row(stdout, "find", sf.Duration, pf.Duration)

	// cp
	var sc, pc tools.CopyResult
	tools.DCP(fs, files, "dst-serial", 1, func(r tools.CopyResult) { sc = r })
	eng.Run()
	tools.DCP(fs, files, "dst-dcp", *workers, func(r tools.CopyResult) { pc = r })
	eng.Run()
	row(stdout, "cp", sc.Duration, pc.Duration)

	// tar
	var st, pt tools.CopyResult
	tools.DTar(fs, files, "arch/serial.tar", 1, func(r tools.CopyResult) { st = r })
	eng.Run()
	tools.DTar(fs, files, "arch/par.tar", *workers, func(r tools.CopyResult) { pt = r })
	eng.Run()
	row(stdout, "tar", st.Duration, pt.Duration)

	fmt.Fprintf(stdout, "%-8s %14v %14v %8.1fx  (LustreDU; MDS ops %d -> %d)\n", "du",
		du.Duration, ldu.Duration, float64(du.Duration)/float64(ldu.Duration), du.MDSOps, ldu.MDSOps)
	return 0
}

func row(stdout io.Writer, name string, serial, parallel sim.Time) {
	fmt.Fprintf(stdout, "%-8s %14v %14v %8.1fx\n", name, serial, parallel,
		float64(serial)/float64(parallel))
}

// fail reports a flag the benchmark cannot honour and returns its exit code, 2.
func fail(stderr io.Writer, format string, args ...any) int {
	fmt.Fprintf(stderr, "dtools: "+format+"\n", args...)
	return 2
}
