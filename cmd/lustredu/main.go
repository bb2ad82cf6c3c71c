// Command lustredu contrasts the standard du (a stat per file through
// the MDS) with the server-side LustreDU scan on a populated namespace
// (§VI-C, Lesson 19).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"spiderfs/internal/lustre"
	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
	"spiderfs/internal/tools"
)

// Bounds on the populated tree: at most maxFiles files of at most
// maxFileMB MiB each, so every size and the tree's byte total fit in an
// int64.
const (
	maxFiles  = 1 << 20
	maxFileMB = 1 << 22
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("lustredu", flag.ContinueOnError)
	flags.SetOutput(stderr)
	dirs := flags.Int("dirs", 50, "directories to populate")
	filesPer := flags.Int("files", 100, "files per directory")
	fileMB := flags.Int64("filemb", 8, "file size in MiB")
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
	fmt.Fprintf(stdout, "namespace: %d files, %.1f GiB used\n", fs.NumFiles,
		float64(fs.TotalUsed())/(1<<30))

	var serial, server tools.DUResult
	tools.SerialDU(fs, nil, func(r tools.DUResult) { serial = r })
	eng.Run()
	tools.LustreDU(fs, nil, func(r tools.DUResult) { server = r })
	eng.Run()

	fmt.Fprintf(stdout, "\n%-12s %12s %10s %10s\n", "tool", "bytes", "wall", "MDS ops")
	fmt.Fprintf(stdout, "%-12s %12d %10v %10d\n", "du (serial)", serial.Bytes, serial.Duration, serial.MDSOps)
	fmt.Fprintf(stdout, "%-12s %12d %10v %10d\n", "LustreDU", server.Bytes, server.Duration, server.MDSOps)
	fmt.Fprintf(stdout, "\nspeedup: %.1fx; MDS spared %d operations\n",
		float64(serial.Duration)/float64(server.Duration), serial.MDSOps)
	return 0
}

// fail reports a flag the scan cannot honour and returns its exit code, 2.
func fail(stderr io.Writer, format string, args ...any) int {
	fmt.Fprintf(stderr, "lustredu: "+format+"\n", args...)
	return 2
}
