// Command lustredu contrasts the standard du (a stat per file through
// the MDS) with the server-side LustreDU scan on a populated namespace
// (§VI-C, Lesson 19).
package main

import (
	"flag"
	"fmt"

	"spiderfs/internal/lustre"
	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
	"spiderfs/internal/tools"
)

func main() {
	dirs := flag.Int("dirs", 50, "directories to populate")
	filesPer := flag.Int("files", 100, "files per directory")
	fileMB := flag.Int64("filemb", 16, "file size in MiB")
	seed := flag.Uint64("seed", 42, "random seed")
	flag.Parse()

	eng := sim.NewEngine()
	fs := lustre.Build(eng, lustre.TestNamespace(), rng.New(*seed))
	tools.Populate(fs, tools.TreeSpec{
		Dirs: *dirs, FilesPerDir: *filesPer, FileSize: *fileMB << 20, StripeCount: 2,
	})
	eng.Run()
	fmt.Printf("namespace: %d files, %.1f GiB used\n", fs.NumFiles,
		float64(fs.TotalUsed())/(1<<30))

	var serial, server tools.DUResult
	tools.SerialDU(fs, nil, func(r tools.DUResult) { serial = r })
	eng.Run()
	tools.LustreDU(fs, nil, func(r tools.DUResult) { server = r })
	eng.Run()

	fmt.Printf("\n%-12s %12s %10s %10s\n", "tool", "bytes", "wall", "MDS ops")
	fmt.Printf("%-12s %12d %10v %10d\n", "du (serial)", serial.Bytes, serial.Duration, serial.MDSOps)
	fmt.Printf("%-12s %12d %10v %10d\n", "LustreDU", server.Bytes, server.Duration, server.MDSOps)
	fmt.Printf("\nspeedup: %.1fx; MDS spared %d operations\n",
		float64(serial.Duration)/float64(server.Duration), serial.MDSOps)
}
