// Package tools implements the scalable file system utilities of §VI-C:
// LustreDU (server-side disk usage that spares the MDS the stat storm a
// standard du causes), and the parallel dcp/dfind/dtar developed with
// LLNL/LANL/DDN. Each parallel tool runs on sim.Workers, and at one
// worker it is its single-threaded baseline, so the scaling argument is
// measurable.
package tools

import (
	"fmt"
	"strings"

	"spiderfs/internal/lustre"
	"spiderfs/internal/sim"
	"spiderfs/internal/topology"
)

// TreeSpec populates a directory tree for tool studies.
type TreeSpec struct {
	Dirs        int
	FilesPerDir int
	FileSize    int64
	StripeCount int
	Root        string
}

// Populate creates the tree (charging MDS create/mkdir ops) and preloads
// file sizes without data I/O. Run the engine afterwards to complete the
// metadata operations.
func Populate(fs *lustre.FS, spec TreeSpec) {
	if spec.Root == "" {
		spec.Root = "proj"
	}
	if spec.StripeCount <= 0 {
		spec.StripeCount = 1
	}
	for d := 0; d < spec.Dirs; d++ {
		dir := fmt.Sprintf("%s/d%04d", spec.Root, d)
		fs.MkdirAll(dir, nil)
		for f := 0; f < spec.FilesPerDir; f++ {
			size := spec.FileSize
			fs.Create(fmt.Sprintf("%s/f%04d", dir, f), spec.StripeCount, func(file *lustre.File) {
				per := size / int64(len(file.Objects))
				for _, obj := range file.Objects {
					obj.Preload(per)
				}
			})
		}
	}
}

// DUResult reports a disk-usage scan.
type DUResult struct {
	Bytes    int64
	Files    int
	Duration sim.Time
	MDSOps   uint64 // metadata operations the scan itself cost
}

// SerialDU is the standard du: walk the tree and stat every file, one
// at a time, through the MDS (plus a glimpse per stripe). done receives
// the result when the scan completes.
func SerialDU(fs *lustre.FS, dir *lustre.Dir, done func(DUResult)) {
	eng := fs.Engine()
	files := walk(fs, dir)
	start := eng.Now()
	mdsBefore := fs.MDS.Ops()
	res := DUResult{Files: len(files)}
	sim.Workers(len(files), 1, func(_, i int, next func()) {
		f := files[i]
		fs.Stat(f, func() {
			res.Bytes += f.Size()
			next()
		})
	}, func() {
		res.Duration = eng.Now() - start
		res.MDSOps = fs.MDS.Ops() - mdsBefore
		done(res)
	})
}

// LustreDU is the server-side scan: usage is aggregated from the OSTs
// directly (one query per OST through its OSS), never touching the MDS —
// the tool OLCF runs once per day to enforce usage policy.
func LustreDU(fs *lustre.FS, dir *lustre.Dir, done func(DUResult)) {
	eng := fs.Engine()
	start := eng.Now()
	mdsBefore := fs.MDS.Ops()
	res := DUResult{}
	fs.Walk(dir, func(f *lustre.File) {
		res.Files++
		res.Bytes += f.Size()
	})
	b := sim.NewBarrier(func() {
		res.Duration = eng.Now() - start
		res.MDSOps = fs.MDS.Ops() - mdsBefore
		done(res)
	})
	for i := range fs.OSTs {
		b.Add(1)
		fs.OSSes[fs.OSSOf(i)].Glimpse(b.DoneFunc())
	}
	b.Arm()
}

// walk lists the files under dir (the whole namespace when dir is
// nil) in path order.
func walk(fs *lustre.FS, dir *lustre.Dir) []*lustre.File {
	var files []*lustre.File
	fs.Walk(dir, func(f *lustre.File) { files = append(files, f) })
	return files
}

// FindResult reports a tree search.
type FindResult struct {
	Matches  int
	Visited  int
	Duration sim.Time
}

// DFind is the parallel find: workers consume the entry list
// concurrently, issuing one MDS lookup per entry and overlapping MDS
// latency. At one worker it is the standard find.
func DFind(fs *lustre.FS, dir *lustre.Dir, pred func(*lustre.File) bool, workers int, done func(FindResult)) {
	eng := fs.Engine()
	files := walk(fs, dir)
	start := eng.Now()
	res := FindResult{Visited: len(files)}
	sim.Workers(len(files), workers, func(_, i int, next func()) {
		fs.Open(files[i].Path, func(got *lustre.File) {
			if got != nil && pred(got) {
				res.Matches++
			}
			next()
		})
	}, func() {
		res.Duration = eng.Now() - start
		done(res)
	})
}

// CopyResult reports a copy or archive job.
type CopyResult struct {
	Files    int
	Bytes    int64
	Duration sim.Time
}

// DCP is the parallel copy: workers move files concurrently (read
// source, write destination). At one worker it is the standard cp -r.
func DCP(fs *lustre.FS, files []*lustre.File, destPrefix string, workers int, done func(CopyResult)) {
	eng := fs.Engine()
	client := lustre.NewClient(-1, topology.Coord{}, fs, lustre.NullTransport{Eng: eng})
	start := eng.Now()
	res := CopyResult{}
	sim.Workers(len(files), workers, func(_, i int, next func()) {
		src := files[i]
		fs.Create(destPrefix+"/"+strings.ReplaceAll(src.Path, "/", "_"), src.StripeCount(), func(dst *lustre.File) {
			copyFile(client, &res, src, dst, next)
		})
	}, func() {
		res.Duration = eng.Now() - start
		done(res)
	})
}

// DTar overlaps file reads with archive writing using parallel readers;
// the archive itself remains a single append stream. At one reader it
// is the standard tar.
func DTar(fs *lustre.FS, files []*lustre.File, archivePath string, readers int, done func(CopyResult)) {
	eng := fs.Engine()
	client := lustre.NewClient(-2, topology.Coord{}, fs, lustre.NullTransport{Eng: eng})
	res := CopyResult{}
	fs.Create(archivePath, 4, func(archive *lustre.File) {
		start := eng.Now()
		sim.Workers(len(files), readers, func(_, i int, next func()) {
			copyFile(client, &res, files[i], archive, next)
		}, func() {
			res.Duration = eng.Now() - start
			done(res)
		})
	})
}

// copyFile is the step cp and tar share: read src whole, write it to
// dst in 1 MiB RPCs, count the file into res and call next.
func copyFile(client *lustre.Client, res *CopyResult, src, dst *lustre.File, next func()) {
	size := src.Size()
	if size == 0 {
		res.Files++
		next()
		return
	}
	client.ReadStream(src, size, 1<<20, false, func(int64) {
		client.WriteStream(dst, size, 1<<20, func(int64) {
			res.Files++
			res.Bytes += size
			next()
		})
	})
}
