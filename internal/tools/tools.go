// Package tools implements the scalable file system utilities of §VI-C:
// LustreDU (server-side disk usage that spares the MDS the stat storm a
// standard du causes), and the parallel dcp/dfind/dtar developed with
// LLNL/LANL/DDN, each next to its single-threaded baseline so the
// scaling argument is measurable.
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
	var files []*lustre.File
	fs.Walk(dir, func(f *lustre.File) { files = append(files, f) })
	start := eng.Now()
	mdsBefore := fs.MDS.Ops()
	res := DUResult{Files: len(files)}
	var next func(i int)
	next = func(i int) {
		if i == len(files) {
			res.Duration = eng.Now() - start
			res.MDSOps = fs.MDS.Ops() - mdsBefore
			done(res)
			return
		}
		f := files[i]
		fs.Stat(f, func() {
			res.Bytes += f.Size()
			next(i + 1)
		})
	}
	next(0)
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

// FindResult reports a tree search.
type FindResult struct {
	Matches  int
	Visited  int
	Duration sim.Time
}

// SerialFind walks the tree issuing one MDS lookup per entry,
// sequentially — the standard find.
func SerialFind(fs *lustre.FS, dir *lustre.Dir, pred func(*lustre.File) bool, done func(FindResult)) {
	runFind(fs, dir, pred, 1, done)
}

// DFind is the parallel find: workers consume the entry list
// concurrently, overlapping MDS latency.
func DFind(fs *lustre.FS, dir *lustre.Dir, pred func(*lustre.File) bool, workers int, done func(FindResult)) {
	if workers < 1 {
		workers = 1
	}
	runFind(fs, dir, pred, workers, done)
}

func runFind(fs *lustre.FS, dir *lustre.Dir, pred func(*lustre.File) bool, workers int, done func(FindResult)) {
	eng := fs.Engine()
	var files []*lustre.File
	fs.Walk(dir, func(f *lustre.File) { files = append(files, f) })
	start := eng.Now()
	res := FindResult{Visited: len(files)}
	next := 0
	b := sim.NewBarrier(func() {
		res.Duration = eng.Now() - start
		done(res)
	})
	var worker func()
	worker = func() {
		if next >= len(files) {
			b.Done()
			return
		}
		f := files[next]
		next++
		fs.Open(f.Path, func(got *lustre.File) {
			if got != nil && pred(got) {
				res.Matches++
			}
			worker()
		})
	}
	for i := 0; i < workers; i++ {
		b.Add(1)
		worker()
	}
	b.Arm()
}

// CopyResult reports a copy job.
type CopyResult struct {
	Files    int
	Bytes    int64
	Duration sim.Time
}

// SerialCopy copies files one at a time (read source, write
// destination) — the standard cp -r.
func SerialCopy(fs *lustre.FS, files []*lustre.File, destPrefix string, done func(CopyResult)) {
	runCopy(fs, files, destPrefix, 1, done)
}

// DCP is the parallel copy: workers move files concurrently.
func DCP(fs *lustre.FS, files []*lustre.File, destPrefix string, workers int, done func(CopyResult)) {
	if workers < 1 {
		workers = 1
	}
	runCopy(fs, files, destPrefix, workers, done)
}

func runCopy(fs *lustre.FS, files []*lustre.File, destPrefix string, workers int, done func(CopyResult)) {
	eng := fs.Engine()
	client := lustre.NewClient(-1, topology.Coord{}, fs, lustre.NullTransport{Eng: eng})
	start := eng.Now()
	res := CopyResult{}
	next := 0
	b := sim.NewBarrier(func() {
		res.Duration = eng.Now() - start
		done(res)
	})
	var worker func()
	worker = func() {
		if next >= len(files) {
			b.Done()
			return
		}
		src := files[next]
		next++
		size := src.Size()
		destPath := destPrefix + "/" + sanitize(src.Path)
		fs.Create(destPath, src.StripeCount(), func(dst *lustre.File) {
			if size == 0 {
				res.Files++
				worker()
				return
			}
			client.ReadStream(src, size, 1<<20, false, func(int64) {
				client.WriteStream(dst, size, 1<<20, func(int64) {
					res.Files++
					res.Bytes += size
					worker()
				})
			})
		})
	}
	for i := 0; i < workers; i++ {
		b.Add(1)
		worker()
	}
	b.Arm()
}

func sanitize(p string) string { return strings.ReplaceAll(p, "/", "_") }

// TarResult reports an archive job.
type TarResult struct {
	Files    int
	Bytes    int64
	Duration sim.Time
}

// SerialTar reads each file and appends it to one archive stream,
// sequentially — the standard tar.
func SerialTar(fs *lustre.FS, files []*lustre.File, archivePath string, done func(TarResult)) {
	runTar(fs, files, archivePath, 1, done)
}

// DTar overlaps file reads with archive writing using parallel readers;
// the archive itself remains a single append stream.
func DTar(fs *lustre.FS, files []*lustre.File, archivePath string, readers int, done func(TarResult)) {
	if readers < 1 {
		readers = 1
	}
	runTar(fs, files, archivePath, readers, done)
}

func runTar(fs *lustre.FS, files []*lustre.File, archivePath string, readers int, done func(TarResult)) {
	eng := fs.Engine()
	client := lustre.NewClient(-2, topology.Coord{}, fs, lustre.NullTransport{Eng: eng})
	res := TarResult{}
	fs.Create(archivePath, 4, func(archive *lustre.File) {
		start := eng.Now()
		next := 0
		b := sim.NewBarrier(func() {
			res.Duration = eng.Now() - start
			done(res)
		})
		var worker func()
		worker = func() {
			if next >= len(files) {
				b.Done()
				return
			}
			src := files[next]
			next++
			size := src.Size()
			if size == 0 {
				res.Files++
				worker()
				return
			}
			client.ReadStream(src, size, 1<<20, false, func(int64) {
				client.WriteStream(archive, size, 1<<20, func(int64) {
					res.Files++
					res.Bytes += size
					worker()
				})
			})
		}
		for i := 0; i < readers; i++ {
			b.Add(1)
			worker()
		}
		b.Arm()
	})
}
