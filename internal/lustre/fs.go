package lustre

import (
	"fmt"
	"sort"
	"strings"

	"spiderfs/internal/sim"
	"spiderfs/internal/spantrace"
)

// File is a striped Lustre file: metadata on the MDS, data objects on
// StripeCount OSTs.
type File struct {
	Path       string
	OSTIndices []int
	Objects    []*Object
	ATime      sim.Time
	MTime      sim.Time
	CTime      sim.Time
}

// Size returns the file size (sum of object sizes).
func (f *File) Size() int64 {
	var s int64
	for _, o := range f.Objects {
		s += o.Size
	}
	return s
}

// StripeCount returns the number of OSTs the file stripes over.
func (f *File) StripeCount() int { return len(f.OSTIndices) }

// Dir is a directory in the namespace tree.
type Dir struct {
	Path  string
	Dirs  map[string]*Dir
	Files map[string]*File
}

func newDir(path string) *Dir {
	return &Dir{Path: path, Dirs: map[string]*Dir{}, Files: map[string]*File{}}
}

// FS is one Lustre namespace: a single MDS, a set of OSTs grouped under
// SSU controllers and exported by OSSes, and the directory tree.
type FS struct {
	Name string
	eng  *sim.Engine

	// MDS is the primary metadata server (MDT0). With DNE (Lustre 2.4's
	// Distributed Namespace, which the paper recommends combining with
	// multiple namespaces), MDTs holds additional metadata targets and
	// top-level directories are hashed across them.
	MDS    *MDS
	MDTs   []*MDS
	OSTs   []*OST
	OSSes  []*OSS
	Ctrls  []*Controller
	ostOSS []int // OST index -> OSS index

	root    *Dir
	nextOST int

	NumFiles int64
}

// defaultStripeCount is the namespace default layout: a file created
// with stripe count 0 is striped 4 wide.
const defaultStripeCount = 4

// NewFS assembles a namespace from prebuilt components. ostOSS maps each
// OST to its serving OSS.
func NewFS(eng *sim.Engine, name string, mds *MDS, osts []*OST, osses []*OSS, ctrls []*Controller, ostOSS []int) *FS {
	if len(ostOSS) != len(osts) {
		panic("lustre: ostOSS mapping length mismatch") //simlint:allow no-library-panic caller-contract assertion: invalid input is a caller bug, not a runtime failure
	}
	return &FS{
		Name: name, eng: eng, MDS: mds, MDTs: []*MDS{mds}, OSTs: osts, OSSes: osses, Ctrls: ctrls,
		ostOSS: ostOSS, root: newDir("/"),
	}
}

// EnableDNE adds n-1 extra metadata targets (n total), sharding
// top-level directories across them by name hash. Legacy clients
// blocked DNE at OLCF; the paper recommends DNE plus multiple
// namespaces once clients allow it. The extra targets run the
// production MDS profile.
func (fs *FS) EnableDNE(n int) {
	for len(fs.MDTs) < n {
		fs.MDTs = append(fs.MDTs, NewMDS(fs.eng, Spider2MDS()))
	}
}

// mdtFor returns the metadata target owning path: MDT0 without DNE,
// otherwise the hash of the top-level directory selects the shard.
func (fs *FS) mdtFor(path string) *MDS {
	if len(fs.MDTs) <= 1 {
		return fs.MDS
	}
	parts := splitPath(path)
	if len(parts) == 0 {
		return fs.MDS
	}
	var h uint32 = 2166136261
	for _, c := range []byte(parts[0]) {
		h = (h ^ uint32(c)) * 16777619
	}
	return fs.MDTs[int(h)%len(fs.MDTs)]
}

// MetadataOps sums operations across all metadata targets.
func (fs *FS) MetadataOps() uint64 {
	var total uint64
	for _, m := range fs.MDTs {
		total += m.Ops()
	}
	return total
}

// Engine returns the engine the namespace runs on.
func (fs *FS) Engine() *sim.Engine { return fs.eng }

// SetTracer attaches the spantrace plane to every instrumented layer
// under this namespace (OSSes, OSTs, RAID groups, disks) and binds the
// tracer to the namespace's engine. Clients opt in individually via
// Client.Tracer.
func (fs *FS) SetTracer(tr *spantrace.Tracer) {
	tr.Bind(fs.eng)
	for _, s := range fs.OSSes {
		s.tracer = tr
	}
	for _, o := range fs.OSTs {
		o.SetTracer(tr)
	}
}

// OSSOf returns the OSS index serving OST ost.
func (fs *FS) OSSOf(ost int) int { return fs.ostOSS[ost] }

// TotalCapacity returns the namespace capacity in bytes.
func (fs *FS) TotalCapacity() int64 {
	var c int64
	for _, o := range fs.OSTs {
		c += o.Capacity()
	}
	return c
}

// TotalUsed returns allocated bytes across OSTs.
func (fs *FS) TotalUsed() int64 {
	var u int64
	for _, o := range fs.OSTs {
		u += o.Used()
	}
	return u
}

// Fill returns the namespace fill fraction.
func (fs *FS) Fill() float64 { return float64(fs.TotalUsed()) / float64(fs.TotalCapacity()) }

func splitPath(path string) []string {
	path = strings.Trim(path, "/")
	if path == "" {
		return nil
	}
	return strings.Split(path, "/")
}

// lookupDir walks to the directory containing the final path element,
// creating intermediate directories if create is set (without charging
// MDS time — use MkdirAll for the charged operation).
func (fs *FS) lookupDir(parts []string, create bool) (*Dir, bool) {
	d := fs.root
	for _, p := range parts {
		next, ok := d.Dirs[p]
		if !ok {
			if !create {
				return nil, false
			}
			next = newDir(d.Path + p + "/")
			d.Dirs[p] = next
		}
		d = next
	}
	return d, true
}

// MkdirAll creates the directory path (charging one MDS mkdir per
// missing component) and calls done.
func (fs *FS) MkdirAll(path string, done func()) {
	parts := splitPath(path)
	missing := 0
	d := fs.root
	for _, p := range parts {
		next, ok := d.Dirs[p]
		if !ok {
			missing++
			next = newDir(d.Path + p + "/")
			d.Dirs[p] = next
		}
		d = next
	}
	if missing == 0 {
		missing = 1 // lookup still costs one op
	}
	b := sim.NewBarrier(done)
	mdt := fs.mdtFor(path)
	for i := 0; i < missing; i++ {
		b.Add(1)
		mdt.mkdir(b.DoneFunc())
	}
	b.Arm()
}

// allocateOSTs picks stripeCount OSTs round-robin (Lustre's default
// allocator). The placement library substitutes its own choice via
// CreateOn.
func (fs *FS) allocateOSTs(stripeCount int) []int {
	if stripeCount < 1 {
		stripeCount = 1
	}
	if stripeCount > len(fs.OSTs) {
		stripeCount = len(fs.OSTs)
	}
	idx := make([]int, stripeCount)
	for i := range idx {
		idx[i] = (fs.nextOST + i) % len(fs.OSTs)
	}
	fs.nextOST = (fs.nextOST + stripeCount) % len(fs.OSTs)
	return idx
}

// Create makes a file with the given stripe count (0 = namespace
// default) and calls done with it after the MDS create completes.
func (fs *FS) Create(path string, stripeCount int, done func(*File)) {
	if stripeCount <= 0 {
		stripeCount = defaultStripeCount
	}
	fs.CreateOn(path, fs.allocateOSTs(stripeCount), done)
}

// CreateOn makes a file striped over exactly the given OST indices —
// the hook the balanced-placement library (libPIO) uses.
func (fs *FS) CreateOn(path string, osts []int, done func(*File)) {
	parts := splitPath(path)
	if len(parts) == 0 {
		panic("lustre: create with empty path") //simlint:allow no-library-panic caller-contract assertion: invalid input is a caller bug, not a runtime failure
	}
	dir, _ := fs.lookupDir(parts[:len(parts)-1], true)
	name := parts[len(parts)-1]
	if _, exists := dir.Files[name]; exists {
		panic(fmt.Sprintf("lustre: file %q already exists", path)) //simlint:allow no-library-panic caller-contract assertion: invalid input is a caller bug, not a runtime failure
	}
	f := &File{
		Path:       path,
		OSTIndices: append([]int(nil), osts...),
		CTime:      fs.eng.Now(),
		MTime:      fs.eng.Now(),
		ATime:      fs.eng.Now(),
	}
	for _, oi := range osts {
		if oi < 0 || oi >= len(fs.OSTs) {
			panic("lustre: stripe OST index out of range") //simlint:allow no-library-panic caller-contract assertion: invalid input is a caller bug, not a runtime failure
		}
		f.Objects = append(f.Objects, fs.OSTs[oi].NewObject())
	}
	dir.Files[name] = f
	fs.NumFiles++
	fs.mdtFor(path).create(func() {
		if done != nil {
			done(f)
		}
	})
}

// Open resolves a path to a file (one MDS lookup).
func (fs *FS) Open(path string, done func(*File)) {
	parts := splitPath(path)
	if len(parts) == 0 {
		panic("lustre: open with empty path") //simlint:allow no-library-panic caller-contract assertion: invalid input is a caller bug, not a runtime failure
	}
	dir, ok := fs.lookupDir(parts[:len(parts)-1], false)
	var f *File
	if ok {
		f = dir.Files[parts[len(parts)-1]]
	}
	fs.mdtFor(path).lookup(func() {
		if done != nil {
			done(f)
		}
	})
}

// Stat gathers file attributes: one MDS stat plus a glimpse RPC to the
// OSS of every stripe OST (size lives on the OSTs). This is why stat on
// widely striped files is expensive, and why the paper recommends
// stripe count 1 for small files.
func (fs *FS) Stat(f *File, done func()) {
	fs.mdtFor(f.Path).stat(func() {
		b := sim.NewBarrier(done)
		for _, oi := range f.OSTIndices {
			b.Add(1)
			fs.OSSes[fs.ostOSS[oi]].Glimpse(b.DoneFunc())
		}
		b.Arm()
	})
}

// Unlink removes the file at path, destroying its objects.
func (fs *FS) Unlink(path string, done func()) {
	parts := splitPath(path)
	dir, ok := fs.lookupDir(parts[:len(parts)-1], false)
	if !ok {
		panic(fmt.Sprintf("lustre: unlink missing dir for %q", path)) //simlint:allow no-library-panic caller-contract assertion: unlinking a path that was never created
	}
	name := parts[len(parts)-1]
	f, ok := dir.Files[name]
	if !ok {
		panic(fmt.Sprintf("lustre: unlink missing file %q", path)) //simlint:allow no-library-panic caller-contract assertion: unlinking a path that was never created
	}
	delete(dir.Files, name)
	fs.NumFiles--
	fs.mdtFor(path).unlink(func() {
		for _, obj := range f.Objects {
			obj.Destroy()
		}
		if done != nil {
			done()
		}
	})
}

// Walk visits every file under dir (the whole namespace when dir is
// nil) in deterministic path order without charging simulation time;
// tools that model traversal cost charge their own MDS ops.
func (fs *FS) Walk(dir *Dir, fn func(*File)) {
	if dir == nil {
		dir = fs.root
	}
	names := make([]string, 0, len(dir.Files))
	for n := range dir.Files {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fn(dir.Files[n])
	}
	subs := make([]string, 0, len(dir.Dirs))
	for n := range dir.Dirs {
		subs = append(subs, n)
	}
	sort.Strings(subs)
	for _, n := range subs {
		fs.Walk(dir.Dirs[n], fn)
	}
}
