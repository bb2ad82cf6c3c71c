package main

import (
	"fmt"
	"runtime"
	"time"

	"spiderfs/internal/disk"
	"spiderfs/internal/ledger"
	"spiderfs/internal/lustre"
	"spiderfs/internal/netsim"
	"spiderfs/internal/raid"
	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
	"spiderfs/internal/topology"
)

// The probe ladder runs each layer's public entry point alone, with a
// fixed amount of work, after the traced workload phase. Its numbers are
// the host cost of one layer with every layer below it held to a
// minimum, so a change to one layer shows on its own rung.

// cost runs fn and returns its host ns and heap allocations per unit of
// n units of work.
func cost(n int, fn func()) (nsPer, allocsPer float64) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	fn()
	el := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(el.Nanoseconds()) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n)
}

// probes runs the ladder and returns its rungs by metric name; the
// per-layer table gives their units.
func probes() []metric {
	var ms []metric
	add := func(name string, v float64) { ms = append(ms, metric{name: name, value: v}) }
	q1, _ := serverProbe(1)
	q1024, _ := serverProbe(1024)
	add("sim.server_ns_per_job.q1", q1)
	add("sim.server_ns_per_job.q1024", q1024)
	ns, allocs := engineProbe()
	add("sim.engine_ns_per_event", ns)
	add("sim.engine_allocs_per_event", allocs)
	add("disk.ns_per_op", diskProbe())
	full, rmw := raidProbe()
	add("raid.ns_per_mb.full_stripe", full)
	add("raid.ns_per_op.rmw", rmw)
	ns, allocs = controllerProbe()
	add("lustre.ctrl_ns_per_rpc", ns)
	add("lustre.ctrl_allocs_per_rpc", allocs)
	add("lustre.ost_ns_per_mb", objectProbe())
	add("lustre.client_ns_per_mb", clientProbe())
	ns, allocs = churnProbe()
	add("netsim.churn_ns_per_flow", ns)
	add("netsim.churn_allocs_per_flow", allocs)
	add("ledger.append_ns", ledgerProbe())
	return ms
}

// serverProbe pushes 65,536 jobs through a lone single-slot sim.Server
// with depth jobs standing in its queue.
func serverProbe(depth int) (float64, float64) {
	const jobs = 1 << 16
	eng := sim.NewEngine()
	s := sim.NewServer(eng, "probe", 1)
	submitted := 0
	var next func()
	next = func() {
		if submitted < jobs {
			submitted++
			s.Submit(sim.Microsecond, next)
		}
	}
	return cost(jobs, func() {
		for i := 0; i <= depth; i++ {
			next()
		}
		eng.Run()
	})
}

// engineProbe fires 100,000 events with 10,000 pending: each event
// schedules its successor a random delay ahead.
func engineProbe() (float64, float64) {
	const pending, fired = 10_000, 100_000
	eng := sim.NewEngine()
	src := rng.New(1)
	left := fired - pending
	var fire func()
	fire = func() {
		if left > 0 {
			left--
			eng.After(sim.Time(1+src.Intn(1000)), fire)
		}
	}
	return cost(fired, func() {
		for i := 0; i < pending; i++ {
			eng.After(sim.Time(1+src.Intn(1000)), fire)
		}
		eng.Run()
	})
}

// diskProbe submits 20,000 sequential 128 KiB writes at queue depth 8.
func diskProbe() float64 {
	const ops, size = 20_000, 128 << 10
	eng := sim.NewEngine()
	d := disk.New(eng, 0, disk.NLSAS2TB(), disk.Nominal(), rng.New(1))
	issued := 0
	var submit func()
	submit = func() {
		if issued < ops {
			op := disk.Op{Write: true, LBA: int64(issued) * size, Size: size}
			issued++
			d.Submit(op, submit)
		}
	}
	ns, _ := cost(ops, func() {
		for i := 0; i < 8; i++ {
			submit()
		}
		eng.Run()
	})
	return ns
}

// raidProbe writes 2,048 aligned 1 MiB full stripes, then 2,048 single
// 128 KiB chunks (read-modify-write), each at queue depth 4 on a RAID-6
// 8+2 group of nominal drives.
func raidProbe() (nsPerMB, nsPerRMW float64) {
	const writes, depth = 2048, 4
	group := func() (*sim.Engine, *raid.Group) {
		eng := sim.NewEngine()
		cfg := raid.Spider2Group()
		members := make([]*disk.Disk, cfg.Width())
		for i := range members {
			members[i] = disk.New(eng, i, disk.NLSAS2TB(), disk.Nominal(), rng.New(uint64(i)))
		}
		return eng, raid.NewGroup(eng, 0, cfg, members)
	}
	write := func(size int64) float64 {
		eng, g := group()
		stripe := g.Config().StripeDataSize()
		issued := 0
		var submit func()
		submit = func() {
			if issued < writes {
				off := int64(issued) * stripe
				issued++
				g.Write(off, size, submit)
			}
		}
		ns, _ := cost(writes, func() {
			for i := 0; i < depth; i++ {
				submit()
			}
			eng.Run()
		})
		return ns
	}
	return write(1<<20) * 1e6 / (1 << 20), write(128 << 10)
}

// controllerProbe admits 65,536 1 MiB writes at depth 256 through one
// controller, each flushed as it is acknowledged.
func controllerProbe() (float64, float64) {
	const rpcs, depth, size = 1 << 16, 256, 1 << 20
	eng := sim.NewEngine()
	c := lustre.NewController(eng, 0, lustre.Spider2Controller())
	issued := 0
	var admit func()
	admit = func() {
		if issued < rpcs {
			issued++
			c.AdmitWrite(size, func() {
				c.Flushed(size)
				admit()
			})
		}
	}
	return cost(rpcs, func() {
		for i := 0; i < depth; i++ {
			admit()
		}
		eng.Run()
	})
}

// testFS builds the one-SSU test namespace on a fresh engine.
func testFS() *lustre.FS {
	return lustre.Build(sim.NewEngine(), lustre.TestNamespace(), rng.New(1))
}

// objectProbe writes 1 GiB to one OST object in 1 MiB RPCs, 8 in
// flight, through to the disks.
func objectProbe() float64 {
	const rpcs, size = 1024, 1 << 20
	fs := testFS()
	obj := fs.OSTs[0].NewObject()
	issued := 0
	var write func()
	write = func() {
		if issued < rpcs {
			issued++
			obj.Write(size, write)
		}
	}
	ns, _ := cost(rpcs, func() {
		for i := 0; i < 8; i++ {
			write()
		}
		fs.Engine().Run()
	})
	return ns
}

// clientProbe streams 1 GiB from one client to a 4-stripe file over
// the null transport.
func clientProbe() float64 {
	const mb = 1024
	fs := testFS()
	eng := fs.Engine()
	var f *lustre.File
	fs.Create("probe", 4, func(file *lustre.File) { f = file })
	eng.Run()
	cl := lustre.NewClient(0, topology.Coord{}, fs, lustre.NullTransport{Eng: eng})
	ns, _ := cost(mb, func() {
		cl.WriteStream(f, mb<<20, 1<<20, nil)
		eng.Run()
	})
	return ns
}

// churnProbe starts 50,000 1 MB flows across one or two of eight shared
// 1 GB/s links, draining every 64 starts: the netbench churn.
func churnProbe() (float64, float64) {
	const flows = 50_000
	eng := sim.NewEngine()
	n := netsim.NewNetwork(eng)
	links := make([]*netsim.Link, 8)
	for i := range links {
		links[i] = n.NewLink("l", 1e9, 0)
	}
	src := rng.New(1)
	return cost(flows, func() {
		for i := 0; i < flows; i++ {
			path := []*netsim.Link{links[src.Intn(8)], links[src.Intn(8)]}
			if path[0] == path[1] {
				path = path[:1]
			}
			n.StartFlow(path, 1e6, nil)
			if i%64 == 63 {
				eng.Run()
			}
		}
		eng.Run()
	})
}

// ledgerProbe appends 10,000 entries, one per simulated second, and
// seals a batch every 64.
func ledgerProbe() float64 {
	const entries = 10_000
	l := ledger.New(ledger.Config{})
	ns, _ := cost(entries, func() {
		for i := 0; i < entries; i++ {
			// One engine feeds a ledger in nondecreasing time, so Append
			// cannot refuse these entries.
			_ = l.Append(sim.Time(i)*sim.Second, "probe", "bench", "append", fmt.Sprint(i))
			if i%64 == 63 {
				l.Seal()
			}
		}
		l.Close()
	})
	return ns
}
