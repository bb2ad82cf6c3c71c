package qa

import (
	"testing"

	"spiderfs/internal/lustre"
	"spiderfs/internal/spantrace"
)

func TestSpanLadder(t *testing.T) {
	rungs := SpanLadder(lustre.TestNamespace(), 1)
	at := map[spantrace.Layer]int{}
	for i, r := range rungs {
		at[r.Layer] = i
		if r.Bytes <= 0 || r.BusySeconds <= 0 || r.MBps <= 0 {
			t.Fatalf("rung %v has a non-positive rate: %+v", r.Layer, r)
		}
		// Each transition loses some bandwidth (that is the lesson) but
		// no rung collapses against the one below it.
		if r.Efficiency < 0.3 {
			t.Fatalf("rung %v efficiency %.2f collapsed: %+v", r.Layer, r.Efficiency, r)
		}
	}
	// Bottom-up: disk, RAID, OST and client rungs are all present, deepest
	// first.
	prev := -1
	for _, l := range []spantrace.Layer{spantrace.Disk, spantrace.RAID, spantrace.OST, spantrace.Client} {
		i, ok := at[l]
		if !ok {
			t.Fatalf("ladder has no %v rung: %+v", l, rungs)
		}
		if i <= prev {
			t.Fatalf("rung %v out of bottom-up order: %+v", l, rungs)
		}
		prev = i
	}
	// Parity overhead: the RAID rung delivers less than the disks under it.
	if disk, raid := rungs[at[spantrace.Disk]], rungs[at[spantrace.RAID]]; raid.MBps >= disk.MBps {
		t.Fatalf("raid rung %.1f MB/s not below disk rung %.1f MB/s", raid.MBps, disk.MBps)
	}
}
