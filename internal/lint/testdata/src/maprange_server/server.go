// Regression fixture for scheduling that reaches the engine only
// through sim.Server: Submit puts a job in service by scheduling its
// completion through the engine's internal entry point, not through
// Engine.At or After. A map range that only submits jobs — to a bare
// sim.Server or through disk.Submit — still orders engine events and
// must be flagged.
package maprangeserver

import (
	"sort"

	"spiderfs/internal/disk"
	"spiderfs/internal/sim"
)

// direct: the range only feeds sim.Server.Submit.
func submitAll(srv *sim.Server, jobs map[string]sim.Time) {
	for _, service := range jobs { // want ordered-map-range
		srv.Submit(service, nil)
	}
}

// through the disk model: disk.Submit → sim.Server.Submit.
func readAll(d *disk.Disk, reads map[int64]int64) {
	for lba, size := range reads { // want ordered-map-range
		d.Submit(disk.Op{LBA: lba, Size: size}, nil)
	}
}

// sorted-keys rewrite: the deterministic shape the check pushes toward.
func submitSorted(srv *sim.Server, jobs map[string]sim.Time) {
	names := make([]string, 0, len(jobs))
	for name := range jobs { //simlint:allow ordered-map-range keys are sorted before any job is submitted
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		srv.Submit(jobs[name], nil)
	}
}

// Stands in for the callers a fixture package does not load.
var _ = []any{submitAll, readAll, submitSorted}
