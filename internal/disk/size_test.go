package disk

import (
	"testing"
	"unsafe"

	"spiderfs/internal/sim"
)

// drivesPerCenter is the drive count of a full two-namespace center:
// 2 namespaces × 18 SSUs × 56 OSTs × 10 drives = 20,160.
const drivesPerCenter = 2 * 18 * 56 * 10

// TestRecordSizes pins the size of the per-drive record and of the
// queueing server it holds by value. A center build lays out one Disk
// per drive in a slab, and a chaos campaign builds two centers, so every
// byte either record gains is paid once per drive.
func TestRecordSizes(t *testing.T) {
	for _, r := range []struct {
		name      string
		size, max uintptr
	}{
		{"sim.Server", unsafe.Sizeof(sim.Server{}), 128},
		{"disk.Disk", unsafe.Sizeof(Disk{}), 448},
	} {
		if r.size > r.max {
			t.Errorf("%s is %d bytes, want at most %d: each byte costs %d bytes per center build",
				r.name, r.size, r.max, drivesPerCenter)
		}
	}
}
