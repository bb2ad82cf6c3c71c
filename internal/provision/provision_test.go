package provision

import (
	"strings"
	"testing"

	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
)

func TestValidateScriptsOrdering(t *testing.T) {
	ordered, err := ValidateScripts(Spider2Scripts())
	if err != nil {
		t.Fatalf("spider scripts invalid: %v", err)
	}
	for i := 1; i < len(ordered); i++ {
		if ordered[i].Order < ordered[i-1].Order {
			t.Fatal("not sorted by order")
		}
	}
}

func TestValidateScriptsDetectsViolation(t *testing.T) {
	bad := []ConfigScript{
		{Order: 10, Name: "srp", Needs: []string{"ifcfg"}, Produces: []string{"srp.conf"}},
		{Order: 20, Name: "network", Produces: []string{"ifcfg"}},
	}
	if _, err := ValidateScripts(bad); err == nil {
		t.Fatal("expected dependency violation")
	} else if !strings.Contains(err.Error(), "srp") {
		t.Fatalf("error should name the script: %v", err)
	}
}

func TestBootNodeDiskless(t *testing.T) {
	eng := sim.NewEngine()
	took, retries, err := FleetBoot(eng, 1, DisklessProfile(), Spider2Scripts(), 1, rng.New(1))
	if err != nil {
		t.Fatalf("FleetBoot: %v", err)
	}
	// 45 + 20 + 9 (scripts) + 15 = 89 s.
	if took != 89*sim.Second {
		t.Fatalf("boot took %v, want 89s", took)
	}
	if retries != 0 {
		t.Fatalf("retries = %d", retries)
	}
}

func TestDisklessBootsFasterThanDiskFull(t *testing.T) {
	boot := func(p BootProfile, seed uint64) sim.Time {
		took, _, err := FleetBoot(sim.NewEngine(), 1, p, Spider2Scripts(), 1, rng.New(seed))
		if err != nil {
			t.Fatalf("FleetBoot: %v", err)
		}
		return took
	}
	dl := boot(DisklessProfile(), 2)
	df := boot(DiskFullProfile(), 2)
	if dl >= df {
		t.Fatalf("diskless (%v) should boot faster than disk-full (%v)", dl, df)
	}
}

func TestFleetBootMTTR(t *testing.T) {
	eng := sim.NewEngine()
	dlTime, dlRetries, err := FleetBoot(eng, 288, DisklessProfile(), Spider2Scripts(), 64, rng.New(3))
	if err != nil {
		t.Fatalf("FleetBoot: %v", err)
	}
	eng2 := sim.NewEngine()
	dfTime, dfRetries, err := FleetBoot(eng2, 288, DiskFullProfile(), Spider2Scripts(), 64, rng.New(3))
	if err != nil {
		t.Fatalf("FleetBoot: %v", err)
	}
	if dlTime >= dfTime {
		t.Fatalf("diskless fleet (%v) should beat disk-full (%v)", dlTime, dfTime)
	}
	if dfRetries <= dlRetries {
		t.Fatalf("disk-full retries (%d) should exceed diskless (%d)", dfRetries, dlRetries)
	}
}

func TestNodeCostSavings(t *testing.T) {
	saving := NodeCost(DiskFull) - NodeCost(Diskless)
	if saving < 500 {
		t.Fatalf("diskless saving = $%.0f per node, want material", saving)
	}
	// 288 OSS + 440 routers: fleet-level saving.
	fleet := saving * (288 + 440)
	if fleet < 400_000 {
		t.Fatalf("fleet saving $%.0f", fleet)
	}
}

func TestConvergeDisklessFasterAndCleaner(t *testing.T) {
	eng := sim.NewEngine()
	dl := Converge(eng, 288, Diskless, rng.New(4))
	eng2 := sim.NewEngine()
	df := Converge(eng2, 288, DiskFull, rng.New(4))
	if dl.Duration >= df.Duration {
		t.Fatalf("diskless converge (%v) should beat disk-full (%v)", dl.Duration, df.Duration)
	}
	if df.Failures <= dl.Failures {
		t.Fatalf("disk-full failures (%d) should exceed diskless (%d)", df.Failures, dl.Failures)
	}
}

func TestBootNodeInvalidScriptsErrors(t *testing.T) {
	eng := sim.NewEngine()
	bad := []ConfigScript{{Order: 1, Name: "x", Needs: []string{"missing"}}}
	_, _, err := FleetBoot(eng, 1, DisklessProfile(), bad, 1, rng.New(5))
	if err == nil {
		t.Fatal("expected validation error")
	}
	if !strings.Contains(err.Error(), "x") {
		t.Fatalf("error should name the script: %v", err)
	}
	if eng.Pending() != 0 {
		t.Fatalf("invalid scripts must schedule nothing, %d pending", eng.Pending())
	}
	if _, _, err := FleetBoot(eng, 4, DisklessProfile(), bad, 2, rng.New(5)); err == nil {
		t.Fatal("FleetBoot should propagate the validation error")
	}
}
