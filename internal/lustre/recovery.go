package lustre

import (
	"fmt"

	"spiderfs/internal/sim"
)

// Lustre's server-failure recovery path, with the production
// constants of the era. OLCF direct-funded "imperative recovery"
// (§IV-D): instead of clients discovering a failed-over server by RPC
// timeout, the management server notifies them immediately, collapsing
// the reconnect phase from minutes to seconds.
const (
	// detection is the time for the HA framework to declare the server
	// dead and start the failover partner.
	detection = 15 * sim.Second
	// clientTimeout is how long clients take to notice without
	// imperative recovery (RPC/bulk timeouts plus backoff).
	clientTimeout = 300 * sim.Second
	// irNotify is the MGS notification latency with imperative recovery.
	irNotify = 5 * sim.Second
	// replayWindow is the transaction-replay window once clients
	// reconnect.
	replayWindow = 30 * sim.Second
)

// outageDuration returns the total unavailability window of one
// failover, with or without imperative recovery.
func outageDuration(imperative bool) sim.Time {
	reconnect := clientTimeout
	if imperative {
		reconnect = irNotify
	}
	return detection + reconnect + replayWindow
}

// FailOSS crashes the given OSS now and schedules its recovery, with
// imperative recovery (the funded feature) or without.
// In-flight and newly issued RPCs to the server stall and replay when
// the failover completes; done (may be nil) receives the realized
// outage duration. Faulting a server that is already down is a
// recoverable condition — chaos campaigns sample servers at random —
// so it is reported as an error (and counted on the OSS) rather than
// panicking the run.
func FailOSS(fs *FS, oss int, imperative bool, done func(outage sim.Time)) error {
	if oss < 0 || oss >= len(fs.OSSes) {
		return fmt.Errorf("lustre: FailOSS index %d out of range [0,%d)", oss, len(fs.OSSes))
	}
	s := fs.OSSes[oss]
	if s.Down() {
		s.DoubleFaults++
		return fmt.Errorf("lustre: OSS %d already down", oss)
	}
	start := fs.eng.Now()
	s.Fail()
	fs.eng.After(outageDuration(imperative), func() {
		s.Recover()
		if done != nil {
			done(fs.eng.Now() - start)
		}
	})
	return nil
}
