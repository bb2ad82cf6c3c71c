// Sabotage fixture: wall-clock reads inside a simulation package.
package wallclock

import "time"

func stamp() int64 {
	t := time.Now() // want no-wallclock
	return t.UnixNano()
}

func elapsed(since time.Time) time.Duration {
	return time.Since(since) // want no-wallclock
}

func timer() *time.Timer {
	return time.NewTimer(time.Second) // want no-wallclock
}

func sleepy() {
	time.Sleep(time.Millisecond) // want no-wallclock
}

func allowed() time.Duration {
	// Durations and calendar math are fine; only clock reads are banned.
	d := 3 * time.Second
	return d
}

// Stands in for the callers a fixture package does not load.
var _ = []any{elapsed, timer, sleepy, allowed, stamp}
