//simlint:importpath spiderfs/internal/serve/sinkfix

// Sabotage fixture: the serve package is a session-admission sink —
// session IDs are assigned in Submit order and the /v1/stats listing
// follows admission order, so feeding Submit (or RunSolo) from a map
// range bakes Go's random iteration order into the service's observable
// state. Flagged directly and one call away, like the other sinks. The
// fixture's import path also places it inside internal/serve, where the
// shard-isolation discipline applies: a go-funclit write to captured
// state bypasses the session-confined worker seam.
package sinkfix

import (
	"sync"

	"spiderfs/internal/serve"
)

// direct: the range and the Submit live in the same function.
func submitAll(svc *serve.Service, specs map[string]serve.Spec) []*serve.Session {
	var out []*serve.Session
	for _, spec := range specs { // want ordered-map-range
		sess, err := svc.Submit(spec)
		if err == nil {
			out = append(out, sess)
		}
	}
	return out
}

func submitOne(svc *serve.Service, spec serve.Spec) *serve.Session {
	sess, err := svc.Submit(spec)
	if err != nil {
		return nil
	}
	return sess
}

// one hop: the range feeds submitOne, which admits sessions.
func submitByName(svc *serve.Service, specs map[string]serve.Spec) []*serve.Session {
	var out []*serve.Session
	for _, spec := range specs { // want ordered-map-range
		if sess := submitOne(svc, spec); sess != nil {
			out = append(out, sess)
		}
	}
	return out
}

// solo runs per map entry are just as nondeterministic: the report
// order follows iteration order.
func soloPerEntry(specs map[string]serve.Spec) []*serve.Report {
	var out []*serve.Report
	for _, spec := range specs { // want ordered-map-range
		rep, err := serve.RunSolo(spec, nil)
		if err == nil {
			out = append(out, rep)
		}
	}
	return out
}

// captured-state write from a go funclit: inside internal/serve a
// goroutine may write only its own session's state under its lock (or
// its own slot); accumulating into shared captured state is the seam
// bypass, mutex or not.
func doneCount(sessions []*serve.Session) int {
	done := 0
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, sess := range sessions {
		wg.Add(1)
		go func(sess *serve.Session) {
			defer wg.Done()
			if _, ok := sess.Report(); ok {
				mu.Lock()
				done++ // want shard-isolation
				mu.Unlock()
			}
		}(sess)
	}
	wg.Wait()
	return done
}

// Stands in for the callers a fixture package does not load.
var _ = []any{submitAll, submitByName, soloPerEntry, doneCount}
