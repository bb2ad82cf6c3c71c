//simlint:importpath spiderfs/internal/serve/sinkfixok

// Clean counterpart: the service driven from ordered collections only —
// slices in, sorted keys where a map is unavoidable, maps used purely
// for O(1) lookup — and parallel waits writing their own slots.
package sinkfixok

import (
	"sort"
	"sync"

	"spiderfs/internal/serve"
)

// slices are ordered; submitting from one is fine.
func submitList(svc *serve.Service, specs []serve.Spec) []*serve.Session {
	out := make([]*serve.Session, 0, len(specs))
	for _, spec := range specs {
		sess, err := svc.Submit(spec)
		if err == nil {
			out = append(out, sess)
		}
	}
	return out
}

// map used as an index, drained through a sorted key slice before any
// session is admitted.
func submitByName(svc *serve.Service, specs map[string]serve.Spec) []*serve.Session {
	names := make([]string, 0, len(specs))
	for name := range specs { //simlint:allow ordered-map-range keys are sorted before any session is admitted
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]*serve.Session, 0, len(names))
	for _, name := range names {
		sess, err := svc.Submit(specs[name])
		if err == nil {
			out = append(out, sess)
		}
	}
	return out
}

// map lookup (no range) feeding a submit stays silent.
func submitNamed(svc *serve.Service, specs map[string]serve.Spec, name string) (*serve.Session, error) {
	return svc.Submit(specs[name])
}

// own-slot parallel fan-in: each goroutine writes only out[i] with a
// goroutine-local index — the sanctioned shape.
func reportAll(sessions []*serve.Session) []*serve.Report {
	out := make([]*serve.Report, len(sessions))
	var wg sync.WaitGroup
	for i, sess := range sessions {
		wg.Add(1)
		go func(i int, sess *serve.Session) {
			defer wg.Done()
			if rep, ok := sess.Report(); ok {
				out[i] = rep
			}
		}(i, sess)
	}
	wg.Wait()
	return out
}
