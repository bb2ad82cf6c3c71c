package serve

import (
	"bytes"
	"encoding/json"
	"testing"

	"spiderfs/internal/chaos"
	"spiderfs/internal/sweep"
)

// FuzzSpecNormalize feeds arbitrary JSON through the decoder the
// /sessions endpoint uses to Spec.Normalize, which must never panic. A
// spec Normalize accepts must sit within the work caps, and normalizing
// it again must succeed and leave its cache key unchanged: two
// submissions of the same work share one cached report.
func FuzzSpecNormalize(f *testing.F) {
	for _, seed := range []string{
		`{"kind":"workload","seed":7}`,
		`{"kind":"workload","seed":1,"full":true,"waves":64,"flows":8192,"bytes":1e12}`,
		`{"kind":"workload","waves":-1,"flows":0,"bytes":-0,"days":3,"sweep":"x","replicas":9}`,
		`{"kind":"workload","bytes":1e300}`,
		`{"kind":"chaos","seed":42,"days":31,"waves":2}`,
		`{"kind":"chaos","days":-1}`,
		`{"kind":"sweep","sweep":"e19-scrub-off","replicas":256,"full":true}`,
		`{"kind":"sweep","sweep":"a/b"}`,
		`{"kind":"sweep"}`,
		`{"kind":"nope"}`,
		`{}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Spec
		if json.NewDecoder(bytes.NewReader(data)).Decode(&s) != nil {
			return
		}
		if s.Normalize() != nil {
			return
		}
		if s.Waves < 0 || s.Waves > maxWaves || s.Flows < 0 || s.Flows > maxFlows ||
			s.Bytes < 0 || s.Bytes > maxBytes || s.Days < 0 || s.Days > chaos.MaxDays ||
			s.Replicas < 0 || s.Replicas > sweep.MaxReplicas {
			t.Fatalf("accepted spec outside the work caps: %+v", s)
		}
		if s.Kind == "workload" && (s.Waves == 0 || s.Flows == 0 || s.Bytes == 0) {
			t.Fatalf("accepted workload spec without its defaults: %+v", s)
		}
		key := s.Key()
		if err := s.Normalize(); err != nil {
			t.Fatalf("second Normalize of %+v: %v", s, err)
		}
		if again := s.Key(); again != key {
			t.Fatalf("second Normalize moved the key: %s -> %s", key, again)
		}
	})
}
