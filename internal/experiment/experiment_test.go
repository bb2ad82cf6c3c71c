package experiment

import "testing"

// TestStudyHeadlinesPinned runs every study at its benchmark seed and
// requires the exact headline EXPERIMENTS.md records: a refactor that
// moves one of them is a model change.
func TestStudyHeadlinesPinned(t *testing.T) {
	want := map[string]float64{
		"fig3":       5.034411090041387,
		"fig4":       5.039284230102451,
		"mixed":      0.5974230043997486,
		"checkpoint": 1.25,
		"slowdisk":   0.06875,
		"workflow":   1.8896087171181815,
		"incident":   94.9918,
		"namespaces": 1.99936994135608,
		"purge":      280,
		"recovery":   6.899755674244228,
	}
	if len(want) != len(Studies) {
		t.Fatalf("%d pinned headlines for %d studies", len(want), len(Studies))
	}
	for _, s := range Studies {
		w, ok := want[s.Name]
		if !ok {
			t.Errorf("%s: no pinned headline", s.Name)
			continue
		}
		if got := s.Run(s.Seed).Headline; got != w {
			t.Errorf("%s at seed %d: headline %v %s, want %v", s.Name, s.Seed, got, s.Unit, w)
		}
	}
}

func TestStudiesDeterministic(t *testing.T) {
	for _, s := range Studies {
		a, b := s.Run(s.Seed), s.Run(s.Seed)
		if a != b {
			t.Errorf("%s: two runs at seed %d differ:\n%s\n%s", s.Name, s.Seed, a.Body, b.Body)
		}
		if a.Title == "" || a.Body == "" || a.Body[len(a.Body)-1] != '\n' {
			t.Errorf("%s: title %q, body %q: want both set and a newline-terminated body", s.Name, a.Title, a.Body)
		}
	}
}
