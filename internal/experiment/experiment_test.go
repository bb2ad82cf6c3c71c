package experiment

import "testing"

// TestStudyHeadlinesPinned runs every study at its benchmark seed and
// requires the exact headline EXPERIMENTS.md records: a refactor that
// moves one of them is a model change.
func TestStudyHeadlinesPinned(t *testing.T) {
	want := map[string]float64{
		"fig2":         4.774791666666666,
		"fig3":         5.034411090041387,
		"fig4":         5.039284230102451,
		"mixed":        0.5974230043997486,
		"checkpoint":   1.25,
		"slowdisk":     0.06875,
		"fgr":          1.3333314156653238,
		"libpio":       242.36615148048216,
		"workflow":     1.8896087171181815,
		"fill":         6.7815690016576955,
		"incident":     94.9918,
		"iosi":         1,
		"tools":        2200,
		"namespaces":   1.99936994135608,
		"blockfs":      8,
		"purge":        280,
		"upgrade":      1.6716650468375067,
		"monitoring":   4,
		"provisioning": 2.0898876404494384,
		"layers":       0.5208894048853424,
		"hero":         287.1840688699513,
		"journaling":   1.7678457850687395,
		"recovery":     6.899755674244228,
		"notification": 350.47305067493636,
		"dne":          4,
		"stripecount":  1.9999666677777408,
		"alignment":    4.252495381050328,
		"compile":      3.335151515151515,
		"bursts":       1.511495216382782,
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
	seen := map[string]bool{}
	for _, s := range Studies {
		if seen[s.Name] {
			t.Errorf("study name %q is used twice", s.Name)
		}
		seen[s.Name] = true
		a, b := s.Run(s.Seed), s.Run(s.Seed)
		if a != b {
			t.Errorf("%s: two runs at seed %d differ:\n%s\n%s", s.Name, s.Seed, a.Body, b.Body)
		}
		if a.Title == "" || a.Body == "" || a.Body[len(a.Body)-1] != '\n' {
			t.Errorf("%s: title %q, body %q: want both set and a newline-terminated body", s.Name, a.Title, a.Body)
		}
	}
}
