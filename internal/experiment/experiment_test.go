package experiment

import (
	"hash/fnv"
	"testing"
)

// TestStudyHeadlinesPinned runs every study at its benchmark seed and
// requires the exact headline EXPERIMENTS.md records and the FNV-64a
// hash of the rendered Title+Body: a refactor that moves one of them is
// a model change, even when a headline (E12's is a cell count) does not
// see it.
func TestStudyHeadlinesPinned(t *testing.T) {
	want := map[string]struct {
		headline float64
		body     uint64
	}{
		"fig2":         {4.774791666666666, 0xdaf9ecbf7492664a},
		"fig3":         {5.034411090041387, 0x12b48068e8a18ca6},
		"fig4":         {5.039284230102451, 0x26ad1214f40673f5},
		"mixed":        {0.5974230043997486, 0xcf156cc870783dca},
		"checkpoint":   {1.25, 0x55c26aa3f162e168},
		"slowdisk":     {0.06875, 0x6810830dce933529},
		"fgr":          {1.3333314156653238, 0xe61db636967b5f5d},
		"libpio":       {242.36615148048216, 0x39993d007b1ce91b},
		"workflow":     {1.8896087171181815, 0x4d150b36ca595137},
		"fill":         {6.7815690016576955, 0xea54d7e578664190},
		"incident":     {94.9918, 0x775f92a9f2772148},
		"iosi":         {1, 0x7d9405b54d10c3b5},
		"tools":        {2200, 0x64786b2f3f136c9a},
		"namespaces":   {1.99936994135608, 0x5f2728b496641afa},
		"blockfs":      {8, 0x787b4911b6b6f95e},
		"purge":        {280, 0xfc981e55dd0df718},
		"upgrade":      {1.6716650468375067, 0xff9349f4f54c2bc4},
		"monitoring":   {4, 0x889286cca40bfe80},
		"provisioning": {2.0898876404494384, 0x80b331b315a8fb60},
		"layers":       {0.5208894048853424, 0x9cc61353020ed37b},
		"hero":         {287.1840688699513, 0xf8ecc9b5f0634189},
		"journaling":   {1.7678457850687395, 0x4a7aef3ac14a7dc6},
		"recovery":     {6.899755674244228, 0xa5302d1e451d4875},
		"notification": {350.47305067493636, 0x2f3d1cef9200ae7a},
		"dne":          {4, 0xd7d88c5cfd8ae450},
		"stripecount":  {1.9999666677777408, 0xbc8620f98d6dfeb3},
		"alignment":    {4.252495381050328, 0x8074d8591e0b08e4},
		"compile":      {3.335151515151515, 0x236753b85a5798f4},
		"bursts":       {1.511495216382782, 0xe1b845610a5c8f1c},
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
		r := s.Run(s.Seed)
		if r.Headline != w.headline {
			t.Errorf("%s at seed %d: headline %v %s, want %v", s.Name, s.Seed, r.Headline, s.Unit, w.headline)
		}
		h := fnv.New64a()
		h.Write([]byte(r.Title + r.Body))
		if got := h.Sum64(); got != w.body {
			t.Errorf("%s at seed %d: Title+Body hash %#016x, want %#016x:\n%s\n%s", s.Name, s.Seed, got, w.body, r.Title, r.Body)
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

// seedInvariant names the studies that print the same table at every
// seed (ROADMAP item 2 ran each at its Seed plus k·7919, k = 0..11).
// Their Seed column in EXPERIMENTS.md records where the benchmark runs
// them, not a sample.
var seedInvariant = []string{
	"fig2", "fig3", "fig4", "checkpoint", "libpio", "iosi", "namespaces",
	"purge", "upgrade", "recovery", "notification", "dne", "stripecount",
	"compile", "bursts",
}

// TestSeedInvariantStudies requires each seed-invariant study to print
// the same Body at its Seed and at Seed+7919, so a change that makes
// one of them seed-dependent is seen, and a paper claim over such a
// study needs no seed sweep.
func TestSeedInvariantStudies(t *testing.T) {
	for _, name := range seedInvariant {
		s, ok := Lookup(name)
		if !ok {
			t.Errorf("no study %q", name)
			continue
		}
		a, b := s.Run(s.Seed), s.Run(s.Seed+7919)
		if a.Body != b.Body {
			t.Errorf("%s: Body at seed %d differs from seed %d:\n%s\n%s", name, s.Seed, s.Seed+7919, a.Body, b.Body)
		}
	}
}
