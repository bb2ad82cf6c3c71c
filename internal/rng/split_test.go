package rng

import (
	"fmt"
	"testing"
)

// TestSplitGoldenValues pins the exact output of the seed → Split →
// sibling-stream derivation the sweep runner uses. The literals were
// generated once and must never change: they are stable across Go
// versions because the generator is pure integer arithmetic (SplitMix64
// expansion + xoshiro256** + FNV-1a labels) with no dependence on
// math/rand or platform word order. If this test fails, every
// committed sweep fingerprint is invalidated with it.
func TestSplitGoldenValues(t *testing.T) {
	golden := [][3]uint64{
		{0x0e64f94eabbb84e7, 0x6aee3634d79514f6, 0x8679d8a1315c13ac},
		{0xe69a945e2b4e172c, 0xfbcb7b08e1e182e5, 0xe8f7d594fc381d47},
		{0x1629d5a2f105ef96, 0x98367bfde0a7d96d, 0x5da6c3cb2c3fc61c},
		{0x6056703055481b5a, 0x03d369de94a6a4f7, 0xe2d338d6451842f8},
	}
	// Split mutates the parent, so sibling derivation order is part of
	// the contract: replica-%05d streams must be drawn in index order.
	root := New(42).Split("sweep/golden")
	for i, want := range golden {
		s := root.Split(fmt.Sprintf("replica-%05d", i))
		for j, w := range want {
			if got := s.Uint64(); got != w {
				t.Errorf("replica %d draw %d = %#016x, want %#016x", i, j, got, w)
			}
		}
	}

	direct := New(42)
	for j, w := range [2]uint64{0x15780b2e0c2ec716, 0x6104d9866d113a7e} {
		if got := direct.Uint64(); got != w {
			t.Errorf("New(42) draw %d = %#016x, want %#016x", j, got, w)
		}
	}
}

// TestSplitSiblingsPrefixDisjoint checks that sibling streams are
// pairwise non-overlapping over a substantial prefix: 32 replica
// streams × 4096 draws must produce no value twice, within or across
// streams. xoshiro256** is a bijection on its state space, so distinct
// states cannot collide this early except by a seeding defect — which
// is exactly what this would catch (e.g. two labels hashing a parent
// draw into the same state).
func TestSplitSiblingsPrefixDisjoint(t *testing.T) {
	const (
		siblings = 32
		prefix   = 4096
	)
	root := New(0xdecafbad).Split("sweep/disjoint")
	seen := make(map[uint64]string, siblings*prefix)
	for i := 0; i < siblings; i++ {
		label := fmt.Sprintf("replica-%05d", i)
		s := root.Split(label)
		for j := 0; j < prefix; j++ {
			v := s.Uint64()
			if prev, dup := seen[v]; dup {
				t.Fatalf("value %#016x drawn by both %s and %s (draw %d)", v, prev, label, j)
			}
			seen[v] = label
		}
	}
	if len(seen) != siblings*prefix {
		t.Fatalf("%d distinct values, want %d", len(seen), siblings*prefix)
	}
}

// TestSplitIndexMatchesSplit pins SplitIndex to Split over the labels
// the slab builders and the chaos campaign use: for each prefix and
// index, the child stream and the parent's next draw are those of
// Split(fmt.Sprintf("%s%d")). The campaign splits one media stream per
// drive of a group, "<ns>-grp<i>-d<j>" for its members j.
func TestSplitIndexMatchesSplit(t *testing.T) {
	builders := []int{0, 1, 9, 10, 55, 1007, 20159, -3}
	members := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	for _, c := range []struct {
		prefix  string
		indices []int
	}{
		{"disk-", builders}, {"ost-", builders}, {"ssu-", builders},
		{"atlas1-grp1007-d", members},
	} {
		prefix := c.prefix
		for _, i := range c.indices {
			a, b := New(42), New(42)
			want := a.Split(fmt.Sprintf("%s%d", prefix, i))
			got := b.SplitIndex(prefix, i)
			for j := 0; j < 8; j++ {
				if g, w := got.Uint64(), want.Uint64(); g != w {
					t.Fatalf("%s%d draw %d = %#016x, want %#016x", prefix, i, j, g, w)
				}
			}
			if g, w := b.Uint64(), a.Uint64(); g != w {
				t.Fatalf("%s%d: parent's next draw = %#016x, want %#016x", prefix, i, g, w)
			}
		}
	}
}

func TestSplitIndexAllocatesNothing(t *testing.T) {
	src := New(1)
	var sink uint64
	allocs := testing.AllocsPerRun(100, func() {
		c := src.SplitIndex("disk-", 20159)
		sink += c.Uint64()
	})
	if allocs != 0 {
		t.Fatalf("SplitIndex allocates %v times per call, want 0", allocs)
	}
	_ = sink
}
