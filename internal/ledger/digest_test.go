package ledger

import (
	"strings"
	"testing"

	"spiderfs/internal/sim"
)

// pattern returns a digest whose bytes count up from start.
func pattern(start byte) [32]byte {
	var d [32]byte
	for i := range d {
		d[i] = start + byte(i)
	}
	return d
}

// TestLedgerDigestsPinned pins the entry, anchor and Merkle-node digests
// and the Merkle roots to literals. Every committed ledger root, the
// campaign fingerprints and the ledger pins derive from these bytes,
// so a rewrite of the digest code must reproduce them exactly. The
// inputs cover empty fields, a negative epoch, an odd leaf count at
// each level and a detail longer than any fixed-size buffer.
func TestLedgerDigestsPinned(t *testing.T) {
	long := strings.Repeat("scrub-escalation detail ", 64) // 1,536 bytes
	var zero [32]byte
	leaves := make([][32]byte, 5)
	for i := range leaves {
		leaves[i] = entryDigest(pattern(byte(i)), uint64(i), sim.Time(i)*sim.Minute, "oss3", "software", "oss-crash", "")
	}
	cases := []struct {
		name string
		got  [32]byte
		want string
	}{
		{"entry/empty", entryDigest(zero, 0, 0, "", "", "", ""),
			"89789b087cc791a2426f8849e818c507dcbc19446aa719419998647393d88882"},
		{"entry/fields", entryDigest(pattern(0), 7, 3*sim.Hour+sim.Minute, "atlas1-grp0", "integrity", "scrub-escalation", "2 stripes beyond parity"),
			"5bb02a5e7d33326da58d4ac6f786f29b8d11585a3635ac862c2cddb71f3df34e"},
		{"entry/long-detail", entryDigest(pattern(0xe0), 1<<40, 7*24*sim.Hour, "rtr7", "", "cable-cut", long),
			"ca43e2be989bccb7124c1bb77ff820655186ed0ab3049e6b5ae1e3017d550ac2"},
		{"anchor/genesis", anchorDigest(zero, 0, 0, 1, zero),
			"1208cdce2f6bf0b891c7ec19d261276c5863190e93881e32f4b141f5b7c3913d"},
		{"anchor/fields", anchorDigest(pattern(0x40), 167, 12345, 64, pattern(0x80)),
			"a5f547b7d4247f07609038101b08bfe21df9285a76c9ce6449b4f0407d1e248c"},
		{"anchor/negative-epoch", anchorDigest(pattern(1), -1, 0, 0, pattern(2)),
			"3191911a705929135b4ec3345511bd068bcb8831dd874a835ac60fd5970c03fe"},
		{"node/zero", nodeDigest(zero, zero),
			"dc48a742ae32cfd66352372d6120ed14d6629fc166246b05ff8b03e23804701f"},
		{"node/pair", nodeDigest(pattern(0x10), pattern(0x90)),
			"ba41102880e32bac448dc7c65211c8c6f1d47e0b4d243a9c046d00528e639c54"},
		{"root/1", merkleRoot(leaves[:1]), "7e1820692c0277d719666e6c02bb76104481c6d16e2edc8a52ebc9b7a2983996"},
		{"root/3", merkleRoot(leaves[:3]), "5a1641d2f0ce91958826d73ad24796d892d943eb8f2e591404aa26c7b9de06cf"},
		{"root/5", merkleRoot(leaves), "27aeb0c9d7bd2748dae39ee92868ea6941fafeaf77894b7f4bf3f29bfcc8ce86"},
	}
	for _, c := range cases {
		if got := hexDigest(c.got); got != c.want {
			t.Errorf("%s = %s, want %s", c.name, got, c.want)
		}
	}
}

// TestAppendAllocationCeiling holds Append to at most two allocations
// per entry: the entry's Hash string and the amortized growth of the
// entry and leaf slices. Prev shares its predecessor's Hash, and the
// digest is laid out in a stack buffer.
func TestAppendAllocationCeiling(t *testing.T) {
	l := New(Config{})
	var at sim.Time
	n := testing.AllocsPerRun(2000, func() {
		at += sim.Millisecond
		if err := l.Append(at, "atlas1-grp7", "hardware", "latent-data-loss", ""); err != nil {
			t.Fatal(err)
		}
	})
	if n > 2 {
		t.Errorf("Append allocates %.2f per entry, want at most 2", n)
	}
}
