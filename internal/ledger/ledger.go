// Package ledger is the tamper-evident operations ledger: a
// hash-chained, append-only record of every operator action, injected
// failure, repair, and scrub escalation the chaos/integrity planes
// emit. Entries are batched into Merkle trees and the batch roots are
// anchored — once per simulated epoch, or earlier when a batch fills —
// into a second hash chain, the off-chain-payload/on-chain-hash shape:
// an auditor that remembers only the anchored root sequence can later
// prove or refute the integrity of the full payload history.
//
// Determinism contract: an entry hash is derived exclusively from the
// chain head, the entry's sequence number, its simulated timestamp,
// and its payload strings — never from wallclock time (which simlint
// forbids in this tree anyway). Two runs of the same campaign
// configuration therefore produce byte-identical root sequences, and
// the campaign fingerprint extends over them; chaos's
// TestCampaignLedgerDeterministic pins the roots exactly.
package ledger

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"spiderfs/internal/sim"
)

// Schema identifies the Export JSON shape.
const Schema = "spiderfs-ledger/1"

// DefaultEpoch is the anchor cadence when Config.Epoch is zero: one
// anchored Merkle root per simulated hour of activity.
const DefaultEpoch = sim.Hour

// Entry is one immutable ledger record. Prev is the hash of the
// preceding entry (the genesis entry chains from the all-zero hash),
// and Hash commits to Prev plus every other field — so mutating any
// payload byte, or splicing the order, breaks the chain.
type Entry struct {
	Seq    uint64   `json:"seq"`
	At     sim.Time `json:"at"`
	Actor  string   `json:"actor"`
	Class  string   `json:"class"`
	Action string   `json:"action"`
	Detail string   `json:"detail,omitempty"`
	Prev   string   `json:"prev"`
	Hash   string   `json:"hash"`
}

// Anchor seals one batch: the Merkle root over the batch's entry
// hashes, chained to the previous anchor. Epoch is the simulated-time
// epoch index the batch belongs to (several anchors may share an epoch
// when MaxBatch splits it; an idle epoch anchors nothing).
type Anchor struct {
	Epoch    int    `json:"epoch"`
	FirstSeq uint64 `json:"first_seq"`
	Entries  int    `json:"entries"`
	Root     string `json:"root"`
	Prev     string `json:"prev"`
	Hash     string `json:"hash"`
}

// RootRef is the minimal trusted memory of one anchored batch — what a
// verifier keeps "on chain" to audit a presented history against.
type RootRef struct {
	Epoch int    `json:"epoch"`
	Root  string `json:"root"`
}

// Config shapes the anchoring cadence.
type Config struct {
	// Epoch is the simulated-time width of one anchoring epoch; an
	// appended entry whose epoch index has moved past the open batch
	// seals that batch first. Zero means DefaultEpoch.
	Epoch sim.Time
	// MaxBatch seals a batch early once it holds this many entries
	// (several anchors then share one epoch). Zero means unbounded.
	MaxBatch int
}

// Export is the portable JSON form of a ledger — the unit the auditor,
// the CLI, and the /v1/sessions/{id}/ledger endpoint exchange.
type Export struct {
	Schema   string   `json:"schema"`
	EpochNS  int64    `json:"epoch_ns"`
	MaxBatch int      `json:"max_batch,omitempty"`
	Entries  []Entry  `json:"entries"`
	Anchors  []Anchor `json:"anchors"`
	Head     string   `json:"head"`
}

// Ledger is the writer. Create with New, feed with Append in
// nondecreasing simulated time, and Close when the run ends to seal
// the final partial epoch.
type Ledger struct {
	cfg        Config
	entries    []Entry
	anchors    []Anchor
	prevEntry  [32]byte
	prevAnchor [32]byte
	leaves     [][32]byte // entry digests of the open batch
	batchFirst uint64
	batchEpoch int
	lastAt     sim.Time
	closed     bool
}

// New builds an empty ledger.
func New(cfg Config) *Ledger {
	if cfg.Epoch <= 0 {
		cfg.Epoch = DefaultEpoch
	}
	if cfg.MaxBatch < 0 {
		cfg.MaxBatch = 0
	}
	return &Ledger{cfg: cfg}
}

// Append records one operation at simulated time at. Entries must
// arrive in nondecreasing time (everything feeding a ledger runs on
// one engine, so a regression is a caller bug, reported as an error —
// never a panic) and appending after Close is refused the same way.
func (l *Ledger) Append(at sim.Time, actor, class, action, detail string) error {
	if l.closed {
		return fmt.Errorf("ledger: append of %s/%s after close", actor, action)
	}
	if at < 0 {
		return fmt.Errorf("ledger: negative timestamp %v for %s/%s", at, actor, action)
	}
	if len(l.entries) > 0 && at < l.lastAt {
		return fmt.Errorf("ledger: time regression %v -> %v for %s/%s", l.lastAt, at, actor, action)
	}
	epoch := int(at / l.cfg.Epoch)
	if len(l.leaves) > 0 &&
		(epoch != l.batchEpoch || (l.cfg.MaxBatch > 0 && len(l.leaves) >= l.cfg.MaxBatch)) {
		l.seal()
	}
	if len(l.leaves) == 0 {
		l.batchFirst = uint64(len(l.entries))
		l.batchEpoch = epoch
	}
	seq := uint64(len(l.entries))
	prev := genesis
	if seq > 0 {
		prev = l.entries[seq-1].Hash
	}
	d := entryDigest(l.prevEntry, seq, at, actor, class, action, detail)
	l.entries = append(l.entries, Entry{
		Seq: seq, At: at, Actor: actor, Class: class, Action: action, Detail: detail,
		Prev: prev, Hash: hexDigest(d),
	})
	l.prevEntry = d
	l.leaves = append(l.leaves, d)
	l.lastAt = at
	return nil
}

// Seal anchors the open batch immediately (an operator-forced anchor;
// the serve plane anchors once per congestion wave this way). Sealing
// an empty batch is a no-op.
func (l *Ledger) Seal() {
	if !l.closed {
		l.seal()
	}
}

// Close seals the final partial batch and freezes the ledger; further
// appends are refused. Close is idempotent.
func (l *Ledger) Close() {
	if l.closed {
		return
	}
	l.seal()
	l.closed = true
}

func (l *Ledger) seal() {
	if len(l.leaves) == 0 {
		return
	}
	root := merkleRoot(l.leaves)
	a := Anchor{
		Epoch: l.batchEpoch, FirstSeq: l.batchFirst, Entries: len(l.leaves),
		Root: hexDigest(root), Prev: l.Head(),
	}
	d := anchorDigest(l.prevAnchor, a.Epoch, a.FirstSeq, a.Entries, root)
	a.Hash = hexDigest(d)
	l.anchors = append(l.anchors, a)
	l.prevAnchor = d
	l.leaves = l.leaves[:0]
}

// Len returns the number of entries appended so far.
func (l *Ledger) Len() int { return len(l.entries) }

// AnchorCount returns the number of sealed batches.
func (l *Ledger) AnchorCount() int { return len(l.anchors) }

// Head returns the anchor-chain head: the hash of the last anchor, or
// the genesis (all-zero) hash while nothing has been sealed.
func (l *Ledger) Head() string {
	if n := len(l.anchors); n > 0 {
		return l.anchors[n-1].Hash
	}
	return genesis
}

// Roots returns the anchored Merkle roots in seal order.
func (l *Ledger) Roots() []string {
	out := make([]string, len(l.anchors))
	for i, a := range l.anchors {
		out[i] = a.Root
	}
	return out
}

// RootRefs returns the export's anchor sequence as trusted memory —
// what a verifier extracts from a history it has already audited and
// keeps to check later presentations against.
func (e *Export) RootRefs() []RootRef {
	out := make([]RootRef, len(e.Anchors))
	for i, a := range e.Anchors {
		out[i] = RootRef{Epoch: a.Epoch, Root: a.Root}
	}
	return out
}

// Export snapshots the ledger into its portable form. The slices are
// copies; mutating the export never corrupts the writer.
func (l *Ledger) Export() *Export {
	return &Export{
		Schema: Schema, EpochNS: int64(l.cfg.Epoch), MaxBatch: l.cfg.MaxBatch,
		Entries: append([]Entry(nil), l.entries...),
		Anchors: append([]Anchor(nil), l.anchors...),
		Head:    l.Head(),
	}
}

// Resume reopens an exported ledger for appending — the CLI's
// `spidersim ledger append` path, and how a forensics session extends
// an audited history. The export is audited first; a tampered history
// is refused with the first finding as the error.
func Resume(exp *Export) (*Ledger, error) {
	if exp.Schema != Schema {
		return nil, fmt.Errorf("ledger: resume: schema %q, want %q", exp.Schema, Schema)
	}
	if fs := Audit(exp); len(fs) > 0 {
		return nil, fmt.Errorf("ledger: resume refused: %s", fs[0])
	}
	l := New(Config{Epoch: sim.Time(exp.EpochNS), MaxBatch: exp.MaxBatch})
	l.entries = append([]Entry(nil), exp.Entries...)
	l.anchors = append([]Anchor(nil), exp.Anchors...)
	if n := len(exp.Entries); n > 0 {
		d, err := decodeDigest(exp.Entries[n-1].Hash)
		if err != nil {
			return nil, fmt.Errorf("ledger: resume: entry head: %w", err)
		}
		l.prevEntry = d
		l.lastAt = exp.Entries[n-1].At
	}
	if n := len(exp.Anchors); n > 0 {
		d, err := decodeDigest(exp.Anchors[n-1].Hash)
		if err != nil {
			return nil, fmt.Errorf("ledger: resume: anchor head: %w", err)
		}
		l.prevAnchor = d
	}
	return l, nil
}

// Domain-separation tags: entry, anchor, and Merkle-node digests can
// never be confused for one another.
const (
	tagEntry  = 0x01
	tagAnchor = 0x02
	tagNode   = 0x03
)

// digestBuf sizes the stack buffer a digest's bytes are laid out in:
// an anchor (89 bytes), a node (65) and an entry whose four strings
// total up to 175 bytes fit; a longer entry grows onto the heap.
const digestBuf = 256

// entryDigest hashes tagEntry, prev, seq and at little-endian, then
// each string length-prefixed (so "ab"+"c" never hashes like "a"+"bc").
func entryDigest(prev [32]byte, seq uint64, at sim.Time, actor, class, action, detail string) [32]byte {
	var buf [digestBuf]byte
	b := append(buf[:0], tagEntry)
	b = append(b, prev[:]...)
	b = binary.LittleEndian.AppendUint64(b, seq)
	b = binary.LittleEndian.AppendUint64(b, uint64(at))
	for _, s := range [4]string{actor, class, action, detail} {
		b = binary.LittleEndian.AppendUint64(b, uint64(len(s)))
		b = append(b, s...)
	}
	return sha256.Sum256(b)
}

func anchorDigest(prev [32]byte, epoch int, firstSeq uint64, entries int, root [32]byte) [32]byte {
	var buf [digestBuf]byte
	b := append(buf[:0], tagAnchor)
	b = append(b, prev[:]...)
	b = binary.LittleEndian.AppendUint64(b, uint64(int64(epoch)))
	b = binary.LittleEndian.AppendUint64(b, firstSeq)
	b = binary.LittleEndian.AppendUint64(b, uint64(int64(entries)))
	b = append(b, root[:]...)
	return sha256.Sum256(b)
}

// merkleRoot folds leaf digests into a binary Merkle root; an odd node
// at any level is paired with itself, so a single-entry batch's root is
// node(leaf, leaf) — distinct from the entry hash itself thanks to the
// tagNode domain byte.
func merkleRoot(leaves [][32]byte) [32]byte {
	if len(leaves) == 0 {
		return [32]byte{}
	}
	if len(leaves) == 1 {
		return nodeDigest(leaves[0], leaves[0])
	}
	level := append([][32]byte(nil), leaves...)
	for len(level) > 1 {
		next := make([][32]byte, 0, (len(level)+1)/2)
		for i := 0; i < len(level); i += 2 {
			j := i + 1
			if j == len(level) {
				j = i
			}
			next = append(next, nodeDigest(level[i], level[j]))
		}
		level = next
	}
	return level[0]
}

func nodeDigest(a, b [32]byte) [32]byte {
	var buf [1 + 2*32]byte
	buf[0] = tagNode
	copy(buf[1:], a[:])
	copy(buf[33:], b[:])
	return sha256.Sum256(buf[:])
}

// genesis is the hex all-zero hash the first entry and the first anchor
// chain from. Every later Prev is its predecessor's Hash string, shared
// rather than encoded again.
var genesis = hexDigest([32]byte{})

func hexDigest(d [32]byte) string {
	var buf [2 * 32]byte
	hex.Encode(buf[:], d[:])
	return string(buf[:])
}

func decodeDigest(s string) ([32]byte, error) {
	var d [32]byte
	raw, err := hex.DecodeString(s)
	if err != nil || len(raw) != len(d) {
		return d, fmt.Errorf("ledger: malformed digest %q", s)
	}
	copy(d[:], raw)
	return d, nil
}
