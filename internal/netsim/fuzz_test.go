package netsim

import (
	"math"
	"math/rand"
	"testing"

	"spiderfs/internal/sim"
)

// Flow-solver operations, one per opcode: each op is four bytes (opcode,
// a, b, c) of the fuzz input.
const (
	opStart = iota
	opStep
	opDegrade
	opRestore
	opDrainReset
	numFlowOps
)

// fuzzLinks is the number of links the fuzzed flows share; fuzzCaps
// gives them capacities whose shares collide often (2e9/2 == 1e9/1), so
// siblings tie with a finishing flow's bottleneck share.
const fuzzLinks = 6

var fuzzCaps = [fuzzLinks]float64{1e9, 2e9, 3e9, 1e9, 4e9, 2e9}

// maxFlowOps bounds one fuzz run; every op is checked against a
// from-scratch recomputation over all active flows.
const maxFlowOps = 512

// checkRates requires every active flow's rate to equal, bitwise, the
// egalitarian rate recomputed from scratch, every flow to have its
// completion scheduled, and every link's cached share to be current.
func checkRates(t *testing.T, n *Network, op int) {
	t.Helper()
	for _, l := range n.links {
		if want := l.Cap / float64(len(l.flows)); l.share != want {
			t.Fatalf("op %d: link %q share %v, want %v", op, n.LinkName(l), l.share, want)
		}
	}
	for i, f := range n.active {
		want := math.Inf(1)
		for _, l := range f.path {
			want = math.Min(want, l.Cap/float64(len(l.flows)))
		}
		if f.rate != want {
			t.Fatalf("op %d: active flow %d rate %v, from scratch %v", op, i, f.rate, want)
		}
		if !f.completion.Pending() {
			t.Fatalf("op %d: active flow %d has no completion scheduled", op, i)
		}
	}
}

// capModel is a fuzz link's capacity-seconds integral, kept by the
// test the way a link has always kept its own: settled at each Degrade,
// and at each Restore of a degraded link, and restarted by Reset.
type capModel struct {
	secs     float64
	since    sim.Time
	degraded bool
}

// settle integrates l's current capacity into m up to now.
func (m *capModel) settle(l *Link, now sim.Time) {
	if now > m.since {
		m.secs += l.Cap * (now - m.since).Seconds()
		m.since = now
	}
}

// checkUtilization requires every link's utilization to equal, bitwise,
// its bytes carried over the model's integral. The network settles its
// integrals at the same instants, in the same arithmetic, whether a
// link's history sits in the record or in a side table.
func checkUtilization(t *testing.T, n *Network, links []*Link, model []capModel, op int) {
	t.Helper()
	now := n.eng.Now()
	for i, l := range links {
		cs := model[i].secs
		if now > model[i].since {
			cs += l.Cap * (now - model[i].since).Seconds()
		}
		want := 0.0
		if cs > 0 {
			want = l.BytesCarried / cs
		}
		if got := n.utilization(l, now); got != want {
			t.Fatalf("op %d: link %q utilization %v, integral gives %v", op, n.LinkName(l), got, want)
		}
	}
}

// fuzzPath decodes a path of 1-5 distinct links: a picks the length,
// the 16 bits of b and c a permutation prefix.
func fuzzPath(links []*Link, a, b, c byte) []*Link {
	avail := append([]*Link(nil), links...)
	x := int(b)<<8 | int(c)
	path := make([]*Link, 1+int(a)%5)
	for i := range path {
		j := x % len(avail)
		x /= len(avail)
		path[i] = avail[j]
		avail = append(avail[:j], avail[j+1:]...)
	}
	return path
}

// runFlowOps replays ops on a network of fuzzLinks links and checks the
// rates, the registries and every link's utilization after every op.
func runFlowOps(t *testing.T, ops []byte) {
	if len(ops) > 4*maxFlowOps {
		ops = ops[:4*maxFlowOps]
	}
	eng := sim.NewEngine()
	n := NewNetwork(eng)
	links := make([]*Link, fuzzLinks)
	for i := range links {
		links[i] = n.NewLink("l"+string(rune('0'+i)), fuzzCaps[i], 0)
	}
	model := make([]capModel, fuzzLinks)
	started, done := 0, 0
	for i := 0; i+3 < len(ops); i += 4 {
		k, op, a, b, c := i/4, ops[i]%numFlowOps, ops[i+1], ops[i+2], ops[i+3]
		switch op {
		case opStart:
			path := fuzzPath(links, a, b, c)
			size := float64(1+int(a/5)%8) * 1e6
			var then func()
			if ops[i]&0x80 != 0 {
				// A completion that starts a follow-up on the same path:
				// the finished flow is already back on the free list.
				then = func() {
					done++
					started++
					n.StartFlow(path, size, func() { done++ })
				}
			} else {
				then = func() { done++ }
			}
			started++
			n.StartFlow(path, size, then)
		case opStep:
			eng.Step()
		case opDegrade:
			j := int(a) % fuzzLinks
			model[j].settle(links[j], eng.Now())
			model[j].degraded = true
			n.Degrade(links[j], float64(1+int(b)%8)/8)
		case opRestore:
			j := int(a) % fuzzLinks
			if model[j].degraded {
				model[j].settle(links[j], eng.Now())
				model[j].degraded = false
			}
			n.Restore(links[j])
		case opDrainReset:
			eng.Run()
			eng.Reset()
			if err := n.Reset(); err != nil {
				t.Fatalf("op %d: Reset after drain: %v", k, err)
			}
			clear(model)
			for j, l := range links {
				if l.Cap != fuzzCaps[j] {
					t.Fatalf("op %d: link %d at %v after Reset, nominal %v", k, j, l.Cap, fuzzCaps[j])
				}
			}
		}
		checkRates(t, n, k)
		checkRegistries(t, n)
		checkUtilization(t, n, links, model, k)
	}
	eng.Run()
	checkRegistries(t, n)
	checkUtilization(t, n, links, model, len(ops)/4)
	if n.ActiveFlows() != 0 || done != started {
		t.Fatalf("after drain: %d flows active, %d of %d completions ran", n.ActiveFlows(), done, started)
	}
}

// FuzzFlowOps drives flow starts (with and without a follow-up start
// from the completion), completions, Degrade, Restore and drain+Reset
// in arbitrary order, and requires the incremental solver's rates to
// equal a from-scratch recomputation bitwise after every op, and each
// link's utilization to equal its bytes over the test's own
// capacity-seconds integral. Run it with
//
//	go test -run '^$' -fuzz FuzzFlowOps -fuzztime 30s ./internal/netsim
//
// Plain go test runs the seed corpus below.
func FuzzFlowOps(f *testing.F) {
	f.Add([]byte{})
	// Two flows tied on a shared bottleneck, then one finishes.
	f.Add([]byte{opStart, 0, 0, 0, opStart, 1, 0, 1, opStart, 1, 0, 2, opStep, 0, 0, 0, opStep, 0, 0, 0})
	// Long paths over shared links, a degrade under them, completions,
	// a restore, and chained completions that reuse recycled flows.
	f.Add([]byte{opStart, 4, 1, 7, opStart, 3, 2, 9, opStart | 0x80, 2, 5, 3, opDegrade, 1, 3, 0,
		opStep, 0, 0, 0, opStart, 4, 9, 1, opRestore, 1, 0, 0, opStep, 0, 0, 0, opStep, 0, 0, 0})
	// Reset with pooled flows, then the same starts again.
	f.Add([]byte{opStart, 4, 0, 0, opStart, 2, 3, 3, opStep, 0, 0, 0, opDrainReset, 0, 0, 0,
		opStart, 4, 0, 0, opStart, 2, 3, 3, opStep, 0, 0, 0})
	// Random mixes, short and long.
	rnd := rand.New(rand.NewSource(1))
	for _, n := range []int{40, 400, 2000} {
		ops := make([]byte, n)
		rnd.Read(ops)
		f.Add(ops)
	}
	f.Fuzz(runFlowOps)
}
