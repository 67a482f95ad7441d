package node

import (
	"sort"
	"testing"

	"plb/internal/detect"
	"plb/internal/netsim"
	"plb/internal/transport"
	"plb/internal/xrand"
)

// refPickPartner is the reference partner draw pickPartner must
// reproduce: walk an active-peer map, keep the unsuspected peers other
// than self, sort them, and index the sorted list with one draw from
// the node's stream.
func refPickPartner(active map[int32]bool, self int32, det *detect.Detector, rng *xrand.Stream) (int32, bool) {
	cands := make([]int32, 0, len(active))
	for p := range active {
		if p != self && !det.Suspected(p) {
			cands = append(cands, p)
		}
	}
	if len(cands) == 0 {
		return 0, false
	}
	sortInt32(cands)
	return cands[rng.Intn(len(cands))], true
}

func sortInt32(s []int32) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// TestPickPartnerMatchesSortedDraw drives pickPartner and the map-walk
// reference over random bootstrap lists (self and duplicate ids
// included), join/drain/leave sequences and detector suspicions, and
// requires the same partner from the same stream at every draw.
func TestPickPartnerMatchesSortedDraw(t *testing.T) {
	r := xrand.New(7)
	draws := 0
	for trial := 0; trial < 60; trial++ {
		size := 2 + r.Intn(40)
		self := int32(r.Intn(size))
		var peers []int32
		if r.Intn(3) > 0 {
			for i := r.Intn(2 * size); i > 0; i-- {
				peers = append(peers, int32(r.Intn(size)))
			}
		}
		tr := &sinkTrans{n: size}
		n, err := New(tr, Config{ID: self, N: size, Seed: uint64(trial) + 1, Peers: peers,
			Detect: detect.Config{SuspectAfter: 3, DownAfter: 6}})
		if err != nil {
			t.Fatal(err)
		}
		// The reference active set, maintained the map-walk way.
		ref := make(map[int32]bool)
		if peers == nil {
			for p := int32(0); p < int32(size); p++ {
				if p != self {
					ref[p] = true
				}
			}
		}
		for _, p := range peers {
			ref[p] = true
		}
		clock := int64(0)
		for op := 0; op < 300; op++ {
			p := int32(r.Intn(size+1)) - 1 // LoadGenID included
			switch r.Intn(6) {
			case 0:
				n.handle(transport.Message{From: p, To: self, Kind: transport.KindJoin})
				if !ref[p] && p != self && p >= 0 {
					ref[p] = true
				}
			case 1:
				kind := transport.KindDrain
				if r.Intn(2) == 0 {
					kind = transport.KindLeave
				}
				n.handle(transport.Message{From: p, To: self, Kind: kind})
				delete(ref, p)
			case 2:
				// A tick's worth of evidence: a random subset is heard,
				// the rest drift towards suspicion.
				clock += 1 + int64(r.Intn(5))
				for q := int32(0); q < int32(size); q++ {
					if r.Intn(3) == 0 {
						n.det.Heard(q, clock)
					}
				}
				n.det.Tick(clock)
			default:
				want := *n.rng
				wp, wok := refPickPartner(ref, self, n.det, &want)
				gp, gok := n.pickPartner()
				if gp != wp || gok != wok || *n.rng != want {
					t.Fatalf("trial %d op %d: pickPartner = (%d, %v), reference (%d, %v), streams equal %v",
						trial, op, gp, gok, wp, wok, *n.rng == want)
				}
				draws++
			}
			var keys []int32
			for q := range ref {
				if q != self {
					keys = append(keys, q)
				}
			}
			sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
			if len(keys) != len(n.active) {
				t.Fatalf("trial %d op %d: active %v, reference %v", trial, op, n.active, keys)
			}
			for i := range keys {
				if keys[i] != n.active[i] {
					t.Fatalf("trial %d op %d: active %v, reference %v", trial, op, n.active, keys)
				}
			}
		}
	}
	if draws < 1000 {
		t.Fatalf("only %d draws compared", draws)
	}
}

// TestPickPartnerAllocatesNothing: a draw is a walk over the sorted
// active set, with no candidate slice.
func TestPickPartnerAllocatesNothing(t *testing.T) {
	n, err := New(&sinkTrans{n: 256}, Config{ID: 3, N: 256, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() { n.pickPartner() }); allocs != 0 {
		t.Fatalf("pickPartner allocates %v times per draw", allocs)
	}
}

// TestPeersListingSelfOrDuplicates: a bootstrap list naming the node
// itself or an id twice yields one frame per other peer — no frame to
// itself — and the drain and leave broadcasts go out in ascending id
// order.
func TestPeersListingSelfOrDuplicates(t *testing.T) {
	const self = 2
	tr := &sinkTrans{n: 6}
	n, err := New(tr, Config{ID: self, N: 6, Seed: 1, Peers: []int32{4, self, 1, 4, 0, 3, self}})
	if err != nil {
		t.Fatal(err)
	}
	n.Drain()
	for i := 0; i < 100 && !n.DrainDone(); i++ {
		n.Tick()
	}
	if !n.DrainDone() {
		t.Fatal("empty node never finished draining")
	}
	byKind := make(map[transport.Kind][]int32)
	for _, m := range tr.sent {
		if m.To == self {
			t.Fatalf("self-addressed %v frame sent", m.Kind)
		}
		byKind[m.Kind] = append(byKind[m.Kind], m.To)
	}
	want := []int32{0, 1, 3, 4}
	for _, kind := range []transport.Kind{transport.KindJoin, transport.KindDrain, transport.KindLeave} {
		got := byKind[kind]
		if len(got) != len(want) {
			t.Fatalf("%v frames to %v, want %v", kind, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v frames to %v, want %v", kind, got, want)
			}
		}
	}
}

// BenchmarkNodeTick: one op is one tick of an idle n = 256 fleet over
// the in-memory transport — Deliver, then every node's Tick. Idle
// nodes do the per-tick floor: inbox, detector, heartbeats.
func BenchmarkNodeTick(b *testing.B) {
	const size = 256
	nw, err := netsim.New(size)
	if err != nil {
		b.Fatal(err)
	}
	nodes := make([]*Node, size)
	for id := range nodes {
		if nodes[id], err = New(nw, Config{ID: int32(id), N: size, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
	tick := func() {
		nw.Deliver()
		for _, nd := range nodes {
			nd.Tick()
		}
	}
	for i := 0; i < 16; i++ { // carry the boot join volley and greetings
		tick()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tick()
	}
}
