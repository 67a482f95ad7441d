package detect

import (
	"testing"

	"plb/internal/xrand"
)

// sweepDetector is the reference the derived-verdict Detector must
// match: the original per-Tick deadline sweep, which stores every
// peer's state and walks all n peers on each Tick.
type sweepDetector struct {
	cfg       Config
	lastHeard []int64
	state     []State

	suspicions, readmissions, confirmed int64
}

func newSweep(n int, cfg Config) *sweepDetector {
	return &sweepDetector{cfg: cfg, lastHeard: make([]int64, n), state: make([]State, n)}
}

func (d *sweepDetector) Heard(p int32, now int64) {
	if p < 0 || int(p) >= len(d.state) {
		return
	}
	if now > d.lastHeard[p] {
		d.lastHeard[p] = now
	}
	if d.state[p] != Alive {
		d.state[p] = Alive
		d.readmissions++
	}
}

func (d *sweepDetector) Tick(now int64) {
	for p := range d.state {
		silence := now - d.lastHeard[p]
		switch {
		case silence > d.cfg.DownAfter:
			if d.state[p] == Alive {
				d.suspicions++
			}
			if d.state[p] != Down {
				d.confirmed++
				d.state[p] = Down
			}
		case silence > d.cfg.SuspectAfter:
			if d.state[p] == Alive {
				d.suspicions++
				d.state[p] = Suspected
			}
		}
	}
}

func (d *sweepDetector) State(p int32) State {
	if p < 0 || int(p) >= len(d.state) {
		return Alive
	}
	return d.state[p]
}

func (d *sweepDetector) Counts() (alive, suspected, down int) {
	for _, s := range d.state {
		switch s {
		case Alive:
			alive++
		case Suspected:
			suspected++
		default:
			down++
		}
	}
	return
}

// runAgainstSweep decodes data into a detector configuration and a
// sequence of Heard and Tick calls, applies it to both detectors, and
// fails at the first call after which any observable differs. The
// clock never runs backwards (Tick's contract); everything else is
// fair game: several Heards per tick, stale and future Heard times,
// repeated Ticks at one clock, jumps far past DownAfter, and ids
// outside [0, n).
func runAgainstSweep(t *testing.T, data []byte) {
	if len(data) < 3 {
		return
	}
	n := 1 + int(data[0]%8)
	suspect := 1 + int64(data[1]%8)
	cfg := Config{SuspectAfter: suspect, DownAfter: suspect + int64(data[2]%17), HeartbeatEvery: 1}
	got, err := New(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := newSweep(n, cfg)
	now := int64(data[2]%5) - 2 // the clock may start below zero
	ops := data[3:]
	for i := 0; i+1 < len(ops); i += 2 {
		op, arg := ops[i], ops[i+1]
		switch op % 4 {
		case 0, 1:
			p := int32(arg%uint8(n+4)) - 2 // two ids below the range, two above
			at := now + 1 - int64(op>>2)%(cfg.DownAfter+3)
			got.Heard(p, at)
			want.Heard(p, at)
		case 2:
			now += int64(arg % 4) // 0 repeats the clock
			got.Tick(now)
			want.Tick(now)
		case 3:
			now += cfg.DownAfter + 1 + int64(arg%8)
			got.Tick(now)
			want.Tick(now)
		}
		for p := int32(-2); p < int32(n+2); p++ {
			if g, w := got.State(p), want.State(p); g != w || got.Suspected(p) != (w != Alive) {
				t.Fatalf("op %d: State(%d) = %v (suspected %v), sweep says %v", i/2, p, g, got.Suspected(p), w)
			}
		}
		ga, gs, gd := got.Counts()
		wa, ws, wd := want.Counts()
		if ga != wa || gs != ws || gd != wd {
			t.Fatalf("op %d: Counts = %d/%d/%d, sweep says %d/%d/%d", i/2, ga, gs, gd, wa, ws, wd)
		}
		if got.Suspicions() != want.suspicions || got.Readmissions() != want.readmissions ||
			got.ConfirmedDown() != want.confirmed {
			t.Fatalf("op %d: suspicions/readmissions/confirmed = %d/%d/%d, sweep says %d/%d/%d", i/2,
				got.Suspicions(), got.Readmissions(), got.ConfirmedDown(),
				want.suspicions, want.readmissions, want.confirmed)
		}
	}
}

// FuzzDetectorMatchesSweep: the derived-verdict detector and the
// per-Tick sweep agree on every verdict and counter after every call.
func FuzzDetectorMatchesSweep(f *testing.F) {
	f.Add([]byte{3, 4, 9, 0, 1, 2, 1, 2, 3, 4, 0, 2, 2, 3, 7, 1, 1, 2, 0})
	// The stale-Heard case: evidence older than the deadline anchor.
	f.Add([]byte{1, 4, 0, 0, 0, 2, 2, 8, 0, 2, 2, 2, 1, 2, 1, 2, 1})
	// Jumps straight past DownAfter, then re-admission and re-suspicion.
	f.Add([]byte{7, 2, 5, 3, 0, 0, 1, 4, 2, 3, 5, 1, 7, 2, 3, 2, 3})
	f.Fuzz(runAgainstSweep)
}

// TestDetectorMatchesSweepRandom runs the differential over long
// seeded call sequences, beyond what the fuzz seeds reach in a plain
// test run.
func TestDetectorMatchesSweepRandom(t *testing.T) {
	r := xrand.New(42)
	for trial := 0; trial < 200; trial++ {
		data := make([]byte, 3+2*400)
		for i := range data {
			data[i] = byte(r.Uint64())
		}
		runAgainstSweep(t, data)
	}
}

// BenchmarkDetectorTick: one op is one step of a node's detector at
// n = 256 — a peer heard, then the clock advanced — with the node
// runtime's n = 256 deadlines.
func BenchmarkDetectorTick(b *testing.B) {
	const size = 256
	d, err := New(size, Config{SuspectAfter: 4 * (2*size + 4), DownAfter: 16 * (2*size + 4), HeartbeatEvery: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		now := int64(i) + 1
		d.Heard(int32(i%size), now)
		d.Tick(now)
	}
}
