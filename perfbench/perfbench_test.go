package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"plb/internal/node"
	"plb/internal/transport"
)

func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{9, 0, false},
		{19, 0, false},
		{20, 50, true},
		{99, 75, true},
		{100, 90, true},
		{200, 95, true},
		{999, 95, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %g, %v; want %g, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestSummarizeSegmentsAndCount(t *testing.T) {
	// 50000 samples over a 20s window: five segments of 10000, the
	// most that keep 100 samples beyond each segment's p99.
	samples := make([]float64, 50000)
	for i := range samples {
		samples[i] = float64(i % 10000) // each segment holds 0..9999
	}
	// A segment slowed by the host must not move the fast-end p99.
	for i := 20000; i < 30000; i++ {
		samples[i] = 1e6
	}
	tm := summarize(samples, 20*time.Second)
	if tm.n != 50000 || tm.segments != 5 {
		t.Fatalf("n=%d segments=%d, want 50000, 5", tm.n, tm.segments)
	}
	if tm.p99 != 9899 {
		t.Errorf("fast-end segment p99 = %g, want 9899", tm.p99)
	}
	if tm.p50 != 6249 {
		t.Errorf("p50 = %g, want the pooled median 6249", tm.p50)
	}
	if tm.tailQ != 99.9 {
		t.Errorf("pooled tail percentile p%g, want p99.9 (50000 samples leave 50 beyond p99.9)", tm.tailQ)
	}
	// A window shorter than the segment count caps it: 2s, 2 segments.
	if got := summarize(samples, 2*time.Second).segments; got != 2 {
		t.Errorf("2s window: %d segments, want 2", got)
	}
	// Too few samples for two segments: the series is taken whole.
	if tm := summarize(samples[:5000], 20*time.Second); tm.segments != 1 || tm.p99 != 4949 {
		t.Errorf("5000 samples: %d segments, p99 %g; want 1, 4949", tm.segments, tm.p99)
	}
	r := newRun()
	needP99(r, "step", summarize(samples[:999], 20*time.Second))
	if r.err == nil {
		t.Error("999 samples passed the p99 requirement")
	}
}

func TestFastEnd(t *testing.T) {
	// 25 one-second sub-windows, two of them slowed by the host:
	// rates report the third-fastest, times the third-shortest.
	rates, times := make([]float64, 25), make([]float64, 25)
	for i := range rates {
		rates[i], times[i] = float64(100+i), float64(1+i)
	}
	rates[24], rates[23] = 1, 1
	times[0], times[1] = 1e6, 1e6
	if got := fastRate(rates); got != 120 {
		t.Errorf("fastRate = %g, want 120", got)
	}
	if got := fastTime(times); got != 5 {
		t.Errorf("fastTime = %g, want 5", got)
	}
}

func TestLittleSojourn(t *testing.T) {
	if got := littleSojournMs(280, 28000); math.Abs(got-10) > 1e-12 {
		t.Errorf("littleSojournMs(280, 28000) = %g ms, want 10", got)
	}
	if !math.IsNaN(littleSojournMs(5, 0)) {
		t.Error("a zero completion rate must give no sojourn")
	}
	// Three sub-windows completing 1000 tasks/s: 40 client-side plus
	// a fleet mean of 60 in the system is 100ms in the first two; the
	// third's backlog spike (10000 tasks, 10s) is set aside by the
	// fast-end rule.
	t0 := time.Unix(0, 0)
	at := func(s float64) time.Time { return t0.Add(time.Duration(s * float64(time.Second))) }
	marks := []mark{{at(0), 0, 0}, {at(1), 10, 1000}, {at(2), 20, 2000}, {at(3), 30, 3000}}
	client := []sample{{at(0.5), 40}, {at(1.5), 40}, {at(2.5), 40}}
	fleet := []sample{{at(0.2), 50}, {at(0.7), 70}, {at(1.5), 60}, {at(2.5), 9960}}
	got := spanSojournMs(consecutive(marks), client, fleet)
	if math.Abs(got-100) > 1e-9 {
		t.Errorf("spanSojournMs = %g ms, want 100 (fast end of 100, 100, 10000)", got)
	}
}

// fakeTrans records sends and hands out scripted inboxes.
type fakeTrans struct {
	sent  []transport.Message
	inbox []transport.Message
}

func (f *fakeTrans) N() int                              { return 4 }
func (f *fakeTrans) Send(m transport.Message)            { f.sent = append(f.sent, m) }
func (f *fakeTrans) Deliver()                            {}
func (f *fakeTrans) Inbox(p int) []transport.Message     { in := f.inbox; f.inbox = nil; return in }
func (f *fakeTrans) Step() int64                         { return 0 }
func (f *fakeTrans) Stats() transport.Stats              { return transport.Stats{} }
func (f *fakeTrans) LocalAddr() string                   { return "fake" }
func (f *fakeTrans) Close() error                        { return nil }
func (f *fakeTrans) transfers() (ms []transport.Message) { return kind(f.sent, transport.KindTransfer) }

func kind(ms []transport.Message, k transport.Kind) (out []transport.Message) {
	for _, m := range ms {
		if m.Kind == k {
			out = append(out, m)
		}
	}
	return out
}

func TestClientLatenessIsDueVersusSent(t *testing.T) {
	tr := &fakeTrans{}
	sched := newSchedule(7, 1000, 4) // 1000 tasks/s over 4 processors
	c := newClient(tr, sched, 4)
	if joins := kind(tr.sent, transport.KindJoin); len(joins) != 4 {
		t.Fatalf("%d joins announced, want one per processor", len(joins))
	}
	// The client stalls for 50ms: its first wake-up must send every
	// arrival due by then, each late by exactly now - due.
	var due []arrival
	probe := newSchedule(7, 1000, 4)
	due = probe.pop(50*time.Millisecond, due)
	if len(due) < 20 {
		t.Fatalf("only %d arrivals in 50ms at 1000/s", len(due))
	}
	c.tick(50*time.Millisecond, true)
	if int(c.injected) != len(due) || len(c.lateMs) != len(due) {
		t.Fatalf("injected %d with %d lateness samples, want %d", c.injected, len(c.lateMs), len(due))
	}
	for i, a := range due {
		want := float64((50*time.Millisecond - a.due).Nanoseconds()) / 1e6
		if math.Abs(c.lateMs[i]-want) > 1e-9 {
			t.Fatalf("arrival %d due %v: lateness %gms, want %gms", i, a.due, c.lateMs[i], want)
		}
	}
	// One block per processor, carrying exactly its arrivals.
	perProc := map[int32]int{}
	for _, a := range due {
		perProc[a.to]++
	}
	xfers := tr.transfers()
	if len(xfers) != len(perProc) {
		t.Fatalf("%d transfers for %d processors", len(xfers), len(perProc))
	}
	for _, m := range xfers {
		if m.From != node.LoadGenID || int(m.A) != perProc[m.To] || len(m.Tasks) != perProc[m.To] {
			t.Errorf("transfer to %d: from %d, A=%d, %d tasks; want %d", m.To, m.From, m.A, len(m.Tasks), perProc[m.To])
		}
	}
	// Acks at 60ms: each task's ack latency runs from its due time.
	for _, m := range xfers {
		tr.inbox = append(tr.inbox, transport.Message{From: m.To, To: node.LoadGenID, Kind: transport.KindTransferAck, B: m.B})
	}
	c.tick(60*time.Millisecond, false)
	if c.acked != c.injected || len(c.pending) != 0 || len(c.ackMs) != len(due) {
		t.Fatalf("acked %d of %d, %d pending, %d ack samples", c.acked, c.injected, len(c.pending), len(c.ackMs))
	}
	for _, ms := range c.ackMs {
		if ms < 10 || ms > 60 {
			t.Errorf("ack latency %gms outside [10, 60]", ms)
		}
	}
	// An ack from the wrong processor retires nothing, and an unacked
	// block is resent once clientRetryAfter has passed.
	c.tick(61*time.Millisecond, true)
	sent := len(tr.transfers())
	if len(c.pending) == 0 {
		t.Fatal("no block outstanding after the second wake-up")
	}
	for seq, b := range c.pending {
		tr.inbox = append(tr.inbox, transport.Message{From: b.to + 1, To: node.LoadGenID, Kind: transport.KindTransferAck, B: seq})
	}
	c.tick(61*time.Millisecond+clientRetryAfter, false)
	if c.retries == 0 || len(tr.transfers()) <= sent {
		t.Errorf("stale blocks were not retried: %d retries", c.retries)
	}
}

func TestScheduleIsSeeded(t *testing.T) {
	a := newSchedule(3, 5000, 256).pop(time.Second, nil)
	b := newSchedule(3, 5000, 256).pop(time.Second, nil)
	c := newSchedule(4, 5000, 256).pop(time.Second, nil)
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("same seed gave %d and %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at arrival %d", i)
		}
	}
	if len(a) == len(c) && a[0] == c[0] {
		t.Error("different seeds gave the same schedule")
	}
	if len(a) < 4500 || len(a) > 5500 {
		t.Errorf("%d arrivals in 1s at 5000/s", len(a))
	}
}

func TestChecksFail(t *testing.T) {
	if err := checkSim(100, 60, 40, 5, 3); err != nil {
		t.Errorf("a conserving, active run failed: %v", err)
	}
	if checkSim(100, 60, 39, 5, 3) == nil {
		t.Error("conservation off by one passed")
	}
	if checkSim(100, 60, 41, 5, 3) == nil {
		t.Error("conservation off by one passed")
	}
	if checkSim(100, 60, 40, 0, 0) == nil {
		t.Error("an idle balancer passed")
	}
	if checkSim(100, 60, 40, 5, 0) == nil {
		t.Error("a balancer that never matched passed")
	}
	if err := checkServe(10, 10, 10, 0.2, 3); err != nil {
		t.Errorf("a healthy serve run failed: %v", err)
	}
	for _, c := range []struct {
		injected, acked, applied int64
		growth, late             float64
	}{
		{10, 9, 10, 0, 1},
		{10, 10, 11, 0, 1},
		{10, 10, 10, growthBound + 0.1, 1},
		{10, 10, 10, 0, lateBoundMs + 1},
	} {
		if checkServe(c.injected, c.acked, c.applied, c.growth, c.late) == nil {
			t.Errorf("checkServe%+v passed", c)
		}
	}
	if checkAccounted(0.03, 0.01) != nil || checkAccounted(0.08, 0.1) != nil {
		t.Error("accounted budgets failed")
	}
	if checkAccounted(0.08, 0.01) == nil {
		t.Error("8% unaccounted with 1% overhead passed")
	}
}

func TestGrowth(t *testing.T) {
	flat := []float64{10, 12, 8, 10, 11, 9, 10, 10}
	if g := growth(flat); math.Abs(g) > 0.2 {
		t.Errorf("flat backlog growth %g", g)
	}
	rising := []float64{10, 10, 20, 40, 80, 160, 320, 640}
	if g := growth(rising); g <= growthBound {
		t.Errorf("doubling backlog growth %g within bound %g", g, growthBound)
	}
}

// TestDeclarationsMatchBenchmarkJSON keeps the metric declarations in
// sync with the benchmark's manifest at the repository root.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &manifest); err != nil {
		t.Fatal(err)
	}
	listed := make(map[string]bool)
	for _, w := range manifest.Workloads {
		listed[w.Name] = true
		if workloads[w.Name] == nil || diagnostic[w.Name] {
			t.Errorf("manifest workload %s is not a benchmarked workload", w.Name)
		}
	}
	for name := range workloads {
		if !listed[name] && !diagnostic[name] {
			t.Errorf("workload %s is neither in the manifest nor diagnostic", name)
		}
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: manifest %d metrics, benchmark %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: manifest %s [%s], benchmark %s [%s]", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", manifest.EndToEnd, endToEnd)
	same("per_layer", manifest.PerLayer, perLayer)
}
