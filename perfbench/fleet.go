package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"plb/internal/cli"
	"plb/internal/engine"
	"plb/internal/node"
	"plb/internal/stats"
	"plb/internal/transport"
	"plb/internal/transport/socktrans"
)

// The socket workloads run the ROADMAP's reference size, n = 256, where
// the fault-free boot join volley overflows the per-peer write queues.
const (
	fleetN = 256
	// fleetSetupReps boots are timed per run, each carrying its join
	// volley; the median is the reported set-up time.
	fleetSetupReps = 9
	// fleetPause is node.Fleet's default per-step pause, which the
	// traced fleet copies.
	fleetPause = 200 * time.Microsecond
	// flashPeriod is the flash workload's default cycle in steps; the
	// fleet-flash window covers whole cycles so a run never ends in a
	// different part of the cycle than another.
	flashPeriod = 400
	// fleetSampleEvery spaces the backlog samples Little's law reads.
	fleetSampleEvery = 16
	// settleSteps bounds the post-window pumping before the audit.
	settleSteps = 4000
)

// fleet is what the workloads drive: node.Fleet itself, or the traced
// fleet that rebuilds it from socktrans.New and node.New.
type fleet interface {
	Steps(k int)
	Now() int64
	// books sums the live nodes' conservation operands.
	books() books
	// settle pumps until no transfer awaits an ack, twice in a row.
	settle(maxSteps int) bool
	// counters reads the frame and transfer counters node.Fleet
	// collects; the traced fleet reports none (its shims count).
	counters() socketCounters
}

// books are a fleet's conservation operands and counters.
type books struct {
	in, completed, queued, inflight, injected int64
}

func (b books) out() int64 { return b.completed + b.queued + b.inflight }

func sumBooks(sts []node.Status) books {
	var b books
	for _, st := range sts {
		b.in += st.Generated + st.Injected
		b.injected += st.Injected
		b.completed += st.Completed
		b.queued += st.Queued
		b.inflight += st.Inflight
	}
	return b
}

// realFleet adapts node.Fleet.
type realFleet struct{ *node.Fleet }

func (f realFleet) books() books {
	live, _ := f.Statuses()
	return sumBooks(live)
}

func (f realFleet) settle(maxSteps int) bool { return f.Settle(maxSteps) }

func (f realFleet) counters() socketCounters { return countersOf(f.Collect()) }

// bootReport is one timed boot.
type bootReport struct {
	seconds       float64
	frames, drops int64
}

// carryVolley steps a booting fleet until its join volley has stopped:
// node.New sends the volley and each node greets back the peers it
// hears from, so the boot ends once three consecutive steps send no
// join frame.
func carryVolley(step func(), joinsSent func() int64) error {
	last, quiet := joinsSent(), 0
	for steps := 0; quiet < 3; steps++ {
		if steps > 1000 {
			return fmt.Errorf("join volley still sending after %d steps", steps)
		}
		step()
		if j := joinsSent(); j == last {
			quiet++
		} else {
			quiet, last = 0, j
		}
	}
	return nil
}

// bootFleet builds a fleet and carries its join volley.
func bootFleet(cfg node.FleetConfig) (*node.Fleet, bootReport, error) {
	t := time.Now()
	f, err := node.NewFleet(cfg)
	if err != nil {
		return nil, bootReport{}, err
	}
	if err := carryVolley(func() { f.Steps(1) }, func() int64 { return f.Collect().Extra["sent_join"] }); err != nil {
		f.Close()
		return nil, bootReport{}, err
	}
	secs := time.Since(t).Seconds()
	c := f.Collect()
	return f, bootReport{seconds: secs, frames: c.Messages, drops: c.Drops}, nil
}

// timeBoots boots reps fleets, keeps the last one running, and reports
// the median boot.
func timeBoots(r *run, cfg node.FleetConfig, reps int) *node.Fleet {
	var secs, frames, drops []float64
	var f *node.Fleet
	for i := 0; i < reps; i++ {
		if f != nil {
			f.Close()
		}
		var rep bootReport
		var err error
		f, rep, err = bootFleet(cfg)
		if err != nil {
			r.check(fmt.Errorf("boot fleet: %w", err))
			return nil
		}
		secs = append(secs, rep.seconds)
		frames = append(frames, float64(rep.frames))
		drops = append(drops, float64(rep.drops))
	}
	fmt.Printf("set-up: median %.3fs over %d boots, join volley carried; boot frames %.0f, dropped %.0f\n",
		median(secs), reps, median(frames), median(drops))
	r.set("setup_s", median(secs))
	r.set("fleet.boot_frames", median(frames))
	r.set("fleet.boot_drops", median(drops))
	return f
}

// auditFleet settles the fleet and checks conservation exactly.
func auditFleet(f fleet) (books, error) {
	if !f.settle(settleSteps) {
		return f.books(), fmt.Errorf("fleet did not settle within %d steps", settleSteps)
	}
	b := f.books()
	if b.in != b.out() {
		return b, fmt.Errorf("conservation after settle: in %d != completed %d + queued %d + inflight %d",
			b.in, b.completed, b.queued, b.inflight)
	}
	return b, nil
}

// socketCounters are the Collect-derived frame and transfer counters of
// a window.
type socketCounters struct {
	sent, dropped, retries, requeued, acked int64
	kinds                                   map[string]int64
}

func countersOf(m engine.Metrics) socketCounters {
	c := socketCounters{
		sent: m.Messages, dropped: m.Drops,
		retries: m.Extra["xfer_retries"], requeued: m.Extra["xfer_requeued"], acked: m.Extra["xfer_acked"],
		kinds: make(map[string]int64),
	}
	for _, k := range frameKinds {
		c.kinds[k] = m.Extra["sent_"+k]
	}
	return c
}

// reportCounters sets the frame, drop and transfer metrics of a window
// of steps from its before/after counters.
func reportCounters(r *run, a, b socketCounters, steps int) {
	sent := b.sent - a.sent
	r.set("socktrans.frames_per_step", float64(sent)/float64(steps))
	for _, k := range frameKinds {
		r.set("socktrans.frames_per_step."+k, float64(b.kinds[k]-a.kinds[k])/float64(steps))
	}
	if sent > 0 {
		r.set("socktrans.drop_ratio", float64(b.dropped-a.dropped)/float64(sent))
	}
	if originals := b.kinds["transfer"] - a.kinds["transfer"] - (b.retries - a.retries); originals > 0 {
		r.set("node.retry_ratio", float64(b.retries-a.retries)/float64(originals))
	}
	r.set("node.requeued", float64(b.requeued-a.requeued))
	fmt.Printf("frames: %.1f/step (", float64(sent)/float64(steps))
	for i, k := range frameKinds {
		if i > 0 {
			fmt.Print(", ")
		}
		fmt.Printf("%s %.1f", k, float64(b.kinds[k]-a.kinds[k])/float64(steps))
	}
	fmt.Printf("); dropped %d; transfer retries %d, requeued %d\n",
		b.dropped-a.dropped, b.retries-a.retries, b.requeued-a.requeued)
}

func flashConfig(seed uint64) (node.FleetConfig, error) {
	model, weigher, err := cli.BuildWorkload("workload:arrivals=flash", fleetN, seed)
	if err != nil {
		return node.FleetConfig{}, err
	}
	// Endpoints 0 and Pause 0 are lbsim's defaults: min(4, n)
	// endpoints and node.Fleet's 200µs pause.
	return node.FleetConfig{N: fleetN, Network: "unix", Seed: seed, Model: model, Weigher: weigher}, nil
}

// flashWindow steps a fleet from a cycle boundary until dur has passed
// and the next cycle boundary is reached, timing every step and
// sampling the backlog.
type flashWindow struct {
	steps      int
	start, end time.Time
	stepMs     []float64
	backlog    []sample
	marks      []mark
	counters   [2]socketCounters
	timers     timers // traced fleets only
}

func runFlashWindow(f fleet, dur time.Duration) flashWindow {
	for f.Now()%flashPeriod != 0 {
		f.Steps(1)
	}
	var w flashWindow
	w.counters[0] = f.counters()
	tf, traced := f.(*tracedFleet)
	var t0 timers
	if traced {
		t0 = tf.timers()
	}
	completed := func() int64 { return f.books().completed }
	w.start = time.Now()
	w.marks = []mark{{w.start, 0, completed()}}
	for now := w.start; now.Sub(w.start) < dur || f.Now()%flashPeriod != 0; {
		f.Steps(1)
		end := time.Now()
		w.stepMs = append(w.stepMs, float64(end.Sub(now).Nanoseconds())/1e6)
		w.steps++
		if w.steps%fleetSampleEvery == 0 {
			b := f.books()
			w.backlog = append(w.backlog, sample{end, float64(b.queued + b.inflight)})
		}
		now = time.Now()
		if f.Now()%flashPeriod == 0 {
			// Each sub-window is one whole flash cycle, so every one
			// holds the same work: a 1-s sub-window would catch the
			// flash's completions in some seconds and not in others.
			w.marks = append(w.marks, mark{now, int64(w.steps), completed()})
		}
	}
	w.end = time.Now()
	if traced {
		w.timers = tf.timers().sub(t0)
	}
	w.counters[1] = f.counters()
	return w
}

func fleetFlash(o options) *run {
	r := newRun()
	cfg, err := flashConfig(o.seed)
	if err != nil {
		r.check(err)
		return r
	}
	f := timeBoots(r, cfg, fleetSetupReps)
	if f == nil {
		return r
	}
	defer f.Close()
	rf := realFleet{f}
	f.Steps(flashPeriod) // one whole flash cycle of warm-up

	dur := time.Duration(o.seconds * float64(time.Second))
	w := runFlashWindow(rf, dur)
	secs := w.end.Sub(w.start).Seconds()
	spans := consecutive(w.marks)
	rate, tasksPerS := spanRates(spans)
	steps := summarize(w.stepMs, w.end.Sub(w.start))
	fmt.Printf("window: %d steps (%d flash cycles) in %.3fs; p%d-fastest of %d cycles %.2f steps/s, %.0f tasks/s; step time ms %v\n",
		w.steps, w.steps/flashPeriod, secs, 100-fastShare, len(w.marks)-1, rate, tasksPerS, steps)
	reportCounters(r, w.counters[0], w.counters[1], w.steps)
	if w.counters[1].acked-w.counters[0].acked <= 0 {
		r.check(fmt.Errorf("no transfer was acknowledged in the window: the balancer never moved work"))
	}
	needP99(r, "step", steps)
	r.set("steps_per_s", rate)
	r.set("tasks_per_s", tasksPerS)
	r.set("ack_p50_ms", steps.p50)
	r.set("ack_p99_ms", steps.p99)
	r.set("sojourn_mean_ms", spanSojournMs(spans, w.backlog))

	b, err := auditFleet(rf)
	r.check(err)
	fmt.Printf("audit after settle: in %d == completed %d + queued %d + inflight %d\n",
		b.in, b.completed, b.queued, b.inflight)
	// The window's frames are the operations: its fleet has finished
	// booting, and a fault-free fleet past its boot drops none. The
	// boot volley's drops are the set-up's, reported as
	// fleet.boot_drops; how many of the ~98k join frames overflow a
	// per-peer queue depends on goroutine timing, so counting them
	// here would make the failure count differ from run to run.
	r.attempted = w.counters[1].sent - w.counters[0].sent
	r.failed = w.counters[1].dropped - w.counters[0].dropped
	final := f.Collect()
	fmt.Printf("frames over the run: %d sent, %d dropped (boot volley overflow included)\n", final.Messages, final.Drops)
	f.Close()

	if o.trace {
		tf, err := newTracedFleet(cfg, newTracker())
		if err != nil {
			r.check(fmt.Errorf("traced fleet: %w", err))
			return r
		}
		defer tf.Close()
		tf.Steps(flashPeriod)
		tw := runFlashWindow(tf, dur)
		traced, _ := spanRates(consecutive(tw.marks))
		tf.report(r, "fleet-flash", rate, traced, tw.steps, tw.end.Sub(tw.start), tw.timers, tw.start, tw.end)
		_, err = auditFleet(tf)
		r.check(err)
		r.check(checkWire(r, tf.tk))
	}
	return r
}

// tracedFleet is node.Fleet rebuilt for the traced run from the same
// public constructors — socktrans.New endpoints wrapped in the timing
// shim, node.New nodes — and stepped the way Fleet.Steps does it:
// Deliver on every endpoint, Tick on every node, pause. It is booted
// like bootFleet boots node.Fleet, join volley included.
type tracedFleet struct {
	dir   string
	table map[int32]string // id -> endpoint address
	eps   []*timedTrans
	nodes [][]*node.Node
	tk    *tracker
	now   int64

	pauseNs, tickNs, tickSendNs, ticks int64
}

// timers are a traced fleet's cumulative layer times; a window's budget
// is the difference of two readings.
type timers struct {
	pauseNs, tickNs, tickSendNs, ticks int64
	sendNs, sends, deliverNs, delivers int64
}

func (a timers) sub(b timers) timers {
	return timers{
		a.pauseNs - b.pauseNs, a.tickNs - b.tickNs, a.tickSendNs - b.tickSendNs, a.ticks - b.ticks,
		a.sendNs - b.sendNs, a.sends - b.sends, a.deliverNs - b.deliverNs, a.delivers - b.delivers,
	}
}

// timers reads the fleet's layer times; only the goroutine stepping
// the fleet may call it.
func (tf *tracedFleet) timers() timers {
	t := timers{pauseNs: tf.pauseNs, tickNs: tf.tickNs, tickSendNs: tf.tickSendNs, ticks: tf.ticks}
	for _, ep := range tf.eps {
		t.sendNs += ep.sendNs
		t.sends += ep.sends
		t.deliverNs += ep.deliverNs
		t.delivers += ep.delivers
	}
	return t
}

func newTracedFleet(cfg node.FleetConfig, tk *tracker) (*tracedFleet, error) {
	if cfg.Endpoints <= 0 {
		cfg.Endpoints = min(4, cfg.N)
	}
	dir, err := os.MkdirTemp("", "perfbench-*")
	if err != nil {
		return nil, err
	}
	table := make(map[int32]string)
	tf := &tracedFleet{dir: dir, table: table, tk: tk}
	locals := make([][]int32, cfg.Endpoints)
	for id := 0; id < cfg.N; id++ {
		e := id * cfg.Endpoints / cfg.N
		locals[e] = append(locals[e], int32(id))
		table[int32(id)] = filepath.Join(dir, fmt.Sprintf("ep%d.sock", e))
	}
	for e, ids := range locals {
		sock, err := socktrans.New(socktrans.Config{
			Network: "unix", Listen: table[ids[0]], N: cfg.N, Local: ids, Peers: table, Seed: cfg.Seed,
		})
		if err != nil {
			tf.Close()
			return nil, fmt.Errorf("endpoint %d: %w", e, err)
		}
		tf.eps = append(tf.eps, newTimedTrans(sock, tk, ids))
	}
	heavy := 2 * stats.PaperT(cfg.N)
	tf.nodes = make([][]*node.Node, len(tf.eps))
	for e, ep := range tf.eps {
		for _, id := range locals[e] {
			nd, err := node.New(ep, node.Config{
				ID: id, N: cfg.N, Seed: cfg.Seed, Model: cfg.Model, Weigher: cfg.Weigher,
				Heavy: heavy, Epoch: 1,
			})
			if err != nil {
				tf.Close()
				return nil, err
			}
			tf.nodes[e] = append(tf.nodes[e], nd)
		}
	}
	if err := carryVolley(func() { tf.Steps(1) }, tf.joinsSent); err != nil {
		tf.Close()
		return nil, err
	}
	return tf, nil
}

func (tf *tracedFleet) Now() int64 { return tf.now }

func (tf *tracedFleet) Steps(k int) {
	for ; k > 0; k-- {
		tf.now++
		for _, ep := range tf.eps {
			ep.Deliver()
		}
		for e, ep := range tf.eps {
			for _, nd := range tf.nodes[e] {
				send := ep.sendNs
				t := time.Now()
				nd.Tick()
				tf.tickNs += time.Since(t).Nanoseconds()
				tf.tickSendNs += ep.sendNs - send
				tf.ticks++
			}
		}
		t := time.Now()
		time.Sleep(fleetPause)
		tf.pauseNs += time.Since(t).Nanoseconds()
	}
}

// joinsSent counts the join frames the fleet's endpoints have sent.
func (tf *tracedFleet) joinsSent() int64 {
	var j int64
	for _, ep := range tf.eps {
		j += ep.SentByKind()[transport.KindJoin]
	}
	return j
}

func (tf *tracedFleet) statuses() []node.Status {
	var sts []node.Status
	for _, nds := range tf.nodes {
		for _, nd := range nds {
			sts = append(sts, nd.Status())
		}
	}
	return sts
}

func (tf *tracedFleet) books() books { return sumBooks(tf.statuses()) }

func (tf *tracedFleet) counters() socketCounters { return socketCounters{} }

func (tf *tracedFleet) settle(maxSteps int) bool {
	stable := 0
	for used := 0; used < maxSteps; used += 5 {
		tf.Steps(5)
		if tf.books().inflight == 0 {
			stable++
			if stable >= 2 {
				return true
			}
		} else {
			stable = 0
		}
	}
	return false
}

func (tf *tracedFleet) Close() error {
	for _, ep := range tf.eps {
		ep.Close()
	}
	return os.RemoveAll(tf.dir)
}

// report prints the self-time table of a traced window and sets the
// fleet's per-layer metrics. t holds the window's layer times, steps
// and elapsed its length, [from, to) its wall-clock span; refRate and
// rate are the untraced and traced step rates of the workload.
func (tf *tracedFleet) report(r *run, name string, refRate, rate float64, steps int, elapsed time.Duration, t timers, from, to time.Time) {
	perStep := func(ns int64) float64 { return float64(ns) / 1e3 / float64(steps) }
	stepUs := elapsed.Seconds() * 1e6 / float64(steps)
	rows := []budgetRow{
		{"pause (time.Sleep)", perStep(t.pauseNs)},
		{"socktrans.Deliver", perStep(t.deliverNs)},
		{"node.Tick (self)", perStep(t.tickNs - t.tickSendNs)},
		{"socktrans.Send (inside Tick)", perStep(t.tickSendNs)},
	}
	accounted := 0.0
	for _, row := range rows {
		accounted += row.selfUs
	}
	rest := stepUs - accounted
	rows = append(rows, budgetRow{"rest (loop, shim bookkeeping, backlog samples)", rest})
	overhead := 1 - rate/refRate
	fmt.Print("\n", budgetTable(fmt.Sprintf("%s self times, %d traced steps", name, steps), stepUs, rows))
	fmt.Printf("\nuntraced %.2f steps/s, traced %.2f steps/s: tracing overhead %.2f%%; self times leave %.2f%% of the traced step unaccounted\n",
		refRate, rate, 100*overhead, 100*rest/stepUs)

	lat, unmatched := tf.tk.latencies(from, to)
	fmt.Printf("send→Inbox latency µs %v; %d sends unmatched over the run\n", lat, unmatched)

	r.set("fleet.step_us", stepUs)
	r.set("fleet.pause_share", perStep(t.pauseNs)/stepUs)
	if t.ticks > 0 {
		r.set("node.tick_us", float64(t.tickNs-t.tickSendNs)/1e3/float64(t.ticks))
	}
	if t.sends > 0 {
		r.set("socktrans.send_us", float64(t.sendNs)/1e3/float64(t.sends))
	}
	if t.delivers > 0 {
		r.set("socktrans.deliver_us", float64(t.deliverNs)/1e3/float64(t.delivers))
	}
	needP99(r, "send→Inbox", lat)
	r.set("socktrans.latency_p99_us", lat.p99)
	r.set("trace.overhead", overhead)
	r.set("trace.unaccounted", rest/stepUs)
	r.check(checkAccounted(rest/stepUs, overhead))
}
