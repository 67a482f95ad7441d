package main

import (
	"fmt"
	"math"
	"sync"
	"time"

	"plb/internal/node"
	"plb/internal/task"
	"plb/internal/transport"
	"plb/internal/transport/socktrans"
	"plb/internal/xrand"
)

// serve-open drives an n = 256 fleet with no local generation (each
// node serves one task per tick) from an open-loop client: Poisson
// arrivals at a fixed offered rate, each processor's arrivals shipped
// as one acknowledged KindTransfer from node.LoadGenID, exactly the
// protocol lbsimd -loadgen speaks.
const (
	// serveEndpoints hosts the fleet on two endpoints, so the client
	// holds two connections — one per CPU of the reference machine.
	serveEndpoints = 2
	// serveRate is the offered load in tasks/s; see README.md for the
	// capacity arithmetic it is half of.
	serveRate = 28000
	// clientTick is the client's wake-up period: it sends everything
	// due since its last wake-up and reads the acks that arrived.
	clientTick = time.Millisecond
	// clientRetryAfter resends a block still unacked after this long.
	clientRetryAfter = 250 * time.Millisecond
	// clientWarm runs the client before the window opens, so
	// connections, queues and the fleet's backlog reach their regime.
	clientWarm = 2 * time.Second
	// clientDrain bounds the post-window wait for outstanding acks.
	clientDrain = 10 * time.Second
	// lateBoundMs is the client lateness p99 above which the offered
	// schedule was not kept. Ack times count from the due time, so a
	// late client still measures honestly; the bound catches a client
	// too slow to offer the load at all, which falls behind by seconds.
	// Tens of milliseconds are the host's scheduling noise on a
	// saturated machine, not a generator falling behind.
	lateBoundMs = 50.0
	// clientQueueLen is the client endpoint's per-peer write queue.
	// The generator must not drop what it offers: a wake-up can hand a
	// connection tens of blocks while its writer waits for a CPU, so
	// the client's queue is deeper than the nodes' default 256.
	clientQueueLen = 4096
	// growthBound is the largest backlog rise, last quarter of the
	// window against the first, as a share of the window's mean. A
	// stable queue at this load wanders by tens of percent; an
	// overloaded one rises by many times its mean within seconds.
	growthBound = 1.0
	// serveSampleEvery spaces the fleet backlog samples, in steps.
	serveSampleEvery = 8
)

// arrival is one injection: a task due at processor to.
type arrival struct {
	due time.Duration // since the client started
	to  int32
}

// schedule is the seeded Poisson arrival stream: exponential gaps at
// rate per second, uniformly random targets.
type schedule struct {
	rng  *xrand.Stream
	rate float64
	n    int
	next arrival
}

func newSchedule(seed uint64, rate float64, n int) *schedule {
	s := &schedule{rng: xrand.New(seed).Split(0x5e7e), rate: rate, n: n}
	s.advance(0)
	return s
}

func (s *schedule) advance(from time.Duration) {
	gap := -math.Log(1-s.rng.Float64()) / s.rate
	s.next = arrival{due: from + time.Duration(gap*float64(time.Second)), to: int32(s.rng.Intn(s.n))}
}

// pop returns every arrival due at or before now, in due order.
func (s *schedule) pop(now time.Duration, into []arrival) []arrival {
	for s.next.due <= now {
		into = append(into, s.next)
		s.advance(s.next.due)
	}
	return into
}

// block is one unacknowledged injection transfer.
type block struct {
	to     int32
	dues   []time.Duration
	tasks  []task.Task
	sentAt time.Duration
}

// client is the open-loop load generator. Time is passed in as the
// offset since origin, so the schedule logic runs on any clock.
type client struct {
	origin  time.Time
	tr      transport.Transport
	sched   *schedule
	nextSeq int32
	pending map[int32]*block
	buf     []arrival

	// measured counts injections due in [from, to)
	from, to time.Duration
	ackMs    []float64
	lateMs   []float64
	unacked  []sample // tasks due and not yet acked, sampled per tick

	injected, acked, retries int64
}

// newClient announces the client to every processor (the join resets
// each node's dedup history for LoadGenID, as node.NewGen does) and
// returns it ready to tick.
func newClient(tr transport.Transport, sched *schedule, n int) *client {
	for p := 0; p < n; p++ {
		tr.Send(transport.Message{From: node.LoadGenID, To: int32(p), Kind: transport.KindJoin})
	}
	return &client{tr: tr, sched: sched, pending: make(map[int32]*block),
		from: -1, to: time.Duration(math.MaxInt64)}
}

func (c *client) measured(due time.Duration) bool { return due >= c.from && due < c.to }

// tick reads the acks that arrived, sends every arrival due by now —
// all of them, however late the client woke — grouped into one block
// per processor, and resends stale blocks.
func (c *client) tick(now time.Duration, generate bool) {
	c.tr.Deliver()
	for _, m := range c.tr.Inbox(int(node.LoadGenID)) {
		b, ok := c.pending[m.B]
		if m.Kind != transport.KindTransferAck || !ok || b.to != m.From {
			continue
		}
		for _, due := range b.dues {
			if c.measured(due) {
				c.ackMs = append(c.ackMs, float64((now-due).Nanoseconds())/1e6)
			}
		}
		c.acked += int64(len(b.dues))
		delete(c.pending, m.B)
	}
	if generate {
		c.buf = c.sched.pop(now, c.buf[:0])
		byProc := make(map[int32]*block)
		var order []int32
		for _, a := range c.buf {
			b, ok := byProc[a.to]
			if !ok {
				b = &block{to: a.to, sentAt: now}
				byProc[a.to] = b
				order = append(order, a.to)
			}
			b.dues = append(b.dues, a.due)
			b.tasks = append(b.tasks, task.Task{Origin: a.to, Birth: -1, Weight: 1, Remaining: 1})
			if c.measured(a.due) {
				c.lateMs = append(c.lateMs, float64((now-a.due).Nanoseconds())/1e6)
			}
		}
		for _, p := range order {
			b := byProc[p]
			seq := c.nextSeq
			c.nextSeq++
			c.pending[seq] = b
			c.injected += int64(len(b.dues))
			c.send(seq, b)
		}
	}
	for seq, b := range c.pending {
		if now-b.sentAt >= clientRetryAfter {
			b.sentAt = now
			c.retries += int64(len(b.dues))
			c.send(seq, b)
		}
	}
	if now >= c.from && now < c.to {
		c.unacked = append(c.unacked, sample{c.origin.Add(now), float64(c.injected - c.acked)})
	}
}

func (c *client) send(seq int32, b *block) {
	c.tr.Send(transport.Message{From: node.LoadGenID, To: b.to, Kind: transport.KindTransfer,
		A: int32(len(b.tasks)), B: seq, Tasks: b.tasks, Blob: []byte{1}})
}

// stepper steps a fleet on its own goroutine, sampling the backlog and
// answering snapshot requests between steps.
type stepper struct {
	f    fleet
	stop chan struct{}
	snap chan chan snapshot
	done sync.WaitGroup
	// owned by the goroutine until wait returns
	samples []sample
	marks   []mark
}

type snapshot struct {
	at       time.Time
	steps    int64
	books    books
	counters socketCounters
	timers   timers // traced fleets only
}

func startStepper(f fleet) *stepper {
	s := &stepper{f: f, stop: make(chan struct{}), snap: make(chan chan snapshot)}
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		var steps int64
		completed := func() int64 { return f.books().completed }
		for {
			select {
			case <-s.stop:
				return
			case reply := <-s.snap:
				snap := snapshot{at: time.Now(), steps: steps, books: f.books(), counters: f.counters()}
				if tf, ok := f.(*tracedFleet); ok {
					snap.timers = tf.timers()
				}
				reply <- snap
			default:
			}
			f.Steps(1)
			steps++
			if steps%serveSampleEvery == 0 {
				b := f.books()
				s.samples = append(s.samples, sample{time.Now(), float64(b.queued + b.inflight)})
			}
			s.marks = marker(s.marks, time.Now(), steps, completed)
		}
	}()
	return s
}

func (s *stepper) snapshot() snapshot {
	reply := make(chan snapshot)
	s.snap <- reply
	return <-reply
}

// wait stops the goroutine and returns once it has exited.
func (s *stepper) wait() {
	close(s.stop)
	s.done.Wait()
}

// serveResult is one served window.
type serveResult struct {
	steps      int64
	start, end time.Time
	marks      []mark
	c          *client
	backlog    []sample
	counters   [2]socketCounters
	timers     timers // traced fleets only
}

// serveWindow runs the open-loop client against a stepping fleet for
// clientWarm plus dur, then drains the outstanding acks.
func serveWindow(f fleet, tr transport.Transport, seed uint64, dur time.Duration) serveResult {
	st := startStepper(f)
	c := newClient(tr, newSchedule(seed, serveRate, fleetN), fleetN)
	c.from, c.to = clientWarm, clientWarm+dur
	start := time.Now()
	c.origin = start
	var a, b snapshot
	opened := false
	for {
		now := time.Since(start)
		if !opened && now >= c.from {
			a, opened = st.snapshot(), true
		}
		if now >= c.to {
			b = st.snapshot()
			break
		}
		c.tick(now, true)
		time.Sleep(clientTick - (time.Since(start) - now))
	}
	for deadline := time.Since(start) + clientDrain; len(c.pending) > 0 && time.Since(start) < deadline; {
		c.tick(time.Since(start), false)
		time.Sleep(clientTick)
	}
	st.wait()
	res := serveResult{steps: b.steps - a.steps, start: a.at, end: b.at,
		c: c, counters: [2]socketCounters{a.counters, b.counters}, timers: b.timers.sub(a.timers)}
	for _, m := range st.marks {
		if !m.at.Before(a.at) && !m.at.After(b.at) {
			res.marks = append(res.marks, m)
		}
	}
	for _, s := range st.samples {
		if !s.at.Before(a.at) && s.at.Before(b.at) {
			res.backlog = append(res.backlog, s)
		}
	}
	return res
}

// checkServe is the serve-open health check: every injection acked and
// applied exactly once, a backlog that does not grow across the
// window, and a client that kept its schedule.
func checkServe(injected, acked, applied int64, growth, lateP99 float64) error {
	switch {
	case acked != injected:
		return fmt.Errorf("%d of %d injections never acked", injected-acked, injected)
	case applied != injected:
		return fmt.Errorf("nodes applied %d injected tasks, client injected %d", applied, injected)
	case growth > growthBound:
		return fmt.Errorf("backlog grew by %.0f%% of its mean across the window (bound %.0f%%)", 100*growth, 100*growthBound)
	case lateP99 > lateBoundMs:
		return fmt.Errorf("client lateness p99 %.2fms exceeds %.1fms: the offered schedule was not kept", lateP99, lateBoundMs)
	}
	return nil
}

func serveConfig(seed uint64) node.FleetConfig {
	return node.FleetConfig{N: fleetN, Endpoints: serveEndpoints, Network: "unix", Seed: seed}
}

// newClientTransport opens the client endpoint: no listener, hosting
// only LoadGenID, reaching the fleet through its bootstrap table.
func newClientTransport(table map[int32]string, seed uint64) (*socktrans.Trans, error) {
	return socktrans.New(socktrans.Config{
		Network: "unix", N: fleetN, Local: []int32{node.LoadGenID}, Peers: table, Seed: seed ^ 0xc11e,
		QueueLen: clientQueueLen,
	})
}

// reportServe checks a served window and sets the end-to-end metrics
// from it.
func reportServe(r *run, res serveResult, applied int64) {
	c := res.c
	window := res.end.Sub(res.start)
	ack := summarize(c.ackMs, window)
	late := summarize(c.lateMs, window)
	spans := consecutive(res.marks)
	rate, tasksPerS := spanRates(spans)
	capacity := rate * fleetN
	g := growth(values(c.unacked), values(res.backlog))
	lateP99 := percentileOf(c.lateMs, 99)
	fmt.Printf("window: %.3fs, %d fleet steps; p%d-fastest of %d 1s sub-windows %.2f steps/s (capacity %.0f tasks/s), %.0f tasks/s completed; offered %d tasks/s, rho %.3f\n",
		window.Seconds(), res.steps, 100-fastShare, len(spans), rate, capacity, tasksPerS, serveRate, serveRate/capacity)
	fmt.Printf("client: %d injected, %d acked, %d retried; ack ms %v; lateness ms pooled p99 %.4g, %v\n",
		c.injected, c.acked, c.retries, ack, lateP99, late)
	fmt.Printf("in system: %.1f client-unacked + %.1f queued or in flight; backlog growth %+.1f%% of its mean\n",
		mean(values(c.unacked)), mean(values(res.backlog)), 100*g)
	r.attempted += c.injected
	r.failed += c.injected - c.acked
	r.check(checkServe(c.injected, c.acked, applied, g, lateP99))
	needP99(r, "ack", ack)
	r.set("steps_per_s", rate)
	r.set("tasks_per_s", tasksPerS)
	r.set("ack_p50_ms", ack.p50)
	r.set("ack_p99_ms", ack.p99)
	r.set("sojourn_mean_ms", spanSojournMs(spans, c.unacked, res.backlog))
	r.set("client.late_p99_ms", lateP99)
	r.set("client.retries", float64(c.retries))
	r.set("client.unacked", float64(c.injected-c.acked))
}

func serveOpen(o options) *run {
	r := newRun()
	cfg := serveConfig(o.seed)
	f := timeBoots(r, cfg, fleetSetupReps)
	if f == nil {
		return r
	}
	defer f.Close()
	dur := time.Duration(o.seconds * float64(time.Second))
	tr, err := newClientTransport(f.PeerTable(), o.seed)
	if err != nil {
		r.check(fmt.Errorf("client transport: %w", err))
		return r
	}
	res := serveWindow(realFleet{f}, tr, o.seed, dur)
	tr.Close()
	reportCounters(r, res.counters[0], res.counters[1], int(res.steps))
	b, err := auditFleet(realFleet{f})
	r.check(err)
	reportServe(r, res, b.injected)
	fmt.Printf("audit after settle: in %d == completed %d + queued %d + inflight %d\n",
		b.in, b.completed, b.queued, b.inflight)
	f.Close()

	if o.trace {
		refRate, _ := spanRates(consecutive(res.marks))
		tk := newTracker()
		tf, err := newTracedFleet(cfg, tk)
		if err != nil {
			r.check(fmt.Errorf("traced fleet: %w", err))
			return r
		}
		defer tf.Close()
		sock, err := newClientTransport(tf.table, o.seed)
		if err != nil {
			r.check(fmt.Errorf("client transport: %w", err))
			return r
		}
		ctr := newTimedTrans(sock, tk, []int32{node.LoadGenID})
		tres := serveWindow(tf, ctr, o.seed, dur)
		ctr.Close()
		rate, _ := spanRates(consecutive(tres.marks))
		tf.report(r, "serve-open", refRate, rate, int(tres.steps), tres.end.Sub(tres.start), tres.timers, tres.start, tres.end)
		tb, err := auditFleet(tf)
		r.check(err)
		if tres.c.acked != tres.c.injected || tb.injected != tres.c.injected {
			r.check(fmt.Errorf("traced window: %d injected, %d acked, %d applied", tres.c.injected, tres.c.acked, tb.injected))
		}
		r.check(checkWire(r, tk))
	}
	return r
}
