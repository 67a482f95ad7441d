package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"time"

	"plb/internal/cli"
	"plb/internal/core"
	"plb/internal/gen"
	"plb/internal/policy"
	"plb/internal/sim"
)

// sim-single runs the model Theorem 1 is stated for: Single(0.4, 0.1)
// on a dense lockstep machine with the registered bfm98 balancer. The
// balancer acts on every step, so sim and core/collision do nearly all
// the work and no socket layer runs.
const (
	// simN keeps a machine small. The reference machine shares its
	// caches and memory bandwidth with other tenants, whose traffic
	// slows a memory-bound loop by up to 3x within seconds: at n = 2^16
	// (19 MB a machine) the step rate followed it. And the host stalls
	// a vCPU for a millisecond or more, at times dozens of times a
	// second: at n = 2^12 (1.2 MB, 300 µs steps) such periods put one
	// step in a hundred behind a stall and tripled the step p99. At
	// 2^10 a machine (0.3 MB) stays in a core's L2 and a step takes
	// about 80 µs, so the p99 stays the program's.
	simN = 1 << 10
	// simWorkers runs the sweep on one goroutine: at this n the second
	// shard costs more in hand-offs than it saves, and a one-thread
	// step does not wait on whichever CPU the host is slowing.
	simWorkers = 1
	// simInstances machines are measured in turns of one sub-window
	// each, so no one construction's memory placement sets the
	// figures.
	simInstances = 8
	// simSetupReps constructions are timed for setup_s, the first
	// simInstances of them kept; one takes about a tenth of a
	// millisecond, so a median over few would move with one garbage
	// collection.
	simSetupReps = 32
	// simDigestSteps are hashed on every measured machine: all run the
	// same seed, so their load-trajectory digests must be identical.
	simDigestSteps = 24
	// simWarmSteps per machine let the queues reach the stationary
	// regime (mean load and heavy count stop drifting) before anything
	// is timed.
	simWarmSteps = 200
	// simSampleEvery spaces the total-load samples Little's law reads.
	simSampleEvery = 8
)

// timedBalancer is the traced run's shim around the core balancer: it
// implements sim.Balancer by forwarding, and while on it times each
// Step from outside.
type timedBalancer struct {
	*core.Balancer
	on bool
	ns int64
}

func (b *timedBalancer) Step(m *sim.Machine) {
	if !b.on {
		b.Balancer.Step(m)
		return
	}
	t := time.Now()
	b.Balancer.Step(m)
	b.ns += time.Since(t).Nanoseconds()
}

// simInstance is one constructed machine with its balancer, and the
// timing shim around it in traced runs.
type simInstance struct {
	m    *sim.Machine
	bal  *core.Balancer
	shim *timedBalancer
}

func newSimInstance(seed uint64, traced bool) (*simInstance, error) {
	model, err := gen.NewSingle(0.4, 0.1)
	if err != nil {
		return nil, err
	}
	cfg := sim.Config{N: simN, Model: model, Seed: seed, Workers: simWorkers}
	if err := cli.InstallPolicy(&cfg, "bfm98", policy.Params{N: simN, Seed: seed}); err != nil {
		return nil, err
	}
	in := &simInstance{}
	var ok bool
	if in.bal, ok = cfg.Balancer.(*core.Balancer); !ok {
		return nil, fmt.Errorf("bfm98 installed %T, want *core.Balancer", cfg.Balancer)
	}
	if traced {
		in.shim = &timedBalancer{Balancer: in.bal}
		cfg.Balancer = in.shim
	}
	in.m, err = sim.New(cfg)
	return in, err
}

func (in *simInstance) balanceNs() int64 {
	if in.shim == nil {
		return 0
	}
	return in.shim.ns
}

// loadDigest hashes the machine's load vector after each of steps
// steps (FNV-64a over little-endian loads).
func loadDigest(m *sim.Machine, steps int) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	for i := 0; i < steps; i++ {
		m.Step()
		for _, l := range m.Snapshot() {
			binary.LittleEndian.PutUint32(buf[:], uint32(l))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// checkSim is the sim-single correctness and health check: conservation
// holds exactly, and the balancer acted during the window.
func checkSim(generated, completed, load, heavy, matched int64) error {
	if generated != completed+load {
		return fmt.Errorf("conservation: generated %d != completed %d + load %d", generated, completed, load)
	}
	if heavy <= 0 || matched <= 0 {
		return fmt.Errorf("balancer idle in the window: heavy %d, matched %d", heavy, matched)
	}
	return nil
}

// simWindow is one timed window's raw measurements, pooled in time
// order over the machines it took turns on: each turn is a sub-window.
type simWindow struct {
	steps                            int
	elapsed                          time.Duration
	stepMs                           []float64
	spans                            [][2]mark
	loads                            []sample
	phases, heavy, matched, requests int64
	balanceNs                        int64
}

// runSimWindow steps the machines in turns of one sub-window each until
// dur has passed.
func runSimWindow(ins []*simInstance, dur time.Duration) simWindow {
	var w simWindow
	start := time.Now()
	for turn := 0; time.Since(start) < dur; turn++ {
		in := ins[turn%len(ins)]
		completed := func() int64 { return in.m.Recorder().Completed }
		ph0, h0, mt0, rq0 := in.bal.Totals()
		ns0 := in.balanceNs()
		a := mark{time.Now(), int64(w.steps), completed()}
		for now := a.at; now.Sub(a.at) < meterSpan && now.Sub(start) < dur; {
			in.m.Step()
			end := time.Now()
			ms := float64(end.Sub(now).Nanoseconds()) / 1e6
			w.stepMs = append(w.stepMs, ms)
			w.steps++
			if w.steps%simSampleEvery == 0 {
				w.loads = append(w.loads, sample{end, float64(in.m.TotalLoad())})
			}
			now = time.Now()
		}
		b := mark{time.Now(), int64(w.steps), completed()}
		if b.at.Sub(a.at) >= meterSpan {
			w.spans = append(w.spans, [2]mark{a, b})
		}
		ph, h, mt, rq := in.bal.Totals()
		w.phases, w.heavy, w.matched, w.requests = w.phases+ph-ph0, w.heavy+h-h0, w.matched+mt-mt0, w.requests+rq-rq0
		w.balanceNs += in.balanceNs() - ns0
	}
	w.elapsed = time.Since(start)
	return w
}

func simSingle(o options) *run {
	r := newRun()
	var setups []float64
	var ins []*simInstance
	for i := 0; i < simSetupReps; i++ {
		t := time.Now()
		in, err := newSimInstance(o.seed, o.trace)
		if err != nil {
			r.check(fmt.Errorf("build machine: %w", err))
			return r
		}
		setups = append(setups, time.Since(t).Seconds())
		if i < simInstances {
			ins = append(ins, in)
		}
	}
	digest := loadDigest(ins[0].m, simDigestSteps)
	for i, in := range ins[1:] {
		if d := loadDigest(in.m, simDigestSteps); d != digest {
			r.check(fmt.Errorf("determinism: machine %d load digest %016x != %016x with the same seed", i+1, d, digest))
		}
	}
	fmt.Printf("set-up: median %.4fs over %d constructions; load digest %016x (%d steps) identical on %d machines\n",
		median(setups), simSetupReps, digest, simDigestSteps, len(ins))
	r.set("setup_s", median(setups))
	for i := 0; i < simWarmSteps; i++ {
		for _, in := range ins {
			in.m.Step()
		}
	}

	dur := time.Duration(o.seconds * float64(time.Second))
	w := runSimWindow(ins, dur)
	if o.trace {
		// The window above is the untraced reference; the traced window
		// follows, and their step-rate difference is the tracing
		// overhead.
		refRate, _ := spanRates(w.spans)
		for _, in := range ins {
			in.shim.on = true
		}
		w = runSimWindow(ins, dur)
		rate, _ := spanRates(w.spans)
		stepUs := w.elapsed.Seconds() * 1e6 / float64(w.steps)
		balanceUs := float64(w.balanceNs) / 1e3 / float64(w.steps)
		var steppedNs float64
		for _, ms := range w.stepMs {
			steppedNs += ms * 1e6
		}
		localUs := steppedNs/1e3/float64(w.steps) - balanceUs
		rest := stepUs - localUs - balanceUs
		overhead := 1 - rate/refRate
		fmt.Print(budgetTable(fmt.Sprintf("sim-single self times, %d traced steps", w.steps), stepUs, []budgetRow{
			{"sim.Machine.Step local sweep (generate + consume)", localUs},
			{"core.Balancer.Step (incl. collision)", balanceUs},
			{"rest (loop, clock reads, load samples)", rest},
		}))
		fmt.Printf("\nuntraced %.2f steps/s, traced %.2f steps/s: tracing overhead %.2f%%; self times leave %.2f%% of the traced step unaccounted\n",
			refRate, rate, 100*overhead, 100*rest/stepUs)
		r.set("sim.local_us", localUs)
		r.set("core.balance_us", balanceUs)
		r.set("trace.overhead", overhead)
		r.set("trace.unaccounted", rest/stepUs)
		r.check(checkAccounted(rest/stepUs, overhead))
	}

	for _, in := range ins {
		rec := in.m.Recorder()
		r.check(checkSim(in.m.Generated(), rec.Completed, in.m.TotalLoad(), w.heavy, w.matched))
	}
	r.attempted = int64(w.steps)

	steps := summarize(w.stepMs, w.elapsed)
	stepsPerS, tasksPerS := spanRates(w.spans)
	fmt.Printf("window: %d steps in %.3fs on %d machines in %d 1s turns; p%d-fastest turn %.2f steps/s, %.0f tasks/s\n",
		w.steps, w.elapsed.Seconds(), len(ins), len(w.spans), 100-fastShare, stepsPerS, tasksPerS)
	fmt.Printf("step time ms: %v\n", steps)
	fmt.Printf("balancer: %d phases, %d heavy, %d matched, %d requests\n",
		w.phases, w.heavy, w.matched, w.requests)
	fmt.Printf("conservation: generated == completed + load on every machine\n")
	needP99(r, "step", steps)
	r.set("steps_per_s", stepsPerS)
	r.set("tasks_per_s", tasksPerS)
	r.set("ack_p50_ms", steps.p50)
	r.set("ack_p99_ms", steps.p99)
	r.set("sojourn_mean_ms", spanSojournMs(w.spans, w.loads))
	if w.phases > 0 && w.heavy > 0 {
		r.set("core.heavy_per_phase", float64(w.heavy)/float64(w.phases))
		r.set("core.match_ratio", float64(w.matched)/float64(w.heavy))
		r.set("core.requests_per_heavy", float64(w.requests)/float64(w.heavy))
	}
	return r
}

// checkAccounted is the traced run's closing check: the layer self
// times must cover the traced step, leaving at most the tracing
// overhead (or 5%, whichever is larger) to untimed glue.
func checkAccounted(unaccounted, overhead float64) error {
	limit := overhead
	if limit < 0.05 {
		limit = 0.05
	}
	if unaccounted > limit {
		return fmt.Errorf("self times leave %.1f%% of the traced step unaccounted (limit %.1f%%)", 100*unaccounted, 100*limit)
	}
	return nil
}
