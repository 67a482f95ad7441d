// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload for a fixed wall-clock window, checks the run's
// outputs, prints a human-readable report, and ends with one JSON line:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run is a separate traced run whose metrics are the per-layer budget.
// Layers are timed from outside, around calls to their public
// functions. See README.md for why each workload and metric exists.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// metricDef declares one reported metric; the lists below must match
// BENCHMARK.json (TestDeclarationsMatchBenchmarkJSON).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"steps_per_s", "1/s"},
	{"setup_s", "s"},
	{"tasks_per_s", "1/s"},
	{"ack_p50_ms", "ms"},
	{"ack_p99_ms", "ms"},
	{"sojourn_mean_ms", "ms"},
}

// frameKinds are the message kinds the per-kind socket and codec
// metrics break out.
var frameKinds = []string{"heartbeat", "join", "transfer", "transfer-ack", "query", "id"}

var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sim.local_us", "us"},
		{"core.balance_us", "us"},
		{"core.heavy_per_phase", "count"},
		{"core.match_ratio", "ratio"},
		{"core.requests_per_heavy", "count"},
		{"fleet.step_us", "us"},
		{"fleet.pause_share", "ratio"},
		{"node.tick_us", "us"},
		{"socktrans.send_us", "us"},
		{"socktrans.deliver_us", "us"},
		{"socktrans.latency_p99_us", "us"},
		{"socktrans.frames_per_step", "count"},
	}
	for _, k := range frameKinds {
		defs = append(defs, metricDef{"socktrans.frames_per_step." + k, "count"})
	}
	defs = append(defs, metricDef{"socktrans.drop_ratio", "ratio"})
	for _, k := range append([]string{""}, frameKinds...) {
		suffix := ""
		if k != "" {
			suffix = "." + k
		}
		defs = append(defs,
			metricDef{"wire.encode_ns" + suffix, "ns"},
			metricDef{"wire.decode_ns" + suffix, "ns"},
			metricDef{"wire.bytes_per_frame" + suffix, "B"},
			metricDef{"wire.allocs_per_frame" + suffix, "count"})
	}
	return append(defs,
		metricDef{"node.retry_ratio", "ratio"},
		metricDef{"node.requeued", "count"},
		metricDef{"fleet.boot_frames", "count"},
		metricDef{"fleet.boot_drops", "count"},
		metricDef{"client.late_p99_ms", "ms"},
		metricDef{"client.retries", "count"},
		metricDef{"client.unacked", "count"},
		metricDef{"trace.overhead", "ratio"},
		metricDef{"trace.unaccounted", "ratio"},
	)
}()

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// run is what a workload hands back: its operations, the values of the
// metrics it measured, and the first failed check (nil when all held).
type run struct {
	attempted, failed int64
	values            map[string]float64
	err               error
}

func newRun() *run { return &run{values: make(map[string]float64)} }

func (r *run) set(name string, v float64) { r.values[name] = v }

// check records the first failed correctness or health check.
func (r *run) check(err error) {
	if err != nil && r.err == nil {
		r.err = err
	}
}

// options are the command line every workload receives.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
}

var workloads = map[string]func(options) *run{
	"sim-single":  simSingle,
	"fleet-flash": fleetFlash,
	"serve-open":  serveOpen,
}

// diagnostic workloads run and check like the others but are left out
// of BENCHMARK.json. fleet-flash's step p99 follows how fast the host
// wakes an idle vCPU after each step's pause: from one 30-s run to the
// next, 1 to 42 steps in 1000 took over twice the median, and its p99
// ranged from 4.7 to 12 ms. Its traced run still gives the fleet's
// per-layer budget with node-to-node balancing.
var diagnostic = map[string]bool{"fleet-flash": true}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: sim-single, fleet-flash or serve-open")
		seed    = flag.Uint64("seed", 1, "seed every input is generated from")
		seconds = flag.Float64("seconds", 10, "length of the measured window in seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with the per-layer budget")
	)
	flag.Parse()
	fn, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of %v), -seconds > 0 and -trace 0|1\n", names)
		os.Exit(2)
	}
	// The benchmark measures the machine it runs on: one scheduler
	// thread per CPU the process may use.
	runtime.GOMAXPROCS(runtime.NumCPU())
	fmt.Printf("perfbench: workload %s, seed %d, %gs window, trace %d, GOMAXPROCS %d\n",
		*name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0))
	start := time.Now()
	r := fn(options{seed: *seed, seconds: *seconds, trace: *trace == 1})
	fmt.Printf("perfbench: run took %.1fs\n", time.Since(start).Seconds())

	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	out := result{Correct: r.err == nil, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metricValue)}
	if r.err == nil {
		for _, d := range defs {
			v, ok := r.values[d.name]
			if !ok && *trace == 1 {
				v, ok = 0, true // a layer this workload never enters spends nothing in it
			}
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				r.check(fmt.Errorf("metric %s was not measured", d.name))
				break
			}
			out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		}
	}
	if r.err != nil {
		out.Correct = false
		out.Metrics = map[string]metricValue{}
		fmt.Printf("perfbench: FAILED: %v\n", r.err)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}
