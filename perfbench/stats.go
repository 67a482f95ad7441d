package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// The host this benchmark was tuned on shares its CPUs' caches and
// memory with other tenants. Their traffic slows the program by up to
// a third for seconds at a time, and never speeds it up. So rates,
// Little's law and p99s are taken per sub-window (or per segment, for
// p99s) of the measured window and reported at the fast end of the
// sub-windows: rates at their fastShare-from-the-top percentile, times
// at their fastShare percentile. The fast seconds measure the program;
// the slow ones measure its neighbours. Over rolling 25-s windows of a
// per-second step-rate trace, this figure spread half as much as the
// median sub-window did. Medians are pooled: a stall that catches
// fewer than half the samples leaves them alone.

// meterSpan is the length of the sub-windows rates, Little's law and
// tail percentiles are taken over.
const meterSpan = time.Second

// fastShare is the percentile, counted from the fast end, at which
// sub-window figures are reported: the fifth-fastest of 40.
const fastShare = 10

// fastRate reports per-sub-window rates (higher is faster).
func fastRate(xs []float64) float64 { return percentileOf(xs, 100-fastShare) }

// fastTime reports per-sub-window times (lower is faster).
func fastTime(xs []float64) float64 { return percentileOf(xs, fastShare) }

// minBeyond is how many samples must lie beyond a reported tail
// percentile: a p99 over fewer than 1000 samples would rest on fewer
// than ten observations and repeat no better than noise.
const minBeyond = 10

// tailCandidates are the percentiles the tail rule chooses among,
// highest first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest candidate percentile with at
// least minBeyond of n samples beyond it, and false when even the
// median has too few.
func tailPercentile(n int) (float64, bool) {
	for _, q := range tailCandidates {
		if float64(n)*(1-q/100) >= minBeyond-1e-9 {
			return q, true
		}
	}
	return 0, false
}

// percentile is the nearest-rank q-th percentile of an ascending
// slice.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func percentileOf(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, q)
}

// timing summarizes one latency series, sampled in time order over a
// window: the pooled median; the p99, at the fast end of the series'
// segments; and the pooled highest percentile with minBeyond samples
// beyond it, with the sample count. A median is left alone by stalls
// that catch fewer than half the samples, so it is taken whole; a p99
// moves with a stretch of stalls, so it is taken where the host
// stalled least.
type timing struct {
	n        int
	p50      float64
	p99      float64
	segments int // 0 when the series cannot support a p99
	tailQ    float64
	tail     float64
}

// segmentSamples is the fewest samples a segment holds, so that its
// p99 rests on 100 samples beyond it: p99s resting on ten moved by a
// sixth from run to run. A series with too few for two segments is
// taken whole.
const segmentSamples = 10000

// summarize cuts the series into equal-count segments, as many as the
// window has whole sub-windows but none shorter than segmentSamples,
// and reports the fast end of their p99s. A series too short to
// support a p99 gets no segments.
func summarize(samples []float64, window time.Duration) timing {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	t := timing{n: len(s), p50: percentile(s, 50)}
	if q, ok := tailPercentile(len(s)); ok {
		t.tailQ, t.tail = q, percentile(s, q)
	}
	if len(samples) < 100*minBeyond {
		return t
	}
	k := max(1, min(int(window/meterSpan), len(samples)/segmentSamples))
	p99s := make([]float64, k)
	for i := range p99s {
		p99s[i] = percentileOf(samples[i*len(samples)/k:(i+1)*len(samples)/k], 99)
	}
	t.p99, t.segments = fastTime(p99s), k
	return t
}

func (t timing) String() string {
	return fmt.Sprintf("p50 %.4g, p99 %.4g (p%d of %d segments), pooled p%g %.4g, n=%d",
		t.p50, t.p99, fastShare, t.segments, t.tailQ, t.tail, t.n)
}

// needP99 fails a run whose series cannot support a p99.
func needP99(r *run, what string, t timing) {
	if t.segments == 0 {
		r.check(fmt.Errorf("%d %s samples cannot support a p99 (need %d)", t.n, what, 100*minBeyond))
	}
}

// littleSojournMs is Little's law, W = L / λ: the mean time a task
// spends in the system, from the time-averaged number of tasks in it
// and the completion rate in tasks per second.
func littleSojournMs(meanInSystem, completedPerSec float64) float64 {
	if completedPerSec <= 0 {
		return math.NaN()
	}
	return meanInSystem / completedPerSec * 1e3
}

// median of a series; NaN when empty.
func median(xs []float64) float64 { return percentileOf(xs, 50) }

// mean of a series; NaN when empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// sample is one timed reading of a count, such as a backlog.
type sample struct {
	at time.Time
	v  float64
}

func values(s []sample) []float64 {
	out := make([]float64, len(s))
	for i, x := range s {
		out[i] = x.v
	}
	return out
}

// meanIn is the mean of the samples taken in [from, to).
func meanIn(s []sample, from, to time.Time) float64 {
	var in []float64
	for _, x := range s {
		if !x.at.Before(from) && x.at.Before(to) {
			in = append(in, x.v)
		}
	}
	return mean(in)
}

// mark is a reading of a window's cumulative step and task counts.
type mark struct {
	at           time.Time
	steps, tasks int64
}

// marker appends a mark when a sub-window has closed at now; tasks is
// read only then, since reading it can be costly.
func marker(marks []mark, now time.Time, steps int64, tasks func() int64) []mark {
	if len(marks) > 0 && now.Sub(marks[len(marks)-1].at) < meterSpan {
		return marks
	}
	return append(marks, mark{now, steps, tasks()})
}

// consecutive turns marks into the sub-windows between them.
func consecutive(marks []mark) [][2]mark {
	var spans [][2]mark
	for i := 1; i < len(marks); i++ {
		spans = append(spans, [2]mark{marks[i-1], marks[i]})
	}
	return spans
}

// spanRates are the fast-end step and task rates over sub-windows
// given as (begin, end) marks.
func spanRates(spans [][2]mark) (stepsPerS, tasksPerS float64) {
	var sr, tr []float64
	for _, s := range spans {
		secs := s[1].at.Sub(s[0].at).Seconds()
		sr = append(sr, float64(s[1].steps-s[0].steps)/secs)
		tr = append(tr, float64(s[1].tasks-s[0].tasks)/secs)
	}
	return fastRate(sr), fastRate(tr)
}

// spanSojournMs applies Little's law in each sub-window — the tasks in
// the system, summed over separately sampled parts, over the
// sub-window's completion rate — and returns the fast end.
func spanSojournMs(spans [][2]mark, parts ...[]sample) float64 {
	var ws []float64
	for _, s := range spans {
		inSystem := 0.0
		for _, p := range parts {
			inSystem += meanIn(p, s[0].at, s[1].at)
		}
		rate := float64(s[1].tasks-s[0].tasks) / s[1].at.Sub(s[0].at).Seconds()
		if w := littleSojournMs(inSystem, rate); !math.IsNaN(w) {
			ws = append(ws, w)
		}
	}
	return fastTime(ws)
}

// growth is the backlog trend across a window whose backlog is the sum
// of separately sampled parts: the mean of the last quarter of each
// part's samples minus the mean of its first quarter, summed, as a
// share of the whole window's mean backlog.
func growth(parts ...[]float64) float64 {
	var rise, all float64
	for _, s := range parts {
		q := len(s) / 4
		if q == 0 {
			continue
		}
		rise += mean(s[len(s)-q:]) - mean(s[:q])
		all += mean(s)
	}
	if all <= 0 {
		return 0
	}
	return rise / all
}

// budgetRow is one row of a traced run's self-time table.
type budgetRow struct {
	name   string
	selfUs float64 // per step
}

// budgetTable renders self times per step with their shares of the
// traced step, in the style of docs/PERFORMANCE.md.
func budgetTable(title string, stepUs float64, rows []budgetRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (traced step %.1f µs)\n\n", title, stepUs)
	b.WriteString("| layer | self µs/step | share |\n|---|---:|---:|\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "| %s | %.1f | %.1f%% |\n", r.name, r.selfUs, 100*r.selfUs/stepUs)
	}
	return b.String()
}
