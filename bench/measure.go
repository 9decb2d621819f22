package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"time"
)

// result is one workload run: its checked ops, the correctness
// mismatches found, and the metrics it reports.
type result struct {
	workload  string
	attempted int
	failed    int
	errs      []string
	metrics   []metric
	tail      *metric   // printed with the metrics, not part of the JSON line
	rec       *recorder // the traced pass's spans; nil when untraced
}

type metric struct {
	name    string
	unit    string
	value   float64
	samples int
}

// maxErrs bounds the mismatches kept for the report; all are counted.
const maxErrs = 10

func (r *result) mismatch(format string, args ...any) {
	if len(r.errs) < maxErrs {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

func (r *result) correct() bool { return r.failed == 0 && len(r.errs) == 0 }

func (r *result) add(name, unit string, value float64, samples int) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		value = 0
	}
	r.metrics = append(r.metrics, metric{name, unit, value, samples})
}

func (r *result) print(w io.Writer) {
	ratio := 0.0
	if r.attempted > 0 {
		ratio = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "workload %s: %d ops attempted, %d failed (failed_ratio %.4f)\n", r.workload, r.attempted, r.failed, ratio)
	for _, m := range r.metrics {
		fmt.Fprintf(w, "  %-36s %14.4f %-9s n=%d\n", m.name, m.value, m.unit, m.samples)
	}
	if m := r.tail; m != nil {
		fmt.Fprintf(w, "  %-36s %14.4f %-9s n=%d (not gated)\n", m.name, m.value, m.unit, m.samples)
	}
	for _, e := range r.errs {
		fmt.Fprintf(w, "  MISMATCH %s\n", e)
	}
}

// loop is one measured closed loop: each op starts when the previous
// one has finished.
type loop struct {
	lat    []float64 // per-op latency, ms
	rates  []float64 // per-round throughput, items/s
	failed int
	wall   time.Duration
	alloc  uint64 // bytes allocated while the loop ran
}

func (l *loop) ops() int { return len(l.lat) }

// runLoop runs op back to back until d has passed, stopping only after
// a whole multiple of round ops (so every run covers its input mix
// evenly) and after at least one round. An op reports the items it
// completed and an error for any check it failed.
func runLoop(d time.Duration, round int, r *result, op func(i int) (int, error)) *loop {
	l := &loop{}
	runtime.GC()
	a0 := allocated()
	start := time.Now()
	var roundStart time.Time
	roundItems := 0
	for i := 0; i == 0 || i%round != 0 || time.Since(start) < d; i++ {
		t0 := time.Now()
		if i%round == 0 {
			roundStart, roundItems = t0, 0
		}
		items, err := op(i)
		l.lat = append(l.lat, ms(time.Since(t0)))
		roundItems += items
		if i%round == round-1 {
			l.rates = append(l.rates, float64(roundItems)/time.Since(roundStart).Seconds())
		}
		if err != nil {
			l.failed++
			r.mismatch("op %d: %v", i, err)
		}
	}
	l.wall = time.Since(start)
	l.alloc = allocated() - a0
	return l
}

func allocated() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// endToEnd reports the end-to-end metrics of an untraced run, as
// BENCHMARK.json declares them: the median of the set-ups, the op
// latency median, the median round's item throughput (robust to a
// stall in one round) and the heap allocated per op.
// The tail latency is printed where the run has the samples for it.
func (r *result) endToEnd(setups []time.Duration, l *loop) {
	r.attempted += l.ops()
	r.failed += l.failed
	r.add("setup_s", "s", percentile(seconds(setups), 50), len(setups))
	r.add("op_p50_ms", "ms", percentile(l.lat, 50), l.ops())
	r.add("items_per_s", "1/s", percentile(l.rates, 50), len(l.rates))
	r.add("alloc_mb_per_op", "MB", float64(l.alloc)/1e6/float64(l.ops()), l.ops())
	if p := tailPercentile(l.ops()); p > 0 {
		r.tail = &metric{fmt.Sprintf("op_p%g_ms", p), "ms", percentile(l.lat, p), l.ops()}
	}
}

// tailPercentile is the highest of p99.9, p99, p95 and p90 that has at
// least ten samples beyond it, 0 when none has: a campaign run has too
// few ops for a tail.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99.9, 99, 95, 90} {
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 0
}

// percentile interpolates linearly between the closest ranks; 0 for no
// samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// tally accumulates the counts behind the per-layer ratios.
type tally struct {
	sessions, localized  int     // debugging sessions, and those that blamed the right unit
	questions            int     // answers the oracle gave
	judgments            int     // every verdict: oracle, assertions, tests and memo
	executed, enumerated int     // mutants run, and mutants materialized
	cacheHits, creates   int     // serve creates, and those answered from the artifact cache
	sessionP99           float64 // serve: create-to-diagnosis latency, ms
}

// minCoverage is the least share of the traced wall time the layer
// spans must cover on the replayed workloads; below it the replay's own
// glue would blur the per-layer shares.
const minCoverage = 0.90

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer reports the traced pass: every layer's self time and calls
// per op and its share of the traced wall time, then the ratios.
// overhead is the traced wall time over the untraced wall time of the
// same work on one worker (0 where there is no such baseline). A
// coverage below minCov fails the run.
func (r *result) perLayer(rec *recorder, l *loop, t *tally, overhead, minCov float64) {
	r.rec = rec
	r.attempted += l.ops()
	r.failed += l.failed
	n := float64(l.ops())
	wallUS := float64(l.wall.Microseconds())
	times := rec.layerTimes()
	var covered float64
	for _, name := range layers {
		lt := times[name]
		r.add(name+".ms_per_op", "ms", float64(lt.selfUS)/1e3/n, lt.calls)
		r.add(name+".calls_per_op", "count", float64(lt.calls)/n, l.ops())
		r.add(name+".share", "ratio", ratio(float64(lt.selfUS), wallUS), lt.calls)
		covered += float64(lt.selfUS)
	}
	r.add("mutate.useful_ratio", "ratio", ratio(float64(t.executed), float64(t.enumerated)), t.enumerated)
	r.add("debugger.questions_mean", "questions", ratio(float64(t.questions), float64(t.sessions)), t.sessions)
	r.add("debugger.localization_rate", "ratio", ratio(float64(t.localized), float64(t.sessions)), t.sessions)
	r.add("debugger.oracle_ratio", "ratio", ratio(float64(t.questions), float64(t.judgments)), t.judgments)
	r.add("serve.cache_hit_ratio", "ratio", ratio(float64(t.cacheHits), float64(t.creates)), t.creates)
	r.add("serve.session_p99_ms", "ms", t.sessionP99, t.creates)
	coverage := ratio(covered, wallUS)
	r.add("trace.coverage", "ratio", coverage, l.ops())
	r.add("trace.overhead", "ratio", overhead, l.ops())
	if coverage < minCov {
		r.mismatch("trace.coverage %.3f < %.2f: the layer spans miss too much of the replay", coverage, minCov)
	}
}
