// Package pool is the worker pool the mutation campaign
// (internal/campaign) and the differential harness
// (internal/diffharness) run on. Run feeds job indices in order to a
// fixed set of workers; a job runs one or more tasks, and the pool
// times, counts and traces each task the same way for both:
//
//	<name>.inflight          gauge      tasks running now
//	<name>.done              counter    tasks finished
//	<name>.outcomes{status}  counter    tasks finished, by status
//	<name>.eval              histogram  per-task wall time
//	<name>.workers           gauge      pool size, set before the first task
//
// Worker i traces on its own lane, <name>-worker-<i>, under a lifetime
// "worker" span.
package pool

import (
	"fmt"
	"io"
	"strconv"
	"time"

	"gadt/internal/obs"
)

// Config shapes one pool run.
type Config struct {
	Name     string        // prefixes instruments and lanes; labels progress lines
	Workers  int           // at least 1
	Tasks    int           // the total the progress lines count toward
	Show     []string      // statuses whose counts end each progress line
	Metrics  *obs.Registry // nil: the instruments are private to the run
	Tracer   *obs.Tracer   // nil: no lanes or spans
	Progress io.Writer     // nil: no progress lines
}

// heartbeatInterval spaces the progress lines; tests shorten it.
var heartbeatInterval = 2 * time.Second

// Worker is one pool worker; Run calls do on its goroutine.
type Worker struct {
	Lane *obs.Lane // spans opened on it nest under the "worker" span
	p    *pool
}

type pool struct {
	cfg      Config
	start    time.Time
	inflight *obs.Gauge
	done     *obs.Counter
	outcomes *obs.CounterVec
	eval     *obs.Histogram
}

// Run starts cfg.Workers workers, hands them the job indices 0 to
// jobs-1 in order, and returns when every job is done. A job writes its
// results into a slot indexed by i, so their order does not depend on
// which worker ran which job. Run's own goroutine writes a progress
// line every heartbeatInterval and a final one when the jobs are done.
func Run(cfg Config, jobs int, do func(w *Worker, i int)) {
	m := cfg.Metrics
	if m == nil {
		m = obs.NewRegistry()
	}
	p := &pool{
		cfg:      cfg,
		start:    time.Now(),
		inflight: m.Gauge(cfg.Name + ".inflight"),
		done:     m.Counter(cfg.Name + ".done"),
		outcomes: m.CounterVec(cfg.Name+".outcomes", "status"),
		eval:     m.Histogram(cfg.Name + ".eval"),
	}
	m.Gauge(cfg.Name + ".workers").Set(int64(cfg.Workers))
	tick := time.NewTicker(heartbeatInterval)
	defer tick.Stop()

	next, exited := make(chan int), make(chan struct{})
	for id := 0; id < cfg.Workers; id++ {
		go func() {
			defer func() { exited <- struct{}{} }()
			w := &Worker{Lane: cfg.Tracer.Lane(cfg.Name + "-worker-" + strconv.Itoa(id)), p: p}
			// The lifetime span is the worker's occupancy bar in Perfetto.
			sp := w.Lane.Start("worker")
			defer sp.End()
			for i := range next {
				do(w, i)
			}
		}()
	}
	for i := 0; i < jobs; {
		select {
		case next <- i:
			i++
		case <-tick.C:
			p.progress(false)
		}
	}
	close(next)
	for running := cfg.Workers; running > 0; {
		select {
		case <-exited:
			running--
		case <-tick.C:
			p.progress(false)
		}
	}
	p.progress(true)
}

// Task runs f on the worker's goroutine as one task of the current
// job, under a span named span that carries attrs (key, value, key,
// value, ...) and the status f returns. It counts the task under that
// status and returns its wall time.
func (w *Worker) Task(span string, attrs []string, f func() (status string)) time.Duration {
	sp := w.Lane.Start(span)
	for i := 0; i+1 < len(attrs); i += 2 {
		sp.SetAttr(attrs[i], attrs[i+1])
	}
	w.p.inflight.Add(1)
	start := time.Now()
	status := f()
	d := time.Since(start)
	w.p.inflight.Add(-1)
	w.p.done.Inc()
	w.p.outcomes.With(status).Inc()
	w.p.eval.Observe(d)
	sp.SetAttr("status", status)
	sp.End()
	return d
}

// progress writes "<name>: done/tasks (pct%) rate/s", then the time
// left ("eta 3s") or, when final, the time taken ("in 2.5s"), then
// "<status>=<count>" for each Show status. The rate is the mean since
// the start, steady under bursty workers.
func (p *pool) progress(final bool) {
	if p.cfg.Progress == nil {
		return
	}
	elapsed := time.Since(p.start)
	done, tasks := p.done.Value(), int64(p.cfg.Tasks)
	pct := 100 * float64(done) / float64(max(tasks, 1))
	rate := float64(done) / max(elapsed.Seconds(), 1e-9)
	line := fmt.Sprintf("%s: %d/%d (%.1f%%) %.1f/s", p.cfg.Name, done, tasks, pct, rate)
	switch {
	case final:
		line += " in " + elapsed.Round(time.Millisecond).String()
	case rate > 0 && done < tasks:
		eta := time.Duration(float64(tasks-done)/rate) * time.Second
		line += " eta " + eta.Round(time.Second).String()
	}
	for _, s := range p.cfg.Show {
		line += fmt.Sprintf(" %s=%d", s, p.outcomes.With(s).Value())
	}
	fmt.Fprintln(p.cfg.Progress, line)
}

// Backstop runs f on its own goroutine with panic isolation and waits
// at most timeout for it. It returns the recovered panic value (nil if
// none) and whether the wait ran out. An abandoned f runs on: its work
// must be bounded (the campaigns' runs are fuel-bounded), and once late
// is true the caller must report a fresh value, never one f writes.
func Backstop(timeout time.Duration, f func()) (panicked any, late bool) {
	start := time.Now()
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		f()
	}()
	// Stopped, the timer is freed now; time.After's would live until it fired.
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case p := <-done:
		// A result seen after the deadline is late too: select picks at
		// random when both channels are ready, and f may even finish
		// before the timer starts if this goroutine is descheduled.
		if time.Since(start) < timeout {
			return p, false
		}
	case <-timer.C:
	}
	return nil, true
}

// OutputDiff summarizes the first byte at which outputs a and b
// differ, quoting each under its label from 16 bytes before that byte
// to 16 bytes after it.
func OutputDiff(labelA, labelB, a, b string) string {
	const window = 16
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	lo := max(i-window, 0)
	return fmt.Sprintf("output diverges at byte %d: %s ...%q, %s ...%q", i,
		labelA, a[lo:min(i+window, len(a))], labelB, b[lo:min(i+window, len(b))])
}
