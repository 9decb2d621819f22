package pool

import (
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"gadt/internal/obs"
)

// syncBuffer serializes writes so the heartbeat goroutine and the test
// can share it.
type syncBuffer struct {
	mu  sync.Mutex
	buf strings.Builder
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// collectSink keeps every trace event.
type collectSink struct {
	mu     sync.Mutex
	events []obs.TraceEvent
}

func (s *collectSink) Emit(e obs.TraceEvent) {
	s.mu.Lock()
	s.events = append(s.events, e)
	s.mu.Unlock()
}

// TestProgressLine: while tasks run, a progress line reports done of
// total, the percentage, the rate, an ETA and the counts of the shown
// statuses; the final line reports the elapsed time instead of an ETA.
func TestProgressLine(t *testing.T) {
	defer func(d time.Duration) { heartbeatInterval = d }(heartbeatInterval)
	heartbeatInterval = 5 * time.Millisecond
	var out syncBuffer
	cfg := Config{Name: "camp", Workers: 1, Tasks: 10, Show: []string{"killed", "survived"}, Progress: &out}
	Run(cfg, 10, func(w *Worker, i int) {
		w.Task("job", nil, func() string {
			if i < 4 {
				return "killed"
			}
			if i == 4 {
				// Hold the pool until a line shows the first four tasks.
				for deadline := time.Now().Add(10 * time.Second); !strings.Contains(out.String(), "camp: 4/10 (40.0%)"); {
					if time.Now().After(deadline) {
						t.Error("no progress line reported 4 of 10 tasks")
						break
					}
					time.Sleep(time.Millisecond)
				}
			}
			return "survived"
		})
	})
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var mid string
	for _, l := range lines {
		if strings.HasPrefix(l, "camp: 4/10 (40.0%)") {
			mid = l
		}
	}
	for _, want := range []string{"/s eta ", " killed=4 survived=0"} {
		if !strings.Contains(mid, want) {
			t.Errorf("progress line %q lacks %q", mid, want)
		}
	}
	last := lines[len(lines)-1]
	for _, want := range []string{"camp: 10/10 (100.0%) ", "/s in ", " killed=4 survived=6"} {
		if !strings.Contains(last, want) {
			t.Errorf("final line %q lacks %q", last, want)
		}
	}
	if strings.Contains(last, "eta") {
		t.Errorf("final line %q shows an ETA", last)
	}
}

// TestInstruments: the pool feeds job indices in order, and its
// instruments count every task of every job: in flight while it runs,
// done and by status after, one eval sample each, and the pool size.
func TestInstruments(t *testing.T) {
	reg := obs.NewRegistry()
	inflight := reg.Gauge("campaign.inflight")
	var order []int
	Run(Config{Name: "campaign", Workers: 1, Metrics: reg}, 3, func(w *Worker, i int) {
		order = append(order, i)
		for k := 0; k <= i; k++ {
			w.Task("job", nil, func() string {
				if got := inflight.Value(); got != 1 {
					t.Errorf("inflight during a task = %d, want 1", got)
				}
				if k == 0 {
					return "killed"
				}
				return "survived"
			})
		}
	})
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Errorf("jobs ran in order %v, want [0 1 2]", order)
	}
	s := reg.Snapshot()
	for name, want := range map[string]int64{
		"campaign.done":                      6,
		"campaign.outcomes{status=killed}":   3,
		"campaign.outcomes{status=survived}": 3,
	} {
		if s.Counters[name] != want {
			t.Errorf("%s = %d, want %d", name, s.Counters[name], want)
		}
	}
	if s.Gauges["campaign.inflight"] != 0 || s.Gauges["campaign.workers"] != 1 {
		t.Errorf("inflight = %d, workers = %d; want 0 and 1", s.Gauges["campaign.inflight"], s.Gauges["campaign.workers"])
	}
	if s.Histograms["campaign.eval"].Count != 6 {
		t.Errorf("eval histogram = %+v, want 6 samples", s.Histograms["campaign.eval"])
	}
}

// TestWorkersGaugeSetBeforeTasks: a live scrape during the run already
// reads the pool size.
func TestWorkersGaugeSetBeforeTasks(t *testing.T) {
	reg := obs.NewRegistry()
	Run(Config{Name: "diff", Workers: 3, Metrics: reg}, 1, func(w *Worker, i int) {
		w.Task("job", nil, func() string {
			if got := reg.Gauge("diff.workers").Value(); got != 3 {
				t.Errorf("diff.workers inside a task = %d, want 3", got)
			}
			return "ok"
		})
	})
}

// TestNilRegistry: without a registry the pool still counts, privately,
// so the progress lines stay right.
func TestNilRegistry(t *testing.T) {
	var out syncBuffer
	Run(Config{Name: "x", Workers: 2, Tasks: 2, Show: []string{"killed", "survived"}, Progress: &out}, 2, func(w *Worker, i int) {
		w.Task("job", nil, func() string { return []string{"killed", "survived"}[i] })
	})
	if got := out.String(); !strings.HasPrefix(got, "x: 2/2 (100.0%) ") || !strings.HasSuffix(got, " killed=1 survived=1\n") {
		t.Errorf("final line = %q", got)
	}
}

// TestConcurrency runs many workers at once (run it under -race): every
// job runs once, every task is counted, and every worker has its own
// named lane whose lifetime span holds its task spans.
func TestConcurrency(t *testing.T) {
	reg := obs.NewRegistry()
	sink := &collectSink{}
	const workers, jobs = 8, 800
	ran := make([]int, jobs)
	Run(Config{Name: "pool", Workers: workers, Metrics: reg, Tracer: obs.NewTracer(sink)}, jobs, func(w *Worker, i int) {
		w.Task("job", []string{"i", strconv.Itoa(i)}, func() string {
			ran[i]++
			if i%3 == 0 {
				return "survived"
			}
			return "killed"
		})
	})
	for i, n := range ran {
		if n != 1 {
			t.Fatalf("job %d ran %d times", i, n)
		}
	}
	if got := reg.Counter("pool.done").Value(); got != jobs {
		t.Errorf("done = %d, want %d", got, jobs)
	}
	if got := reg.Gauge("pool.inflight").Value(); got != 0 {
		t.Errorf("inflight = %d, want 0", got)
	}
	lanes := make(map[string]bool)
	spans := make(map[string]int)
	for _, e := range sink.events {
		switch {
		case e.Phase == "M":
			lanes[e.Args["name"]] = true
		case e.Phase == "E" && e.Name == "job":
			if e.Args["i"] == "" || e.Args["status"] == "" || e.Parent == 0 {
				t.Fatalf("task span %+v lacks its attrs or its worker span", e)
			}
			spans["job"]++
		case e.Phase == "E":
			spans[e.Name]++
		}
	}
	for id := 0; id < workers; id++ {
		if !lanes["pool-worker-"+strconv.Itoa(id)] {
			t.Errorf("no lane pool-worker-%d among %v", id, lanes)
		}
	}
	if spans["worker"] != workers || spans["job"] != jobs {
		t.Errorf("spans = %v, want %d worker and %d job", spans, workers, jobs)
	}
}

func TestBackstop(t *testing.T) {
	if p, late := Backstop(time.Minute, func() {}); p != nil || late {
		t.Errorf("finished call: panicked %v, late %v", p, late)
	}
	if p, late := Backstop(time.Minute, func() { panic("boom") }); p != "boom" || late {
		t.Errorf("panicking call: panicked %v, late %v", p, late)
	}
	// A result seen at or after the deadline is late, whichever channel
	// select would pick.
	if p, late := Backstop(0, func() {}); p != nil || !late {
		t.Errorf("call at a zero timeout: panicked %v, late %v", p, late)
	}
	release := make(chan struct{})
	defer close(release)
	start := time.Now()
	p, late := Backstop(5*time.Millisecond, func() { <-release })
	if p != nil || !late || time.Since(start) < 5*time.Millisecond {
		t.Errorf("overrunning call: panicked %v, late %v after %s", p, late, time.Since(start))
	}
}

func TestOutputDiff(t *testing.T) {
	for _, c := range []struct{ a, b, want string }{
		{"abc\n", "abd\n", `output diverges at byte 2: want ..."abc\n", got ..."abd\n"`},
		{"12\n", "12\n3\n", `output diverges at byte 3: want ..."12\n", got ..."12\n3\n"`},
		{
			strings.Repeat("x", 40) + "0123456789abcdefghij",
			strings.Repeat("x", 40) + "9",
			`output diverges at byte 40: want ..."xxxxxxxxxxxxxxxx0123456789abcdef", got ..."xxxxxxxxxxxxxxxx9"`,
		},
	} {
		if got := OutputDiff("want", "got", c.a, c.b); got != c.want {
			t.Errorf("OutputDiff(%q, %q) =\n  %s\nwant\n  %s", c.a, c.b, got, c.want)
		}
	}
}
