package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.b")
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("a.b") != c {
		t.Error("Counter is not idempotent per name")
	}
	g := r.Gauge("depth.max")
	g.Set(3)
	g.SetMax(7)
	g.SetMax(2) // lower: kept at 7
	if got := g.Value(); got != 7 {
		t.Errorf("gauge = %d, want 7", got)
	}
	g.Add(-2)
	g.Add(1)
	if got := g.Value(); got != 6 {
		t.Errorf("gauge after Add = %d, want 6", got)
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("phase.trace")
	h.Observe(10 * time.Millisecond)
	h.Observe(30 * time.Millisecond)
	st := h.Stat()
	if st.Count != 2 || st.MinNS != int64(10*time.Millisecond) ||
		st.MaxNS != int64(30*time.Millisecond) || st.MeanNS != int64(20*time.Millisecond) {
		t.Errorf("stat = %+v", st)
	}
	if len(st.Buckets) == 0 {
		t.Error("no buckets recorded")
	}
}

// TestHistogramPercentiles checks the log-bucket quantile estimate: a
// heavily skewed distribution must place p50 near the bulk and p99 near
// the tail, within the factor-of-two bucket resolution, and always
// inside [min, max].
func TestHistogramPercentiles(t *testing.T) {
	h := new(Histogram)
	for i := 0; i < 98; i++ {
		h.Observe(1 * time.Millisecond)
	}
	h.Observe(100 * time.Millisecond)
	h.Observe(200 * time.Millisecond)
	st := h.Stat()
	if st.P50NS < int64(500*time.Microsecond) || st.P50NS > int64(2*time.Millisecond) {
		t.Errorf("p50 = %s, want ~1ms", time.Duration(st.P50NS))
	}
	if st.P99NS < int64(50*time.Millisecond) {
		t.Errorf("p99 = %s, want in the tail (>=50ms)", time.Duration(st.P99NS))
	}
	for _, p := range []int64{st.P50NS, st.P95NS, st.P99NS} {
		if p < st.MinNS || p > st.MaxNS {
			t.Errorf("percentile %d outside [min=%d, max=%d]", p, st.MinNS, st.MaxNS)
		}
	}
	if st.P50NS > st.P95NS || st.P95NS > st.P99NS {
		t.Errorf("percentiles not monotone: p50=%d p95=%d p99=%d", st.P50NS, st.P95NS, st.P99NS)
	}
}

func TestNilRegistryIsSafe(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("y").Set(1)
	r.Gauge("y").Add(2)
	r.Histogram("z").Observe(time.Second)
	r.CounterVec("cv", "k").With("v").Inc()
	r.HistogramVec("hv", "k").With("v").Observe(time.Second)
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Histograms) != 0 {
		t.Errorf("nil registry snapshot not empty: %+v", s)
	}
}

// TestNilInstrumentsAreSafe covers the nil-receiver no-op contract of
// every instrument entry point.
func TestNilInstrumentsAreSafe(t *testing.T) {
	(*Counter)(nil).Inc()
	(*Counter)(nil).Add(3)
	if (*Counter)(nil).Value() != 0 {
		t.Error("nil counter value != 0")
	}
	(*Gauge)(nil).Set(1)
	(*Gauge)(nil).Add(1)
	(*Gauge)(nil).SetMax(1)
	if (*Gauge)(nil).Value() != 0 {
		t.Error("nil gauge value != 0")
	}
	(*Histogram)(nil).Observe(time.Second)
	if (*Histogram)(nil).Stat().Count != 0 {
		t.Error("nil histogram stat not empty")
	}
	(*CounterVec)(nil).With("a").Inc()
	(*HistogramVec)(nil).With("a").Observe(time.Second)
	if (*OpsServer)(nil).Addr() != "" {
		t.Error("nil ops server addr != \"\"")
	}
	if err := (*OpsServer)(nil).Close(); err != nil {
		t.Errorf("nil ops server close: %v", err)
	}
}

func TestVec(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("campaign.outcomes", "status")
	v.With("killed").Inc()
	v.With("killed").Add(2)
	v.With("survived").Inc()
	if got := v.With("killed").Value(); got != 3 {
		t.Errorf("killed = %d, want 3", got)
	}
	if r.CounterVec("campaign.outcomes", "status") != v {
		t.Error("CounterVec is not idempotent per name")
	}
	// Children are ordinary registry counters under the flattened name.
	if got := r.Counter("campaign.outcomes{status=killed}").Value(); got != 3 {
		t.Errorf("flattened child = %d, want 3", got)
	}
	s := r.Snapshot()
	if s.Counters["campaign.outcomes{status=survived}"] != 1 {
		t.Errorf("snapshot missing labeled series: %+v", s.Counters)
	}

	h := r.HistogramVec("latency", "op")
	h.With("parse").Observe(time.Millisecond)
	if s := r.Snapshot(); s.Histograms["latency{op=parse}"].Count != 1 {
		t.Errorf("hist vec snapshot: %+v", s.Histograms)
	}
}

func TestSeriesNameRoundTrip(t *testing.T) {
	series := seriesName("a.b", []string{"k1", "k2"}, []string{"v1", "v2"})
	if series != "a.b{k1=v1,k2=v2}" {
		t.Fatalf("seriesName = %q", series)
	}
	name, keys, vals := splitSeries(series)
	if name != "a.b" || len(keys) != 2 || keys[0] != "k1" || vals[1] != "v2" {
		t.Errorf("splitSeries = %q %v %v", name, keys, vals)
	}
	if n, k, v := splitSeries("plain.name"); n != "plain.name" || k != nil || v != nil {
		t.Errorf("splitSeries(plain) = %q %v %v", n, k, v)
	}
}

func TestSnapshotExport(t *testing.T) {
	r := NewRegistry()
	r.Counter("debugger.oracle.queries").Add(3)
	r.Gauge("exectree.nodes").Set(12)
	r.Histogram("phase.debug").Observe(time.Millisecond)
	s := r.Snapshot()

	var text strings.Builder
	if err := s.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"debugger.oracle.queries  3", "exectree.nodes", "phase.debug", "count=1", "p50="} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("text snapshot missing %q:\n%s", want, text.String())
		}
	}

	var buf strings.Builder
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded Snapshot
	if err := json.Unmarshal([]byte(buf.String()), &decoded); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if decoded.Counters["debugger.oracle.queries"] != 3 || decoded.Gauges["exectree.nodes"] != 12 {
		t.Errorf("decoded = %+v", decoded)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("campaign.done").Add(7)
	r.CounterVec("campaign.outcomes", "status").With("killed").Add(4)
	r.Gauge("campaign.inflight").Set(2)
	r.Histogram("phase.parse").Observe(2 * time.Millisecond)
	r.Histogram("phase.parse").Observe(4 * time.Millisecond)

	var buf strings.Builder
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE campaign_done counter",
		"campaign_done 7",
		`campaign_outcomes{status="killed"} 4`,
		"# TYPE campaign_inflight gauge",
		"campaign_inflight 2",
		"# TYPE phase_parse summary",
		`phase_parse{quantile="0.5"}`,
		`phase_parse{quantile="0.99"}`,
		"phase_parse_sum 0.006",
		"phase_parse_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus exposition missing %q:\n%s", want, out)
		}
	}
	// One TYPE line per family even with many series.
	if strings.Count(out, "# TYPE campaign_outcomes") != 1 {
		t.Errorf("duplicated TYPE lines:\n%s", out)
	}
}

// TestRegistryConcurrency hammers one registry from many goroutines —
// counters, gauges, vec children and histograms plus snapshots in
// flight; run under -race this validates the concurrent-safety claim.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	const workers, iters = 8, 500
	statuses := []string{"killed", "survived", "timeout"}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			vec := r.CounterVec("outcomes", "status")
			hv := r.HistogramVec("lat.by", "op")
			for i := 0; i < iters; i++ {
				r.Counter("shared.counter").Inc()
				r.Counter("per.worker").Add(1)
				r.Gauge("high.water").SetMax(int64(id*iters + i))
				r.Gauge("inflight").Add(1)
				r.Histogram("lat").Observe(time.Duration(i))
				vec.With(statuses[i%len(statuses)]).Inc()
				hv.With(statuses[i%len(statuses)]).Observe(time.Duration(i))
				r.Gauge("inflight").Add(-1)
				if i%100 == 0 {
					r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("shared.counter").Value(); got != workers*iters {
		t.Errorf("shared.counter = %d, want %d", got, workers*iters)
	}
	if got := r.Histogram("lat").Stat().Count; got != workers*iters {
		t.Errorf("histogram count = %d, want %d", got, workers*iters)
	}
	var total int64
	for _, st := range statuses {
		total += r.CounterVec("outcomes", "status").With(st).Value()
	}
	if total != workers*iters {
		t.Errorf("vec total = %d, want %d", total, workers*iters)
	}
	if got := r.Gauge("inflight").Value(); got != 0 {
		t.Errorf("inflight = %d, want 0", got)
	}
}
