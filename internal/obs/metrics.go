// Package obs is the dependency-free observability layer shared by all
// three GADT phases: a concurrency-safe metrics registry (counters,
// gauges, log-bucketed duration histograms with percentiles, and
// labeled Vec variants of all three), a hierarchical span tracer with
// pluggable event sinks (trace.go) including a Chrome trace-event
// exporter loadable in Perfetto, and an embeddable ops HTTP endpoint
// (ops.go). The campaigns' worker pool (internal/pool) builds its
// instruments, lanes and progress lines from these.
//
// Every entry point is nil-safe: methods on a nil *Registry, *Tracer,
// *Lane, *Span, *CounterVec (etc.) or *OpsServer degrade to no-ops, so
// instrumented code never guards call sites — passing no registry costs
// one scratch allocation per lookup and nothing per increment. Hot
// paths (the interpreter's statement loop, pool workers) resolve their
// instruments once and increment afterwards; Vec.With returns a cached
// child handle for the same reason.
//
// Metric names are dotted paths; variable dimensions are labels, e.g.
// campaign.outcomes{status=killed}. The full name inventory lives in
// README.md's Observability section.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one. Safe on nil.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds d (negative deltas are ignored; counters only go up).
func (c *Counter) Add(d int64) {
	if c != nil && d > 0 {
		c.v.Add(d)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a point-in-time value.
type Gauge struct {
	v atomic.Int64
}

// Set stores v. Safe on nil.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adjusts the gauge by d (either sign); the worker pool's in-flight
// task count uses it as an up-down counter.
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v.Add(d)
	}
}

// SetMax stores v only when it exceeds the current value (high-water
// marks such as activation depth).
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBucketCount is the number of log2 duration buckets: bucket i
// counts observations in [2^(i-1), 2^i) nanoseconds (bucket 0 holds
// non-positive durations), so bucket 35 tops out around 34 seconds and
// the last bucket is a catch-all beyond that. Log bucketing keeps
// Observe O(1) and allocation-free while still supporting percentile
// estimation within a factor-of-two bucket, interpolated and clamped to
// the exact observed min/max.
const histBucketCount = 36

// Histogram accumulates durations: count / sum / min / max plus log2
// buckets for percentile estimation.
type Histogram struct {
	mu      sync.Mutex
	count   int64
	sum     time.Duration
	min     time.Duration
	max     time.Duration
	buckets [histBucketCount]int64
}

func bucketIndex(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	i := bits.Len64(uint64(d))
	if i >= histBucketCount {
		i = histBucketCount - 1
	}
	return i
}

// Observe records one duration. Safe on nil.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
	h.count++
	h.sum += d
	h.buckets[bucketIndex(d)]++
}

// Stat returns the accumulated statistics, percentiles included.
func (h *Histogram) Stat() HistStat {
	if h == nil {
		return HistStat{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistStat{Count: h.count, SumNS: int64(h.sum), MinNS: int64(h.min), MaxNS: int64(h.max)}
	if h.count > 0 {
		s.MeanNS = int64(h.sum) / h.count
		s.P50NS = h.quantileLocked(0.50)
		s.P95NS = h.quantileLocked(0.95)
		s.P99NS = h.quantileLocked(0.99)
	}
	for i, c := range h.buckets {
		if c > 0 {
			s.Buckets = append(s.Buckets, HistBucket{UpperNS: int64(1) << uint(i), Count: c})
		}
	}
	return s
}

// quantileLocked estimates the q-quantile from the log buckets by
// linear interpolation inside the bucket the target rank falls into,
// clamped to the observed min/max. Callers hold h.mu.
func (h *Histogram) quantileLocked(q float64) int64 {
	target := q * float64(h.count)
	cum := int64(0)
	for i, c := range h.buckets {
		if c == 0 {
			continue
		}
		if float64(cum+c) >= target {
			lo := int64(0)
			if i > 0 {
				lo = int64(1) << uint(i-1)
			}
			hi := int64(1) << uint(i)
			frac := (target - float64(cum)) / float64(c)
			v := lo + int64(frac*float64(hi-lo))
			if v < int64(h.min) {
				v = int64(h.min)
			}
			if v > int64(h.max) {
				v = int64(h.max)
			}
			return v
		}
		cum += c
	}
	return int64(h.max)
}

// HistBucket is one non-empty log2 bucket of a histogram snapshot:
// Count observations at most UpperNS nanoseconds (and above the
// previous bucket's bound).
type HistBucket struct {
	UpperNS int64 `json:"upper_ns"`
	Count   int64 `json:"count"`
}

// HistStat is an exported histogram snapshot (nanoseconds).
type HistStat struct {
	Count   int64        `json:"count"`
	SumNS   int64        `json:"sum_ns"`
	MinNS   int64        `json:"min_ns"`
	MaxNS   int64        `json:"max_ns"`
	MeanNS  int64        `json:"mean_ns"`
	P50NS   int64        `json:"p50_ns"`
	P95NS   int64        `json:"p95_ns"`
	P99NS   int64        `json:"p99_ns"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// Registry holds named metrics. The zero value is NOT ready; use
// NewRegistry. All methods are safe for concurrent use, and safe on a
// nil receiver (they return live but unregistered scratch instruments).
type Registry struct {
	mu          sync.Mutex
	counters    map[string]*Counter
	gauges      map[string]*Gauge
	hists       map[string]*Histogram
	counterVecs map[string]*CounterVec
	histVecs    map[string]*HistogramVec
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:    make(map[string]*Counter),
		gauges:      make(map[string]*Gauge),
		hists:       make(map[string]*Histogram),
		counterVecs: make(map[string]*CounterVec),
		histVecs:    make(map[string]*HistogramVec),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return new(Counter)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = new(Counter)
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return new(Gauge)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = new(Gauge)
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return new(Histogram)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = new(Histogram)
		r.hists[name] = h
	}
	return h
}

// Snapshot is a consistent copy of every registered metric. Labeled
// series appear under their flattened name, e.g.
// campaign.outcomes{status=killed}.
type Snapshot struct {
	Counters   map[string]int64    `json:"counters"`
	Gauges     map[string]int64    `json:"gauges"`
	Histograms map[string]HistStat `json:"histograms"`
}

// Snapshot copies the registry's current state. Nil registries snapshot
// empty.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistStat{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for n, c := range r.counters {
		s.Counters[n] = c.Value()
	}
	for n, g := range r.gauges {
		s.Gauges[n] = g.Value()
	}
	for n, h := range r.hists {
		s.Histograms[n] = h.Stat()
	}
	return s
}

// WriteText renders the snapshot as an aligned table, one metric per
// line, sorted by name within each kind.
func (s Snapshot) WriteText(w io.Writer) error {
	width := 0
	for _, m := range []int{maxKeyLen(s.Counters), maxKeyLen(s.Gauges)} {
		if m > width {
			width = m
		}
	}
	for n := range s.Histograms {
		if len(n) > width {
			width = len(n)
		}
	}
	for _, n := range sortedKeys(s.Counters) {
		if _, err := fmt.Fprintf(w, "%-*s  %d\n", width, n, s.Counters[n]); err != nil {
			return err
		}
	}
	for _, n := range sortedKeys(s.Gauges) {
		if _, err := fmt.Fprintf(w, "%-*s  %d\n", width, n, s.Gauges[n]); err != nil {
			return err
		}
	}
	var hnames []string
	for n := range s.Histograms {
		hnames = append(hnames, n)
	}
	sort.Strings(hnames)
	for _, n := range hnames {
		h := s.Histograms[n]
		if _, err := fmt.Fprintf(w, "%-*s  count=%d sum=%s mean=%s p50=%s p95=%s p99=%s min=%s max=%s\n",
			width, n, h.Count,
			time.Duration(h.SumNS), time.Duration(h.MeanNS),
			time.Duration(h.P50NS), time.Duration(h.P95NS), time.Duration(h.P99NS),
			time.Duration(h.MinNS), time.Duration(h.MaxNS)); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON renders the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

func maxKeyLen(m map[string]int64) int {
	max := 0
	for n := range m {
		if len(n) > max {
			max = len(n)
		}
	}
	return max
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for n := range m {
		keys = append(keys, n)
	}
	sort.Strings(keys)
	return keys
}
