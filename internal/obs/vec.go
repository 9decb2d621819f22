package obs

import (
	"strings"
	"sync"
)

// Vec instruments add a label dimension to counters and histograms: a
// Vec is created once with its label keys, and With resolves a concrete
// label-value tuple to a cached child instrument.
// Children are ordinary registry instruments registered under the
// flattened series name name{k=v,k2=v2}, so snapshots, text/JSON export
// and the Prometheus exposition all see them without extra plumbing.
//
// With is a map lookup per call; hot paths resolve the handle once
// (e.g. per worker, per strategy) and then pay only the atomic op:
//
//	killed := m.CounterVec("campaign.outcomes", "status").With("killed")
//	for ... { killed.Inc() }
//
// Label values are used verbatim in the flattened name; keep them free
// of "," "=" "{" "}" (statuses, strategies and operator names all are).

// seriesName flattens a metric name plus label pairs into the canonical
// series key: name{k=v,k2=v2}. Labels follow registration order.
func seriesName(name string, keys, vals []string) string {
	var b strings.Builder
	b.Grow(len(name) + 16)
	b.WriteString(name)
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteByte('=')
		if i < len(vals) {
			b.WriteString(vals[i])
		}
	}
	b.WriteByte('}')
	return b.String()
}

// splitSeries parses a flattened series key back into its base name and
// label pairs; unlabeled names return (name, nil, nil).
func splitSeries(series string) (name string, keys, vals []string) {
	i := strings.IndexByte(series, '{')
	if i < 0 || !strings.HasSuffix(series, "}") {
		return series, nil, nil
	}
	name = series[:i]
	for _, pair := range strings.Split(series[i+1:len(series)-1], ",") {
		k, v, _ := strings.Cut(pair, "=")
		keys = append(keys, k)
		vals = append(vals, v)
	}
	return name, keys, vals
}

// childKey joins label values into the Vec's cache key.
func childKey(vals []string) string { return strings.Join(vals, "\x1f") }

// CounterVec is a counter family with one child per label-value tuple.
type CounterVec struct {
	r        *Registry
	name     string
	keys     []string
	mu       sync.RWMutex
	children map[string]*Counter
}

// CounterVec returns the named counter family, creating it on first
// use. The label keys are fixed at first registration.
func (r *Registry) CounterVec(name string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.counterVecs[name]
	if !ok {
		v = &CounterVec{r: r, name: name, keys: labels, children: make(map[string]*Counter)}
		r.counterVecs[name] = v
	}
	return v
}

// With resolves the child counter for the given label values, creating
// and registering it on first use. The returned handle is cached and
// stable: hot paths call With once and keep the *Counter. Safe on nil
// (returns a scratch counter).
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return new(Counter)
	}
	key := childKey(values)
	v.mu.RLock()
	c, ok := v.children[key]
	v.mu.RUnlock()
	if ok {
		return c
	}
	c = v.r.Counter(seriesName(v.name, v.keys, values))
	v.mu.Lock()
	v.children[key] = c
	v.mu.Unlock()
	return c
}

// HistogramVec is a histogram family with one child per label-value
// tuple.
type HistogramVec struct {
	r        *Registry
	name     string
	keys     []string
	mu       sync.RWMutex
	children map[string]*Histogram
}

// HistogramVec returns the named histogram family, creating it on first
// use.
func (r *Registry) HistogramVec(name string, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.histVecs[name]
	if !ok {
		v = &HistogramVec{r: r, name: name, keys: labels, children: make(map[string]*Histogram)}
		r.histVecs[name] = v
	}
	return v
}

// With resolves the child histogram for the given label values. Safe on
// nil.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return new(Histogram)
	}
	key := childKey(values)
	v.mu.RLock()
	h, ok := v.children[key]
	v.mu.RUnlock()
	if ok {
		return h
	}
	h = v.r.Histogram(seriesName(v.name, v.keys, values))
	v.mu.Lock()
	v.children[key] = h
	v.mu.Unlock()
	return h
}
