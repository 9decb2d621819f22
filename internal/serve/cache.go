package serve

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"

	"gadt/internal/gadt"
	"gadt/internal/obs"
	"gadt/internal/pascal/interp"
	"gadt/internal/pascal/parser"
)

// The content-addressed cache has two layers, both keyed by the
// program's SHA-256 plus PipelineVersion plus the pipeline flags that
// change the result:
//
//	artifact  the gadt.System: parse + sem + transform + lint hints
//	          (input-independent)
//	trace     the gadt.Run: execution tree + output + the on-demand
//	          dependence graph (adds the input hash and the fuel/depth
//	          budgets; drops the lint flag, which a trace never reads)
//
// Entries are built once under singleflight — concurrent sessions for
// the same program block on the first builder instead of duplicating
// work — and shared read-only afterwards: the artifact build runs every
// phase that writes to the system (Transform, LintHints), and the
// debugger keeps all per-session state (view, memo, assertion DB)
// outside the tree. A trace's dependence graph (dynamic.Deps) is built
// at most once, by the first session that slices, and later slices only
// read it, so one trace can back any number of concurrent sessions.
// Build errors are cached too (they are deterministic for a given key),
// and so is a run the fuel or depth budget stopped, as its output, error
// and step count without the partial tree: hostile resubmission of a
// fuel bomb costs one lookup, not one trace, and holds no tree. Over
// capacity, the least recently used completed entry goes first.

// Artifact is the input-independent pipeline product for one program.
type Artifact struct {
	Hash string // hex SHA-256 of the source

	// System is the loaded program, transformed unless the session asked
	// for no_transform. It reports its phases into the server's registry.
	System *gadt.System

	// Hints are the plint suspiciousness scores (nil when lint is off).
	Hints map[string]float64
}

// hashProgram returns the hex SHA-256 of the source text.
func hashProgram(src string) string {
	h := sha256.Sum256([]byte(src))
	return hex.EncodeToString(h[:])
}

// artifactKey addresses the input-independent layer. The file name is
// part of the key because it appears in loop-query text.
func artifactKey(hash, file string, transform, lint bool) string {
	return fmt.Sprintf("art:%s:%s:f=%s:t=%v:l=%v", PipelineVersion, hash, file, transform, lint)
}

// traceKey addresses one traced execution. A trace does not read lint
// hints, so the lint flag is not part of the key.
func traceKey(hash, file string, transform bool, input string, fuel, depth int) string {
	return fmt.Sprintf("trace:%s:%s:f=%s:t=%v:in=%s:fuel=%d:depth=%d",
		PipelineVersion, hash, file, transform, hashProgram(input), fuel, depth)
}

type cacheEntry struct {
	key   string
	ready chan struct{} // closed when val/err are set
	val   any
	err   error
}

// Cache is the two-layer content-addressed store with singleflight
// builds and hit/miss counter vecs per layer.
type Cache struct {
	mu         sync.Mutex
	entries    map[string]*list.Element // of *cacheEntry
	lru        list.List                // most recently used first
	maxEntries int

	reg    *obs.Registry // observes every phase of the systems it builds
	hits   *obs.CounterVec
	misses *obs.CounterVec
}

// NewCache builds a cache bounded to maxEntries (<= 0 means 1024).
func NewCache(reg *obs.Registry, maxEntries int) *Cache {
	if maxEntries <= 0 {
		maxEntries = 1024
	}
	return &Cache{
		entries:    make(map[string]*list.Element),
		maxEntries: maxEntries,
		reg:        reg,
		hits:       reg.CounterVec("serve.cache.hits", "layer"),
		misses:     reg.CounterVec("serve.cache.misses", "layer"),
	}
}

// getOrBuild returns the cached value for key, building it with build
// on first use; concurrent callers for the same key wait for the first
// builder. The bool reports whether this call was a hit (shared a
// present or in-flight entry).
func (c *Cache) getOrBuild(layer, key string, build func() (any, error)) (any, error, bool) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		e := el.Value.(*cacheEntry)
		c.mu.Unlock()
		c.hits.With(layer).Inc()
		<-e.ready
		return e.val, e.err, true
	}
	e := &cacheEntry{key: key, ready: make(chan struct{})}
	c.entries[key] = c.lru.PushFront(e)
	c.evictLocked()
	c.mu.Unlock()
	c.misses.With(layer).Inc()
	e.val, e.err = build()
	close(e.ready)
	return e.val, e.err, false
}

// evictLocked drops least-recently-used completed entries while over
// capacity. In-flight entries (ready open) are never dropped.
func (c *Cache) evictLocked() {
	for el := c.lru.Back(); el != nil && len(c.entries) > c.maxEntries; {
		e, prev := el.Value.(*cacheEntry), el.Prev()
		select {
		case <-e.ready:
			c.lru.Remove(el)
			delete(c.entries, e.key)
		default: // still building
		}
		el = prev
	}
}

// Len reports the number of cached entries (both layers).
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Artifact returns (building if necessary) the artifact layer for the
// program under the given pipeline flags. Build errors are apiErrors so
// the session surfaces a stable code per failing phase.
func (c *Cache) Artifact(file, src string, doTransform, doLint bool) (*Artifact, error, bool) {
	hash := hashProgram(src)
	key := artifactKey(hash, file, doTransform, doLint)
	v, err, hit := c.getOrBuild("artifact", key, func() (any, error) {
		sys, err := gadt.LoadObserved(file, src, c.reg, nil)
		if err != nil {
			if errors.As(err, new(parser.ErrorList)) {
				return nil, errf(422, CodeParseError, "parse: %v", err)
			}
			return nil, errf(422, CodeSemError, "sem: %v", err)
		}
		if doTransform {
			if _, err := sys.Transform(); err != nil {
				return nil, errf(422, CodeTransformError, "transform: %v", err)
			}
		}
		art := &Artifact{Hash: hash, System: sys}
		if doLint {
			art.Hints = sys.LintHints()
		}
		return art, nil
	})
	if err != nil {
		return nil, err, hit
	}
	return v.(*Artifact), nil, hit
}

// Trace returns (building if necessary) the traced run of the
// artifact's program on input under the given budgets: the transformed
// program, or the original one when doTransform is off. A runtime error
// still yields the partial tree — crashes are debuggable — so it is
// kept in the run, not returned. A run stopped by the fuel or depth
// budget is never debugged, so it is cached without its tree.
func (c *Cache) Trace(art *Artifact, file string, doTransform bool, input string, fuel, depth int) (*gadt.Run, error, bool) {
	key := traceKey(art.Hash, file, doTransform, input, fuel, depth)
	v, err, hit := c.getOrBuild("trace", key, func() (any, error) {
		var run *gadt.Run
		if doTransform {
			var err error
			if run, err = art.System.TraceLimited(input, fuel, depth); err != nil {
				return nil, err
			}
		} else {
			run = art.System.TraceOriginal(input, fuel, depth)
		}
		if errors.Is(run.RunErr, interp.ErrFuelExhausted) || errors.Is(run.RunErr, interp.ErrDepthExhausted) {
			run.Tree, run.Deps = nil, nil
		}
		return run, nil
	})
	if err != nil {
		return nil, err, hit
	}
	return v.(*gadt.Run), nil, hit
}
