package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"time"

	"gadt/internal/gadt"
	"gadt/internal/obs"
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
//	          budgets)
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
// which makes hostile resubmission of a fuel bomb cost one lookup, not
// one trace.

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

// traceKey addresses one traced execution.
func traceKey(akey, input string, fuel, depth int) string {
	return fmt.Sprintf("trace:%s:in=%s:fuel=%d:depth=%d", akey, hashProgram(input), fuel, depth)
}

type cacheEntry struct {
	ready   chan struct{} // closed when val/err are set
	val     any
	err     error
	lastUse time.Time
}

// Cache is the two-layer content-addressed store with singleflight
// builds and hit/miss counter vecs per layer.
type Cache struct {
	mu         sync.Mutex
	entries    map[string]*cacheEntry
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
		entries:    make(map[string]*cacheEntry),
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
	e, ok := c.entries[key]
	if ok {
		e.lastUse = time.Now()
		c.mu.Unlock()
		c.hits.With(layer).Inc()
		<-e.ready
		return e.val, e.err, true
	}
	e = &cacheEntry{ready: make(chan struct{}), lastUse: time.Now()}
	c.entries[key] = e
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
	for len(c.entries) > c.maxEntries {
		var oldestKey string
		var oldest time.Time
		for k, e := range c.entries {
			select {
			case <-e.ready:
			default:
				continue // still building
			}
			if oldestKey == "" || e.lastUse.Before(oldest) {
				oldestKey, oldest = k, e.lastUse
			}
		}
		if oldestKey == "" {
			return
		}
		delete(c.entries, oldestKey)
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
// kept in the run, not returned.
func (c *Cache) Trace(art *Artifact, file string, doTransform, doLint bool, input string, fuel, depth int) (*gadt.Run, error, bool) {
	key := traceKey(artifactKey(art.Hash, file, doTransform, doLint), input, fuel, depth)
	v, err, hit := c.getOrBuild("trace", key, func() (any, error) {
		if doTransform {
			return art.System.TraceLimited(input, fuel, depth)
		}
		return art.System.TraceOriginal(input, fuel, depth), nil
	})
	if err != nil {
		return nil, err, hit
	}
	return v.(*gadt.Run), nil, hit
}
