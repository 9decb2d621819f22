package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"time"

	"gadt/internal/analysis/lint"
	"gadt/internal/exectree"
	"gadt/internal/obs"
	"gadt/internal/pascal/parser"
	"gadt/internal/pascal/sem"
	"gadt/internal/slicing/dynamic"
	"gadt/internal/transform"
)

// The content-addressed cache has two layers, both keyed by the
// program's SHA-256 plus PipelineVersion plus the pipeline flags that
// change the result:
//
//	artifact  parse + sem + transform + lint hints   (input-independent)
//	trace     execution tree + output + the on-demand dependence graph
//	          (adds the input hash and the fuel/depth budgets)
//
// Entries are built once under singleflight — concurrent sessions for
// the same program block on the first builder instead of duplicating
// work — and shared read-only afterwards: the debugger keeps all
// per-session state (view, memo, assertion DB) outside the tree. A
// trace's dependence graph (dynamic.Deps) is built at most once, by the
// first session that slices, and later slices only read it, so one
// trace can back any number of concurrent sessions. Build errors are
// cached too (they are deterministic for a given key), which makes
// hostile resubmission of a fuel bomb cost one lookup, not one trace.

// Artifact is the input-independent pipeline product for one program.
type Artifact struct {
	Hash string // hex SHA-256 of the source

	// Info is the semantic analysis of the ORIGINAL program; Transformed
	// is nil when the session asked for -no-transform.
	Info        *sem.Info
	Transformed *transform.Result

	// Hints are the plint suspiciousness scores (nil when lint is off);
	// LintDiags is kept for the session report.
	Hints     map[string]float64
	LintDiags []lint.Diagnostic
}

// TraceInfo returns the program analysis the tracing phase executes:
// the transformed program when transformation ran, the original
// otherwise.
func (a *Artifact) TraceInfo() *sem.Info {
	if a.Transformed != nil {
		return a.Transformed.Info
	}
	return a.Info
}

// TraceArtifact is one cached traced execution.
type TraceArtifact struct {
	Tree   *exectree.Tree
	Deps   *dynamic.Deps
	Output string
	RunErr error
	Steps  int
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

	reg    *obs.Registry // observes each trace's dependence-graph build
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
// program under the given pipeline flags.
func (c *Cache) Artifact(file, src string, doTransform, doLint bool) (*Artifact, error, bool) {
	hash := hashProgram(src)
	key := artifactKey(hash, file, doTransform, doLint)
	v, err, hit := c.getOrBuild("artifact", key, func() (any, error) {
		return buildArtifact(hash, file, src, doTransform, doLint)
	})
	if err != nil {
		return nil, err, hit
	}
	return v.(*Artifact), nil, hit
}

// Trace returns (building if necessary) the traced execution of the
// artifact's program on input under the given budgets.
func (c *Cache) Trace(art *Artifact, file string, doTransform, doLint bool, input string, fuel, depth int) (*TraceArtifact, error, bool) {
	key := traceKey(artifactKey(art.Hash, file, doTransform, doLint), input, fuel, depth)
	v, err, hit := c.getOrBuild("trace", key, func() (any, error) {
		return buildTrace(art, input, fuel, depth, c.reg), nil
	})
	if err != nil {
		return nil, err, hit
	}
	return v.(*TraceArtifact), nil, hit
}

// buildArtifact runs the input-independent pipeline phases. Errors are
// apiErrors so the session surfaces a stable code per failing phase.
func buildArtifact(hash, file, src string, doTransform, doLint bool) (*Artifact, error) {
	prog, err := parser.ParseProgram(file, src)
	if err != nil {
		return nil, errf(422, CodeParseError, "parse: %v", err)
	}
	info, err := sem.Analyze(prog)
	if err != nil {
		return nil, errf(422, CodeSemError, "sem: %v", err)
	}
	art := &Artifact{Hash: hash, Info: info}
	if doTransform {
		res, err := transform.Apply(info)
		if err != nil {
			return nil, errf(422, CodeTransformError, "transform: %v", err)
		}
		art.Transformed = res
	}
	if doLint {
		art.LintDiags = lint.RunInfo(info, src, lint.Options{})
		art.Hints = lint.Hints(art.LintDiags)
	}
	return art, nil
}

// buildTrace executes the program under budgets, recording the
// execution tree; the dependence graph for slicing is built on the first
// slice. A runtime error still yields the partial tree — crashes are
// debuggable — so it is stored in the artifact, not returned.
func buildTrace(art *Artifact, input string, fuel, depth int, reg *obs.Registry) *TraceArtifact {
	info := art.TraceInfo()
	tr := exectree.TraceWith(info, exectree.TraceOpts{
		Input:    input,
		MaxSteps: fuel,
		MaxDepth: depth,
	})
	return &TraceArtifact{
		Tree: tr.Tree,
		Deps: &dynamic.Deps{
			Info: info, Input: input, MaxSteps: fuel, MaxDepth: depth,
			Nodes: tr.Tree.Size(), Metrics: reg,
		},
		Output: tr.Output,
		RunErr: tr.Err,
		Steps:  tr.Steps,
	}
}
