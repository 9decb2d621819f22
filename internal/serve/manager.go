package serve

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"net/http"
	"sync"
	"time"

	"gadt/internal/debugger"
	"gadt/internal/obs"
	"gadt/internal/pascal/interp"
)

// Options configures the service.
type Options struct {
	// Workers sizes the pipeline worker pool (default 4); QueueLen its
	// job queue (default Workers*64). A full queue answers 429.
	Workers  int
	QueueLen int

	// Fuel and Depth are the per-session execution budgets enforced on
	// every traced run (defaults 2_000_000 statements, 5_000 frames).
	// The interp.ErrFuelExhausted / ErrDepthExhausted sentinels make
	// hostile programs a clean 422 instead of a hung worker.
	Fuel  int
	Depth int

	// IdleTimeout evicts sessions not touched for this long (default
	// 15m); TombstoneTTL keeps terminal sessions addressable for stable
	// error codes before they are forgotten (default 2×IdleTimeout).
	IdleTimeout  time.Duration
	TombstoneTTL time.Duration

	// MaxBody caps request bodies in bytes (default 1 MiB).
	MaxBody int64
	// MaxSessions caps the registry, live sessions and tombstones
	// together (default 4096). At the cap, Create forgets the tombstone
	// idle the longest; it answers 429 session_limit only when every
	// registered session is live.
	MaxSessions int
	// CacheEntries caps the content-addressed cache (default 1024).
	CacheEntries int

	// PrepareWait bounds how long POST /v1/sessions blocks for the
	// first question; AnswerWait bounds the wait for the next one
	// (default 30s each). On expiry the current snapshot is returned
	// and the client polls GET.
	PrepareWait time.Duration
	AnswerWait  time.Duration
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.Fuel <= 0 {
		o.Fuel = 2_000_000
	}
	if o.Depth <= 0 {
		o.Depth = 5_000
	}
	if o.IdleTimeout <= 0 {
		o.IdleTimeout = 15 * time.Minute
	}
	if o.TombstoneTTL <= 0 {
		o.TombstoneTTL = 2 * o.IdleTimeout
	}
	if o.MaxBody <= 0 {
		o.MaxBody = 1 << 20
	}
	if o.MaxSessions <= 0 {
		o.MaxSessions = 4096
	}
	if o.PrepareWait <= 0 {
		o.PrepareWait = 30 * time.Second
	}
	if o.AnswerWait <= 0 {
		o.AnswerWait = 30 * time.Second
	}
	return o
}

// Manager owns the session registry, the worker pool and the cache,
// and runs the idle-eviction janitor.
type Manager struct {
	reg   *obs.Registry
	opts  Options
	cache *Cache
	pool  *pool

	mu       sync.Mutex
	sessions map[string]*Session
	closed   bool

	active  *obs.Gauge
	created *obs.Counter
	evicted *obs.Counter

	stop     chan struct{}
	stopOnce sync.Once
	janitor  sync.WaitGroup
}

// NewManager builds the service core. reg must be non-nil for the
// serve.* metrics contract (nil degrades to unobserved no-ops).
func NewManager(reg *obs.Registry, opts Options) *Manager {
	opts = opts.withDefaults()
	m := &Manager{
		reg:      reg,
		opts:     opts,
		cache:    NewCache(reg, opts.CacheEntries),
		pool:     newPool(opts.Workers, opts.QueueLen, reg),
		sessions: make(map[string]*Session),
		active:   reg.Gauge("serve.sessions.active"),
		created:  reg.Counter("serve.sessions.created"),
		evicted:  reg.Counter("serve.sessions.evicted"),
		stop:     make(chan struct{}),
	}
	m.janitor.Add(1)
	go m.runJanitor()
	return m
}

// Cache exposes the content-addressed cache (tests assert its size).
func (m *Manager) Cache() *Cache { return m.cache }

func newSessionID() string {
	var b [9]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("serve: crypto/rand failed: " + err.Error())
	}
	return "s-" + hex.EncodeToString(b[:])
}

// Create registers a session and enqueues its pipeline job on the
// worker pool. It does not wait for the first question — callers
// combine it with awaitReady.
func (m *Manager) Create(req CreateRequest) (*Session, *apiError) {
	if req.Program == "" {
		return nil, errf(http.StatusBadRequest, CodeBadRequest, "program must not be empty")
	}
	if req.File == "" {
		req.File = "program.pas"
	}
	strategy, apiErr := parseStrategy(req.Strategy)
	if apiErr != nil {
		return nil, apiErr
	}

	hash := hashProgram(req.Program)
	sess := newSession(newSessionID(), strategy, hash, func() { m.active.Add(-1) })

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, errf(http.StatusServiceUnavailable, CodeBusy, "server is shutting down")
	}
	if len(m.sessions) >= m.opts.MaxSessions && !m.forgetOldestTombstoneLocked() {
		m.mu.Unlock()
		return nil, errf(http.StatusTooManyRequests, CodeSessionLimit,
			"session limit reached: %d live sessions", m.opts.MaxSessions)
	}
	m.sessions[sess.ID] = sess
	m.mu.Unlock()
	m.active.Add(1)
	m.created.Inc()

	if !m.pool.submit(func() { m.prepare(sess, req) }) {
		m.forget(sess.ID)
		sess.closeWith(StateClosed)
		return nil, errf(http.StatusTooManyRequests, CodeBusy, "execution queue is full")
	}
	return sess, nil
}

// prepare runs on a pool worker: builds (or shares) the pipeline
// artifacts, validates the traced run, then hands off to the debug
// goroutine. Every exit path leaves the session in a deterministic
// state.
func (m *Manager) prepare(sess *Session, req CreateRequest) {
	hitstr := func(hit bool) string {
		if hit {
			return "hit"
		}
		return "miss"
	}

	art, err, ahit := m.cache.Artifact(req.File, req.Program, !req.NoTransform, !req.NoLint)
	sess.mu.Lock()
	sess.Cache.Artifact = hitstr(ahit)
	sess.mu.Unlock()
	if err != nil {
		sess.fail(asAPIError(err))
		return
	}

	tr, err, thit := m.cache.Trace(art, req.File, !req.NoTransform, !req.NoLint, req.Input, m.opts.Fuel, m.opts.Depth)
	sess.mu.Lock()
	sess.Cache.Trace = hitstr(thit)
	sess.mu.Unlock()
	if err != nil {
		sess.fail(asAPIError(err))
		return
	}

	sess.mu.Lock()
	sess.output = tr.Output
	if tr.RunErr != nil {
		sess.runErr = tr.RunErr.Error()
	}
	sess.mu.Unlock()

	// Budget exhaustion is the signature of a hostile or runaway
	// program: reject the session cleanly instead of debugging a
	// gigantic partial tree. Other runtime errors (division by zero,
	// bad index) keep going — crashes are debuggable.
	switch {
	case errors.Is(tr.RunErr, interp.ErrFuelExhausted):
		sess.fail(errf(http.StatusUnprocessableEntity, CodeFuelExhausted,
			"execution exceeded the %d-statement fuel budget: %v", m.opts.Fuel, tr.RunErr))
		return
	case errors.Is(tr.RunErr, interp.ErrDepthExhausted):
		sess.fail(errf(http.StatusUnprocessableEntity, CodeDepthExhausted,
			"execution exceeded the %d-frame depth budget: %v", m.opts.Depth, tr.RunErr))
		return
	}
	if tr.Tree == nil || tr.Tree.Root == nil {
		sess.fail(errf(http.StatusUnprocessableEntity, CodeEmptyTree,
			"program produced no execution tree"))
		return
	}

	sess.mu.Lock()
	if sess.state.Terminal() { // evicted or deleted while tracing
		sess.mu.Unlock()
		return
	}
	sess.setStateLocked(StateDeciding)
	sess.mu.Unlock()

	// The question/answer loop runs on its own goroutine — it blocks on
	// client answers for arbitrarily long and must not pin a worker.
	go func() {
		out, derr := debugger.New(tr.Tree, sess, debugger.Options{
			Strategy:     sess.Strategy,
			Assertions:   sess.db,
			Slicing:      !req.NoSlicing,
			Recorder:     tr.Recorder,
			Meta:         art.Transformed,
			Hints:        art.Hints,
			MaxQuestions: req.MaxQuestions,
			Metrics:      m.reg,
		}).Run()
		if errors.Is(derr, errSessionClosed) {
			return // eviction/deletion already set the terminal state
		}
		sess.finish(out, derr)
	}()
}

// asAPIError normalizes cache/build errors onto the wire envelope.
func asAPIError(err error) *apiError {
	var ae *apiError
	if errors.As(err, &ae) {
		return ae
	}
	return errf(http.StatusInternalServerError, "internal", "%v", err)
}

// Get returns a live or tombstoned session.
func (m *Manager) Get(id string) (*Session, *apiError) {
	m.mu.Lock()
	sess, ok := m.sessions[id]
	m.mu.Unlock()
	if !ok {
		return nil, errf(http.StatusNotFound, CodeNotFound, "no session %q", id)
	}
	return sess, nil
}

// Delete closes a session on client request. The tombstone stays
// addressable (answering returns session_closed) until the janitor
// forgets it.
func (m *Manager) Delete(id string) *apiError {
	sess, apiErr := m.Get(id)
	if apiErr != nil {
		return apiErr
	}
	sess.closeWith(StateClosed)
	return nil
}

// forget removes a session from the registry entirely.
func (m *Manager) forget(id string) {
	m.mu.Lock()
	delete(m.sessions, id)
	m.mu.Unlock()
}

// forgetOldestTombstoneLocked removes the terminal session idle the
// longest, making room for a new one. It reports false when every
// registered session is live. The caller holds m.mu.
func (m *Manager) forgetOldestTombstoneLocked() bool {
	var oldest *Session
	var oldestIdle time.Time
	for _, s := range m.sessions {
		if !s.currentState().Terminal() {
			continue
		}
		if idle := s.idleSince(); oldest == nil || idle.Before(oldestIdle) {
			oldest, oldestIdle = s, idle
		}
	}
	if oldest == nil {
		return false
	}
	delete(m.sessions, oldest.ID)
	return true
}

// List snapshots every registered session.
func (m *Manager) List() []SessionResponse {
	m.mu.Lock()
	all := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		all = append(all, s)
	}
	m.mu.Unlock()
	out := make([]SessionResponse, 0, len(all))
	for _, s := range all {
		out = append(out, s.Snapshot())
	}
	return out
}

// runJanitor periodically evicts idle sessions and forgets expired
// tombstones.
func (m *Manager) runJanitor() {
	defer m.janitor.Done()
	tick := m.opts.IdleTimeout / 4
	if tick > 30*time.Second {
		tick = 30 * time.Second
	}
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			m.sweep(time.Now())
		case <-m.stop:
			return
		}
	}
}

// Sweep applies the idle/tombstone policy as if the current time were
// now. The janitor calls it on its tick; tests call it with a future
// instant to exercise eviction deterministically.
func (m *Manager) Sweep(now time.Time) { m.sweep(now) }

// sweep applies the idle/tombstone policy at the given instant.
func (m *Manager) sweep(now time.Time) {
	m.mu.Lock()
	var evict, forget []*Session
	for _, s := range m.sessions {
		idle := now.Sub(s.idleSince())
		if s.currentState().Terminal() {
			if idle > m.opts.TombstoneTTL {
				forget = append(forget, s)
			}
			continue
		}
		if idle > m.opts.IdleTimeout {
			evict = append(evict, s)
		}
	}
	for _, s := range forget {
		delete(m.sessions, s.ID)
	}
	m.mu.Unlock()
	for _, s := range evict {
		s.closeWith(StateEvicted)
		m.evicted.Inc()
	}
}

// Close shuts the service down: no new sessions, all live sessions
// closed, workers and janitor stopped.
func (m *Manager) Close() {
	m.mu.Lock()
	m.closed = true
	all := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		all = append(all, s)
	}
	m.mu.Unlock()
	for _, s := range all {
		s.closeWith(StateClosed)
	}
	m.stopOnce.Do(func() { close(m.stop) })
	m.janitor.Wait()
	m.pool.close()
}
