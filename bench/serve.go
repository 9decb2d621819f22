package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gadt/internal/debugger"
	"gadt/internal/obs"
	"gadt/internal/serve"
)

// serveJournal is the checked-in `gadt -journal` session the serve
// workload replays; its header names the program file.
const serveJournal = "testdata/serve/sqrtest_session.jsonl"

// serveClients closed-loop clients each hold one keep-alive connection.
const serveClients = 2

// serveWarmup sessions, half of them cache misses, prime a fresh
// server's cache and code paths before a round is measured.
const serveWarmup = 16

// serveFixture is the session every client replays: create with the
// journal header's file and strategy, post each answer line verbatim,
// and expect the journal's diagnosis.
type serveFixture struct {
	file, strategy, program string
	answers                 [][]byte
}

func loadServeFixture(root string) (*serveFixture, error) {
	raw, err := os.ReadFile(filepath.Join(root, serveJournal))
	if err != nil {
		return nil, err
	}
	j, err := debugger.LoadJournal(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", serveJournal, err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if j.Header == nil || len(lines) != len(j.Entries)+1 {
		return nil, fmt.Errorf("%s: want a session header followed by the answers", serveJournal)
	}
	program, err := os.ReadFile(filepath.Join(root, j.Header.File))
	if err != nil {
		return nil, err
	}
	fx := &serveFixture{file: j.Header.File, strategy: j.Header.Strategy, program: string(program)}
	for _, l := range lines[1:] {
		fx.answers = append(fx.answers, []byte(l))
	}
	return fx, nil
}

// runServe measures an in-process serve.Server with default options
// behind a loopback listener. Each round boots a fresh server, warms it
// up (the set-up), then runs a fixed number of sessions from two
// clients. A seeded coin gives each session either the cached program
// text or a copy that misses the cache (see withNonce).
func runServe(e *env) (*result, error) {
	res := &result{workload: "serve"}
	fx, err := loadServeFixture(e.root)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(e.seed))
	var rec *recorder
	if e.traced {
		rec = newRecorder()
	}
	lanes := make([]*obs.Lane, serveClients)
	for i := range lanes {
		lanes[i] = rec.lane(fmt.Sprintf("client-%d", i))
	}

	l := &loop{}
	t := &tally{}
	var setups []time.Duration
	var sessions []float64
	for round := 0; round == 0 || l.wall < e.measure; round++ {
		programs := make([]string, e.size.serveSessions)
		for i := range programs {
			programs[i] = fx.program
			if rng.Intn(2) == 0 {
				programs[i] = withNonce(fx.program, fmt.Sprintf("nonce %d-%d-%d", e.seed, round, i))
			}
		}

		start := time.Now()
		srv := serve.NewServer(obs.NewRegistry(), serve.Options{})
		hs := httptest.NewServer(srv.Handler())
		clients := make([]*client, serveClients)
		for i := range clients {
			clients[i] = newClient(hs.URL, lanes[i])
		}
		warm := newClient(hs.URL, nil)
		for i := 0; i < serveWarmup; i++ {
			program := fx.program
			if i%2 == 1 {
				program = withNonce(fx.program, fmt.Sprintf("warm-up %d-%d-%d", e.seed, round, i))
			}
			if err := warm.session(fx, program, "warm-up"); err != nil {
				res.mismatch("warm-up: %v", err)
			}
		}
		warm.close()
		setups = append(setups, time.Since(start))

		wall, alloc := runClients(clients, fx, programs, round)
		l.wall += wall
		l.alloc += alloc
		hs.Close()
		srv.Close()
		completed := 0
		for _, c := range clients {
			c.close()
			completed += c.completed
			l.lat = append(l.lat, c.lat...)
			l.failed += c.failed
			sessions = append(sessions, c.sessions...)
			for _, m := range c.errs {
				res.mismatch("%s", m)
			}
			t.add(&c.tally)
		}
		l.rates = append(l.rates, float64(completed)/wall.Seconds())
	}
	if !e.traced {
		res.endToEnd(setups, l)
		return res, nil
	}
	t.sessionP99 = percentile(sessions, 99)
	// The spans live on the clients, so their shares are of client
	// time: the wall time of both clients together.
	traced := *l
	traced.wall *= serveClients
	res.perLayer(rec, &traced, t, 0, 0)
	return res, nil
}

// withNonce appends a comment to the program's last line: a new text,
// so a cache miss, on the same lines, so the same questions (loop
// questions quote line numbers).
func withNonce(program, nonce string) string {
	return strings.TrimSuffix(program, "\n") + " { " + nonce + " }\n"
}

func (t *tally) add(o *tally) {
	t.sessions += o.sessions
	t.localized += o.localized
	t.questions += o.questions
	t.judgments += o.judgments
	t.cacheHits += o.cacheHits
	t.creates += o.creates
}

// runClients runs every session of one round across the clients, waits
// for them, and returns the round's wall time and the heap allocated
// meanwhile.
func runClients(clients []*client, fx *serveFixture, programs []string, round int) (time.Duration, uint64) {
	var next atomic.Int64
	var wg sync.WaitGroup
	runtime.GC()
	a0 := allocated()
	start := time.Now()
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(programs) {
					return
				}
				if err := c.session(fx, programs[i], fmt.Sprintf("r%d-s%d", round, i)); err != nil {
					c.failed++
					if len(c.errs) < maxErrs {
						c.errs = append(c.errs, err.Error())
					}
				}
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start), allocated() - a0
}

// client is one closed-loop HTTP client on its own connection. Only its
// goroutine touches it until runClients returns.
type client struct {
	http *http.Client
	base string
	lane *obs.Lane

	lat       []float64 // every request, ms
	sessions  []float64 // create to diagnosis, ms
	completed int
	failed    int
	errs      []string
	tally     tally
}

func newClient(base string, lane *obs.Lane) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	// A stuck request fails its session instead of hanging the run.
	return &client{http: &http.Client{Transport: tr, Timeout: 30 * time.Second}, base: base, lane: lane}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// session replays the journal once: create, every answer, delete. It
// fails on any non-2xx response and unless the session is localized at
// the journal's unit after exactly its answers.
func (c *client) session(fx *serveFixture, program, op string) error {
	root := c.lane.Start("session")
	root.SetAttr("op", op)
	defer root.End()
	kind := "serve.create-miss"
	if program == fx.program {
		kind = "serve.create-hit"
	}
	start := time.Now()
	body, err := json.Marshal(serve.CreateRequest{Program: program, File: fx.file, Strategy: fx.strategy})
	if err != nil {
		return err
	}
	resp, err := c.call(kind, op, http.MethodPost, "/v1/sessions", body, http.StatusCreated)
	if err != nil {
		return err
	}
	c.tally.creates++
	if resp.Cache != nil && resp.Cache.Artifact == "hit" {
		c.tally.cacheHits++
	}
	path := "/v1/sessions/" + resp.ID
	for _, a := range fx.answers {
		if resp, err = c.call("serve.answer", op, http.MethodPost, path+"/answer", a, http.StatusOK); err != nil {
			return err
		}
	}
	c.sessions = append(c.sessions, ms(time.Since(start)))
	d := resp.Diagnosis
	if resp.State != "localized" || d == nil || d.Unit != "decrement" || resp.Questions != len(fx.answers) {
		return fmt.Errorf("%s: state %s after %d questions, diagnosis %+v; want localized at decrement after %d",
			op, resp.State, resp.Questions, d, len(fx.answers))
	}
	c.tally.sessions++
	c.tally.localized++
	c.tally.questions += d.Questions
	c.tally.judgments += d.Questions + d.ByMemo + d.ByAssertions + d.ByTests
	if _, err := c.call("serve.delete", op, http.MethodDelete, path, nil, http.StatusNoContent); err != nil {
		return err
	}
	c.completed++
	return nil
}

// call sends one request under a span named for its kind and decodes
// the session it returns (none for 204).
func (c *client) call(kind, op, method, path string, body []byte, want int) (*serve.SessionResponse, error) {
	sp := c.lane.Start(kind)
	sp.SetAttr("op", op)
	start := time.Now()
	data, status, err := c.do(method, path, body)
	c.lat = append(c.lat, ms(time.Since(start)))
	sp.End()
	if err != nil {
		return nil, err
	}
	if status != want {
		return nil, fmt.Errorf("%s %s: status %d, want %d: %s", method, path, status, want, bytes.TrimSpace(data))
	}
	if status == http.StatusNoContent {
		return nil, nil
	}
	var sr serve.SessionResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	return &sr, nil
}

func (c *client) do(method, path string, body []byte) ([]byte, int, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return data, resp.StatusCode, err
}
