package main

import (
	"fmt"
	"math/rand"
	"time"

	"gadt/internal/analysis/lint"
	"gadt/internal/assertion"
	"gadt/internal/debugger"
	"gadt/internal/gadt"
	"gadt/internal/paper"
	"gadt/internal/progen"
)

// sessionSubject is one buggy program, its fixed reference, and the
// unit a session must blame.
type sessionSubject struct {
	name, buggy, fixed, want string
}

// sessionSubjects are the paper's sqrtest (17-node tree) and two progen
// pairs, 122 and 384 nodes, whose planted bug sits on a seed-drawn path.
func sessionSubjects(seed int64) []sessionSubject {
	rng := rand.New(rand.NewSource(seed))
	subs := []sessionSubject{{"sqrtest", paper.Sqrtest, paper.SqrtestFixed, "decrement"}}
	for _, c := range []progen.Config{{Depth: 4, Fanout: 3}, {Depth: 6, Fanout: 2, Loops: true}} {
		c.BugPath = make([]int, c.Depth)
		for i := range c.BugPath {
			c.BugPath[i] = rng.Intn(c.Fanout)
		}
		p := progen.Generate(c)
		subs = append(subs, sessionSubject{
			name:  fmt.Sprintf("progen-d%d-f%d-loops%v", c.Depth, c.Fanout, c.Loops),
			buggy: p.Buggy,
			fixed: p.Fixed,
			want:  p.BuggyUnit,
		})
	}
	return subs
}

// runSession measures cold in-process equivalents of
// `gadt -reference fixed.pas buggy.pas -strategy S` on one goroutine,
// every subject under every strategy in each round. Set-up generates
// the subjects and runs one warm-up round.
func runSession(e *env) (*result, error) {
	res := &result{workload: "session"}
	strategies := debugger.Strategies()
	var rec *recorder // nil until set-up is done: the warm-up is untraced
	var subs []sessionSubject
	var setups []time.Duration
	var rounds []float64 // untraced warm-up round wall times, s
	for i := 0; i < e.size.setupReps; i++ {
		start := time.Now()
		subs = sessionSubjects(e.seed)
		roundStart := time.Now()
		for _, sub := range subs {
			for _, strat := range strategies {
				if err := rec.session(sub, strat, &tally{}); err != nil {
					res.mismatch("warm-up: %v", err)
				}
			}
		}
		rounds = append(rounds, time.Since(roundStart).Seconds())
		setups = append(setups, time.Since(start))
	}

	t := &tally{}
	if e.traced {
		rec = newRecorder()
	}
	round := len(subs) * len(strategies)
	var walls []float64 // traced round wall times, s
	var roundStart time.Time
	l := runLoop(e.measure, round, res, func(i int) (int, error) {
		if i%round == 0 {
			roundStart = time.Now()
		}
		err := rec.session(subs[i/len(strategies)%len(subs)], strategies[i%len(strategies)], t)
		if i%round == round-1 {
			walls = append(walls, time.Since(roundStart).Seconds())
		}
		return 1, err
	})
	if !e.traced {
		res.endToEnd(setups, l)
		return res, nil
	}
	res.perLayer(rec, l, t, percentile(walls, 50)/percentile(rounds, 50), minCoverage)
	return res, nil
}

// session is one cold debugging session the way cmd/gadt runs it with
// -reference: load, lint into hints, transform and trace, build the
// reference oracle, debug with slicing. It fails unless the session
// blames the planted bug's unit.
func (r *recorder) session(sub sessionSubject, strat debugger.Strategy, t *tally) error {
	op := sub.name + "/" + strat.String()
	root := r.span("session", op)
	defer root.End()
	sys, err := r.load(op, sub.name+".pas", sub.buggy)
	if err != nil {
		return fmt.Errorf("%s: %w", op, err)
	}
	sp := r.span("lint", op)
	var hints map[string]float64
	if diags := sys.Lint(lint.Options{}); len(diags) > 0 {
		hints = lint.Hints(diags)
	}
	sp.End()
	run, err := r.trace(op, sys, "", 0, 0)
	if err != nil {
		return fmt.Errorf("%s: %w", op, err)
	}
	sp = r.span("oracle", op)
	oracle, err := gadt.IntendedOracle(sub.fixed)
	sp.End()
	if err != nil {
		return fmt.Errorf("%s: %w", op, err)
	}
	out, err := r.debug(op, run, oracle, gadt.DebugConfig{
		Strategy:   strat,
		Slicing:    true,
		Hints:      hints,
		Assertions: assertion.NewDB(),
	}, t)
	if err != nil {
		return fmt.Errorf("%s: %w", op, err)
	}
	if !out.Localized() {
		return fmt.Errorf("%s: inconclusive, want %s", op, sub.want)
	}
	if got := sys.Transformed.OriginRoutine(out.Bug.Unit.Name); got != sub.want {
		return fmt.Errorf("%s: localized %s, want %s", op, got, sub.want)
	}
	t.localized++
	return nil
}
