package debugger

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"

	"gadt/internal/assertion"
)

// This file implements replayable session journals: every oracle
// interaction of a debugging session is appended to a JSONL stream, and
// a ReplayOracle re-answers a later session from that stream with zero
// user interaction — any interactive bug report becomes a reproducible
// test case.
//
// Schema (one JSON object per line):
//
//	{"kind":"session","file":"bug.pas","strategy":"top-down","input":""}
//	{"kind":"query","seq":1,"node":3,"unit":"computs",
//	 "query":"computs(In y: 3, ...)?","verdict":"incorrect",
//	 "wrong_output":"r1","assertion":""}
//
// The session header is optional and informational; replay matches
// query entries by rendered query text (which encodes the node's unit,
// inputs and outputs), falling back to journal order, so journals
// survive strategy-independent reordering as long as the trace is
// deterministic.

// JournalHeader is the optional first line of a journal.
type JournalHeader struct {
	Kind     string `json:"kind"` // "session"
	File     string `json:"file,omitempty"`
	Strategy string `json:"strategy,omitempty"`
	Input    string `json:"input,omitempty"`
}

// JournalEntry is one recorded oracle interaction.
type JournalEntry struct {
	Kind        string `json:"kind"` // "query"
	Seq         int    `json:"seq"`
	Node        int64  `json:"node"`
	Unit        string `json:"unit"`
	Query       string `json:"query"`
	Verdict     string `json:"verdict"`
	WrongOutput string `json:"wrong_output,omitempty"`
	Assertion   string `json:"assertion,omitempty"`
}

// Answer converts the entry into the engine answer it records for q:
// an assertion is parsed for q's unit; otherwise the verdict must be
// known, and a wrong output needs an incorrect verdict and must be one
// of q's outputs. ReplayOracle and gadt-serve's answer endpoint both
// convert through it.
func (e JournalEntry) Answer(q *Query) (Answer, error) {
	if e.Assertion != "" {
		a, err := assertion.Parse(q.Node.Unit.Name, e.Assertion)
		if err != nil {
			return Answer{}, fmt.Errorf("bad assertion: %w", err)
		}
		return Answer{Assertion: a}, nil
	}
	v, ok := ParseVerdict(e.Verdict)
	if !ok {
		return Answer{}, fmt.Errorf("verdict must be correct, incorrect or dont-know, got %q", e.Verdict)
	}
	if e.WrongOutput != "" {
		if v != Incorrect {
			return Answer{}, errors.New(`wrong_output requires verdict "incorrect"`)
		}
		if !slices.Contains(q.Outputs, e.WrongOutput) {
			return Answer{}, fmt.Errorf("unknown output %q (outputs: %v)", e.WrongOutput, q.Outputs)
		}
	}
	return Answer{Verdict: v, WrongOutput: e.WrongOutput}, nil
}

// JournalWriter appends session entries to a JSONL stream.
type JournalWriter struct {
	w       io.Writer
	entries int
}

// NewJournalWriter wraps w.
func NewJournalWriter(w io.Writer) *JournalWriter {
	return &JournalWriter{w: w}
}

// WriteHeader emits the session header line.
func (j *JournalWriter) WriteHeader(file, strategy, input string) error {
	return j.writeJSON(JournalHeader{Kind: "session", File: file, Strategy: strategy, Input: input})
}

// Record appends one query/answer pair.
func (j *JournalWriter) Record(q *Query, a Answer) error {
	j.entries++
	e := JournalEntry{
		Kind:        "query",
		Seq:         j.entries,
		Node:        q.Node.ID,
		Unit:        q.Node.Unit.Name,
		Query:       q.Text,
		Verdict:     a.Verdict.Key(),
		WrongOutput: a.WrongOutput,
	}
	if a.Assertion != nil {
		e.Assertion = a.Assertion.Text
	}
	return j.writeJSON(e)
}

// Entries reports the number of query entries written.
func (j *JournalWriter) Entries() int { return j.entries }

func (j *JournalWriter) writeJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = j.w.Write(append(b, '\n'))
	return err
}

// JournalingOracle records every answer of the inner oracle. Failed
// interactions (input closed, budget errors) are not journaled.
type JournalingOracle struct {
	Inner   Oracle
	Journal *JournalWriter
}

// Ask implements Oracle.
func (o *JournalingOracle) Ask(q *Query) (Answer, error) {
	a, err := o.Inner.Ask(q)
	if err != nil {
		return a, err
	}
	if jerr := o.Journal.Record(q, a); jerr != nil {
		return a, fmt.Errorf("debugger: journal write failed: %w", jerr)
	}
	return a, nil
}

// Journal is a loaded session journal.
type Journal struct {
	Header  *JournalHeader // nil when the stream had no header line
	Entries []JournalEntry
}

// LoadJournal parses and validates a JSONL journal stream. The journal
// is the wire format of gadt-serve as well as the -replay input, so the
// loader is strict: every non-blank line must be a JSON object whose
// "kind" is either "session" (at most once, before any query) or
// "query" with a recognized verdict. Anything else — truncated JSON
// from a crashed writer, bare nulls, unknown kinds, shell output
// appended after the last entry — is an error, not a skip.
func LoadJournal(r io.Reader) (*Journal, error) {
	j := &Journal{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var probe struct {
			Kind *string `json:"kind"`
		}
		if err := json.Unmarshal([]byte(line), &probe); err != nil {
			return nil, fmt.Errorf("journal line %d: %w", lineNo, err)
		}
		if probe.Kind == nil {
			return nil, fmt.Errorf("journal line %d: not a journal record (missing \"kind\")", lineNo)
		}
		switch *probe.Kind {
		case "session":
			var h JournalHeader
			if err := json.Unmarshal([]byte(line), &h); err != nil {
				return nil, fmt.Errorf("journal line %d: %w", lineNo, err)
			}
			if j.Header != nil {
				return nil, fmt.Errorf("journal line %d: duplicate session header", lineNo)
			}
			if len(j.Entries) > 0 {
				return nil, fmt.Errorf("journal line %d: session header after query entries", lineNo)
			}
			j.Header = &h
		case "query":
			var e JournalEntry
			if err := json.Unmarshal([]byte(line), &e); err != nil {
				return nil, fmt.Errorf("journal line %d: %w", lineNo, err)
			}
			if _, ok := ParseVerdict(e.Verdict); !ok && e.Assertion == "" {
				return nil, fmt.Errorf("journal line %d: unknown verdict %q", lineNo, e.Verdict)
			}
			j.Entries = append(j.Entries, e)
		default:
			return nil, fmt.Errorf("journal line %d: unknown record kind %q", lineNo, *probe.Kind)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return j, nil
}

// ReplayOracle answers queries from a recorded journal, deterministic
// and interaction-free. Matching is by exact query text — the text
// encodes unit name, input values and output values, so a match implies
// the same invocation behavior — consuming each entry at most once;
// when several invocations render identically they are consumed in
// journal order. A query absent from the journal is an error: replay
// only makes sense when trace and traversal are reproducible. The
// engine adds replayed assertions to its Options.Assertions, as it does
// for every oracle.
type ReplayOracle struct {
	byText map[string][]int // query text -> entry indexes, FIFO
	all    []JournalEntry
}

// NewReplayOracle indexes a loaded journal.
func NewReplayOracle(j *Journal) *ReplayOracle {
	o := &ReplayOracle{byText: make(map[string][]int), all: j.Entries}
	for i, e := range j.Entries {
		o.byText[e.Query] = append(o.byText[e.Query], i)
	}
	return o
}

// Remaining reports how many journal entries have not been consumed.
func (o *ReplayOracle) Remaining() int {
	total := 0
	for _, idx := range o.byText {
		total += len(idx)
	}
	return total
}

// Ask implements Oracle.
func (o *ReplayOracle) Ask(q *Query) (Answer, error) {
	idx, ok := o.byText[q.Text]
	if !ok || len(idx) == 0 {
		return Answer{}, fmt.Errorf("debugger: replay divergence: journal has no answer for query %q (re-record the session?)", q.Text)
	}
	e := o.all[idx[0]]
	if len(idx) == 1 {
		delete(o.byText, q.Text)
	} else {
		o.byText[q.Text] = idx[1:]
	}
	a, err := e.Answer(q)
	if err != nil {
		return Answer{}, fmt.Errorf("debugger: journal entry %d: %w", e.Seq, err)
	}
	return a, nil
}
