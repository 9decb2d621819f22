package debugger_test

import (
	"strings"
	"testing"

	"gadt/internal/assertion"
	"gadt/internal/debugger"
	"gadt/internal/obs"
	"gadt/internal/paper"
)

// TestJournalRoundTrip records a session against the intended-semantics
// oracle, then replays it: the replayed session must ask the same
// questions, localize the same node, and consume the whole journal.
func TestJournalRoundTrip(t *testing.T) {
	res, deps := traceIt(t, paper.Sqrtest)
	oracle := &debugger.IntendedOracle{Ref: analyze(t, paper.SqrtestFixed)}

	var buf strings.Builder
	jw := debugger.NewJournalWriter(&buf)
	if err := jw.WriteHeader("sqrtest.pas", "top-down", ""); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	live, err := debugger.New(res.Tree, &debugger.JournalingOracle{Inner: oracle, Journal: jw},
		debugger.Options{Slicing: true, Deps: deps, Metrics: reg}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !live.Localized() || live.Bug.Unit.Name != "decrement" {
		t.Fatalf("live bug = %v, want decrement", live.Bug)
	}
	if jw.Entries() != live.Questions {
		t.Errorf("journal entries = %d, want %d (one per oracle question)", jw.Entries(), live.Questions)
	}
	if got := reg.Counter("debugger.oracle.queries").Value(); got != int64(jw.Entries()) {
		t.Errorf("obs counter = %d, journal entries = %d; must match", got, jw.Entries())
	}

	j, err := debugger.LoadJournal(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if j.Header == nil || j.Header.File != "sqrtest.pas" {
		t.Errorf("header = %+v", j.Header)
	}
	if len(j.Entries) != live.Questions {
		t.Fatalf("loaded %d entries, want %d", len(j.Entries), live.Questions)
	}

	// Replay on a fresh trace of the same program.
	res2, deps2 := traceIt(t, paper.Sqrtest)
	replayed, err := debugger.New(res2.Tree, debugger.NewReplayOracle(j),
		debugger.Options{Slicing: true, Deps: deps2}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !replayed.Localized() || replayed.Bug.Unit.Name != live.Bug.Unit.Name {
		t.Fatalf("replayed bug = %v, want %s", replayed.Bug, live.Bug.Unit.Name)
	}
	if replayed.Bug.ID != live.Bug.ID {
		t.Errorf("replayed node ID = %d, want %d (tree identity must be stable)", replayed.Bug.ID, live.Bug.ID)
	}
	if replayed.Questions != live.Questions {
		t.Errorf("replayed questions = %d, want %d", replayed.Questions, live.Questions)
	}
}

// TestJournalAssertionRoundTrip checks that `a <expr>` answers survive
// the journal: the assertion text is re-parsed on replay and lands in
// the replaying session's DB.
func TestJournalAssertionRoundTrip(t *testing.T) {
	res, _ := traceIt(t, paper.PQR)

	var buf strings.Builder
	jw := debugger.NewJournalWriter(&buf)
	scripted := &debugger.ScriptedOracle{
		ByUnit: map[string]debugger.Answer{
			"p": {Verdict: debugger.Incorrect},
			"q": {Assertion: assertion.MustParse("q", "result = result")},
			"r": {Verdict: debugger.Incorrect},
		},
	}
	live, err := debugger.New(res.Tree, &debugger.JournalingOracle{Inner: scripted, Journal: jw},
		debugger.Options{}).Run()
	if err != nil {
		t.Fatal(err)
	}

	j, err := debugger.LoadJournal(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	db := assertion.NewDB()
	res2, _ := traceIt(t, paper.PQR)
	ro := debugger.NewReplayOracle(j)
	replayed, err := debugger.New(res2.Tree, ro, debugger.Options{Assertions: db}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if replayed.Bug == nil || live.Bug == nil || replayed.Bug.Unit.Name != live.Bug.Unit.Name {
		t.Fatalf("replayed = %v, live = %v", replayed.Bug, live.Bug)
	}
	if db.Len() == 0 {
		t.Error("replayed assertion did not reach the DB")
	}
	if ro.Remaining() != 0 {
		t.Errorf("journal not fully consumed: %d left", ro.Remaining())
	}
}

// TestReplayMissingQuery ensures replay fails loudly rather than
// guessing when the session diverges from the recording.
func TestReplayMissingQuery(t *testing.T) {
	j := &debugger.Journal{}
	o := debugger.NewReplayOracle(j)
	res, _ := traceIt(t, paper.PQR)
	_, err := debugger.New(res.Tree, o, debugger.Options{}).Run()
	if err == nil || !strings.Contains(err.Error(), "no answer for query") {
		t.Errorf("err = %v, want journal-miss error", err)
	}
}

// TestLoadJournalRejectsGarbage pins the strict wire-format contract:
// the journal is gadt-serve's answer schema, so the loader must reject
// every malformed line instead of skipping it — in particular trailing
// garbage after the last entry, which the pre-server loader accepted.
func TestLoadJournalRejectsGarbage(t *testing.T) {
	valid := `{"kind":"session","file":"b.pas"}` + "\n" +
		`{"kind":"query","seq":1,"node":1,"unit":"p","query":"p?","verdict":"correct"}` + "\n"
	if j, err := debugger.LoadJournal(strings.NewReader(valid)); err != nil || len(j.Entries) != 1 {
		t.Fatalf("valid journal: j=%+v err=%v", j, err)
	}

	bad := []struct{ name, tail string }{
		{"malformed line", "{not json\n"},
		{"unknown verdict", `{"kind":"query","verdict":"maybe"}` + "\n"},
		{"unknown kind", `{"kind":"future-thing"}` + "\n"},
		{"missing kind", "{}\n"},
		{"null record", "null\n"},
		{"non-object", `"done"` + "\n"},
		{"truncated entry", `{"kind":"query","seq":2` + "\n"},
		{"duplicate header", `{"kind":"session","file":"b.pas"}` + "\n"},
		{"shell noise", "session complete\n"},
	}
	for _, tc := range bad {
		if _, err := debugger.LoadJournal(strings.NewReader(valid + tc.tail)); err == nil {
			t.Errorf("%s: trailing garbage %q accepted, want error", tc.name, tc.tail)
		}
	}

	// A header is only valid before the first query entry.
	outOfOrder := `{"kind":"query","seq":1,"node":1,"unit":"p","query":"p?","verdict":"correct"}` + "\n" +
		`{"kind":"session","file":"b.pas"}` + "\n"
	if _, err := debugger.LoadJournal(strings.NewReader(outOfOrder)); err == nil {
		t.Error("header after query entries accepted, want error")
	}
}
