package diffharness

import (
	"encoding/json"
	"io"
	"time"

	"gadt/internal/obs"
)

// StageStats aggregates outcomes per stage combination.
type StageStats struct {
	Compared     int `json:"compared"`
	Equivalent   int `json:"equivalent"`
	Divergent    int `json:"divergent"`
	Rejected     int `json:"rejected"`
	Inconclusive int `json:"inconclusive"`
	Panics       int `json:"panics"`
	Timeouts     int `json:"timeouts"`
}

// Report is the campaign summary written to BENCH_diff.json.
type Report struct {
	Seed      int64    `json:"seed"`
	Programs  int      `json:"programs"`
	Subjects  int      `json:"subjects"`
	Combos    []string `json:"combos"`
	Workers   int      `json:"workers"`
	Fuel      int      `json:"fuel"`
	ElapsedMS int64    `json:"elapsed_ms"`

	Compared     int `json:"compared"`
	Equivalent   int `json:"equivalent"`
	Divergent    int `json:"divergent"`
	Rejected     int `json:"rejected"`
	Inconclusive int `json:"inconclusive"`
	Panics       int `json:"panics"`
	Timeouts     int `json:"timeouts"`

	ByStages map[string]*StageStats `json:"by_stages"`

	// Divergences carries every disagreement with its (possibly
	// minimized) reproducer — the campaign's actionable output.
	Divergences []Divergence `json:"divergences,omitempty"`

	Outcomes []Outcome `json:"outcomes"`
}

func aggregate(cfg Config, subjects int, outcomes []Outcome, elapsed time.Duration) *Report {
	var combos []string
	for _, c := range Combos() {
		combos = append(combos, c.String())
	}
	rep := &Report{
		Seed:      cfg.Seed,
		Programs:  cfg.Programs,
		Subjects:  subjects,
		Combos:    combos,
		Workers:   cfg.Workers,
		Fuel:      cfg.Fuel,
		ElapsedMS: elapsed.Milliseconds(),
		ByStages:  make(map[string]*StageStats),
		Outcomes:  outcomes,
	}
	for _, o := range outcomes {
		st := rep.ByStages[o.Stages]
		if st == nil {
			st = &StageStats{}
			rep.ByStages[o.Stages] = st
		}
		rep.Compared++
		st.Compared++
		switch o.Status {
		case StatusEquivalent:
			rep.Equivalent++
			st.Equivalent++
		case StatusDivergent:
			rep.Divergent++
			st.Divergent++
			if o.Div != nil {
				rep.Divergences = append(rep.Divergences, *o.Div)
			}
		case StatusRejected:
			rep.Rejected++
			st.Rejected++
		case StatusInconclusive:
			rep.Inconclusive++
			st.Inconclusive++
		case StatusPanic:
			rep.Panics++
			st.Panics++
			if o.Div != nil {
				rep.Divergences = append(rep.Divergences, *o.Div)
			}
		case StatusTimeout:
			rep.Timeouts++
			st.Timeouts++
		}
	}
	return rep
}

// record exports the harness-specific end-of-run totals to the
// observability registry. Per-status tallies, in-flight/done gauges,
// per-job latency and pool size are recorded live by the shared
// obs.ReportRecorder in Run — only what the recorder cannot know lands
// here.
func record(m *obs.Registry, rep *Report) {
	if m == nil {
		return
	}
	m.Counter("diff.compared").Add(int64(rep.Compared))
	m.Counter("diff.subjects").Add(int64(rep.Subjects))
	m.Counter("diff.shrunk").Add(int64(len(rep.Divergences)))
}

// WriteJSON writes the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
