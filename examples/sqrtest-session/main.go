// sqrtest-session replays the paper's Section 8 walkthrough end to end:
// pure algorithmic debugging + the T-GEN test database for arrsum +
// dynamic slicing, printing the same interaction session the paper
// shows (Steps 1–5), with the arrsum query answered from test reports.
//
//	go run ./examples/sqrtest-session
package main

import (
	"fmt"
	"log"

	"gadt/internal/assertion"
	"gadt/internal/debugger"
	"gadt/internal/gadt"
	"gadt/internal/paper"
	"gadt/internal/pascal/interp"
	"gadt/internal/tgen"
)

func main() {
	// The paper's premise: arrsum has already been tested with T-GEN.
	lookup, err := buildArrsumReports()
	if err != nil {
		log.Fatal(err)
	}

	sys, err := gadt.Load("sqrtest.pas", paper.Sqrtest)
	if err != nil {
		log.Fatal(err)
	}
	run := sys.TraceOriginal("", 0, 0) // Figure 4 is already side-effect free

	fmt.Println("=== execution tree (Figure 7) ===")
	run.Tree.Render(logWriter{}, nil, nil)

	oracle, err := gadt.IntendedOracleOriginal(paper.SqrtestFixed)
	if err != nil {
		log.Fatal(err)
	}
	out, err := run.Debug(oracle, gadt.DebugConfig{
		Slicing: true,
		Tests:   lookup,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\n=== interaction session (Section 8) ===")
	for _, ev := range out.Transcript {
		switch ev.Kind {
		case debugger.EvQuestion:
			fmt.Printf("%s\n> %s", ev.Text, ev.Verdict)
			if ev.Detail != "" {
				fmt.Printf(", %s", ev.Detail)
			}
			fmt.Println()
		case debugger.EvTest:
			fmt.Printf("[%s was checked against the test database: %s]\n", ev.Node.Unit.Name, ev.Verdict)
		case debugger.EvSlice:
			fmt.Printf("[%s — %s]\n", ev.Text, ev.Detail)
		case debugger.EvLocalized:
			fmt.Printf("\n%s.\n", ev.Text)
		}
	}
	fmt.Printf("\nuser interactions: %d (pure algorithmic debugging needs 8)\n", out.Questions)
}

func buildArrsumReports() (*tgen.Lookup, error) {
	sys, err := gadt.Load("arrsum.pas", paper.ArrsumProgram)
	if err != nil {
		return nil, err
	}
	spec, err := tgen.ParseSpec(paper.ArrsumSpec)
	if err != nil {
		return nil, err
	}
	runner := &tgen.Runner{
		Info: sys.Info,
		Spec: spec,
		Gen:  tgen.SearchGenerator(sys.Info, spec, 5000),
		Chk: func(_ *tgen.Frame, ci *interp.CallInfo) bool {
			// Expected behavior: b = sum of the first n elements.
			check := assertion.MustParse("arrsum", "b = sum(a, n)")
			env := assertion.Env{}
			for _, b := range ci.Ins {
				env[b.Name] = b.Value
			}
			for _, b := range ci.Outs {
				env[b.Name] = b.Value
			}
			return check.Eval(env) == assertion.Holds
		},
	}
	db, err := runner.RunAll()
	if err != nil {
		return nil, err
	}
	pass, total := db.PassCount()
	fmt.Printf("T-GEN: executed %d arrsum test cases, %d passed\n\n", total, pass)
	return &tgen.Lookup{Spec: spec, DB: db}, nil
}

type logWriter struct{}

func (logWriter) Write(p []byte) (int, error) {
	fmt.Print(string(p))
	return len(p), nil
}
