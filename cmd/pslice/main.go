// Command pslice computes interprocedural static program slices
// (Section 4 of the paper / Weiser's slicing).
//
// Usage:
//
//	pslice -var mul program.pas             # slice on mul at program end
//	pslice -var s2 -routine partialsums -output program.pas
//
// With -output the criterion is the named output parameter (or function
// result) of the routine; otherwise the value of -var at the end of
// -routine (default: the program block). -summary suppresses the sliced
// source and prints statistics only; -stats prints the observability
// metrics snapshot (phase durations, slice sizes); -trace-out writes
// phase spans as a Chrome trace-event file (raw JSONL events for a
// ".jsonl" path).
package main

import (
	"flag"
	"fmt"
	"os"

	"gadt/internal/gadt"
	"gadt/internal/obs"
	"gadt/internal/slicing/static"
)

type options struct {
	varName  string
	routine  string
	onOutput bool
	summary  bool
	stats    bool
	traceOut string
}

func main() {
	var o options
	flag.StringVar(&o.varName, "var", "", "variable to slice on (required)")
	flag.StringVar(&o.routine, "routine", "", "routine context (default: program block)")
	flag.BoolVar(&o.onOutput, "output", false, "slice on the routine's output parameter -var")
	flag.BoolVar(&o.summary, "summary", false, "print slice statistics only")
	flag.BoolVar(&o.stats, "stats", false, "print a metrics snapshot on exit")
	flag.StringVar(&o.traceOut, "trace-out", "", "write a Chrome trace-event JSON file (Perfetto-loadable; \".jsonl\" = raw events, \"-\" = stderr text)")
	flag.Parse()

	if flag.NArg() != 1 || o.varName == "" {
		fmt.Fprintln(os.Stderr, "usage: pslice -var name [-routine r] [-output] program.pas")
		flag.Usage()
		os.Exit(2)
	}
	if err := run(flag.Arg(0), o); err != nil {
		fmt.Fprintln(os.Stderr, "pslice:", err)
		os.Exit(1)
	}
}

func run(file string, o options) (err error) {
	reg, tracer, closeTrace, err := obs.Setup(o.traceOut)
	if err != nil {
		return err
	}
	defer func() {
		if o.stats {
			fmt.Println("\nmetrics:")
			reg.Snapshot().WriteText(os.Stdout)
		}
		if cerr := closeTrace(); cerr != nil && err == nil {
			err = cerr
		}
	}()

	src, err := os.ReadFile(file)
	if err != nil {
		return err
	}
	sys, err := gadt.LoadObserved(file, string(src), reg, tracer)
	if err != nil {
		return err
	}
	r := sys.Info.Main
	if o.routine != "" {
		if r = sys.Info.LookupRoutine(o.routine); r == nil {
			return fmt.Errorf("routine %s not found", o.routine)
		}
	}
	v := static.LookupVar(sys.Info, r, o.varName)
	if v == nil {
		return fmt.Errorf("variable %s not visible in %s", o.varName, r.Name)
	}
	sp := tracer.Start("slice")
	slicer := sys.StaticSlicer()
	var sl *static.Slice
	if o.onOutput {
		sl, err = slicer.OnOutput(r, v)
		if err != nil {
			sp.End()
			return err
		}
	} else {
		sl = slicer.OnVarAtEnd(r, v)
	}
	sp.End()
	reg.Gauge("slicing.static.kept.nodes").Set(int64(len(sl.Nodes)))
	fmt.Printf("slice on %s at %s: %s\n", o.varName, r.Name, sl.Describe())
	if !o.summary {
		fmt.Print(sl.Render())
	}
	return nil
}
