// Command ptrace executes a Pascal program and prints its execution tree
// (the paper's tracing phase, Section 5.2).
//
// Usage:
//
//	ptrace [-input "1 2"] [-original] [-transformed-source] program.pas
//
// By default the program is transformed first (loop units, goto
// breaking, globals to parameters); -original traces the untouched
// program instead. -stats prints the metrics snapshot (statement and
// call counts, tree size, phase durations), -trace-out writes phase
// spans as a Chrome trace-event file (raw JSONL events for a ".jsonl"
// path), and -cpuprofile/-memprofile wire up pprof.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"gadt/internal/gadt"
	"gadt/internal/obs"
)

type options struct {
	input      string
	original   bool
	showSrc    bool
	stats      bool
	traceOut   string
	cpuprofile string
	memprofile string
}

func main() {
	var o options
	flag.StringVar(&o.input, "input", "", "program input")
	flag.BoolVar(&o.original, "original", false, "trace the untransformed program")
	flag.BoolVar(&o.showSrc, "transformed-source", false, "also print the transformed program")
	flag.BoolVar(&o.stats, "stats", false, "print a metrics snapshot on exit")
	flag.StringVar(&o.traceOut, "trace-out", "", "write a Chrome trace-event JSON file (Perfetto-loadable; \".jsonl\" = raw events, \"-\" = stderr text)")
	flag.StringVar(&o.cpuprofile, "cpuprofile", "", "write a pprof CPU profile to this file")
	flag.StringVar(&o.memprofile, "memprofile", "", "write a pprof heap profile to this file on exit")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: ptrace [flags] program.pas")
		flag.Usage()
		os.Exit(2)
	}
	if err := run(flag.Arg(0), o); err != nil {
		fmt.Fprintln(os.Stderr, "ptrace:", err)
		os.Exit(1)
	}
}

func run(file string, o options) (err error) {
	// Program output and the rendered tree can run to megabytes; one
	// buffered writer around stdout turns per-line syscalls into a few
	// large ones. The deferred flush runs after the stats snapshot.
	out := bufio.NewWriter(os.Stdout)
	defer func() {
		if ferr := out.Flush(); ferr != nil && err == nil {
			err = ferr
		}
	}()

	reg, tracer, closeTrace, err := obs.Setup(o.traceOut)
	if err != nil {
		return err
	}
	stopProfiles, err := obs.StartProfiles(o.cpuprofile, o.memprofile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProfiles(); perr != nil && err == nil {
			err = perr
		}
		if o.stats {
			fmt.Fprintln(out, "\nmetrics:")
			reg.Snapshot().WriteText(out)
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
	var r *gadt.Run
	if o.original {
		r = sys.TraceOriginal(o.input, 0, 0)
	} else {
		r, err = sys.Trace(o.input)
		if err != nil {
			return err
		}
		if o.showSrc {
			xsrc, err := sys.TransformedSource()
			if err != nil {
				return err
			}
			fmt.Fprintln(out, "--- transformed program ---")
			fmt.Fprint(out, xsrc)
			fmt.Fprintln(out, "---")
		}
	}
	fmt.Fprintf(out, "program output:\n%s", r.Output)
	if r.RunErr != nil {
		fmt.Fprintf(out, "runtime error: %v\n", r.RunErr)
	}
	fmt.Fprintf(out, "execution tree (%d nodes, %d statements executed):\n", r.Tree.Size(), r.Steps)
	r.Tree.Render(out, nil, nil)
	return nil
}
