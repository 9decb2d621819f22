// Command plint runs the dataflow anomaly diagnostics engine over
// Pascal programs: use-before-definition, dead stores, unused
// variables/parameters/routines, unreachable statements, var-parameter
// aliasing, unassigned function results, and anomalous gotos.
//
// Usage:
//
//	plint [flags] program.pas ...
//
//	-json           render findings as JSON
//	-codes list     comma-separated check codes to run (e.g. P001,P003)
//	-list           print the check registry and exit
//	-no-suppress    ignore `lint:ignore` comments
//	-pval           dump the per-point abstract values (the interval
//	                lattice behind P012..P015) instead of findings
//	-stats          print a metrics snapshot (findings by code) on exit
//	-trace-out f    write per-file lint spans as a Chrome trace-event file
//	                (".jsonl" = raw events, "-" = stderr text)
//
// Exit status is 1 when any error-severity finding (or a parse/analysis
// failure) is reported, 0 otherwise.
//
// Findings can be suppressed in source with a comment on the offending
// line (or the line before):
//
//	x := 0; // lint:ignore P003 reset kept for clarity
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"gadt/internal/analysis/absint"
	"gadt/internal/analysis/lint"
	"gadt/internal/obs"
	"gadt/internal/pascal/parser"
	"gadt/internal/pascal/sem"
)

func main() {
	jsonOut := flag.Bool("json", false, "render findings as JSON")
	codes := flag.String("codes", "", "comma-separated check codes to run (default all)")
	list := flag.Bool("list", false, "print the check registry and exit")
	noSuppress := flag.Bool("no-suppress", false, "ignore lint:ignore comments")
	pval := flag.Bool("pval", false, "dump per-point abstract values instead of findings")
	stats := flag.Bool("stats", false, "print a metrics snapshot on exit")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON file (Perfetto-loadable; \".jsonl\" = raw events, \"-\" = stderr text)")
	flag.Parse()

	if *list {
		for _, c := range lint.Checks() {
			fmt.Printf("%s  %-20s %s\n", c.Code, c.Name, c.Doc)
		}
		return
	}
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: plint [flags] program.pas ...")
		flag.Usage()
		os.Exit(2)
	}

	opts := lint.Options{NoSuppress: *noSuppress}
	if *codes != "" {
		for _, c := range strings.Split(*codes, ",") {
			c = strings.TrimSpace(c)
			if c == "" {
				continue
			}
			chk := lint.LookupCheck(c)
			if chk == nil {
				fmt.Fprintf(os.Stderr, "plint: unknown check %q (try -list)\n", c)
				os.Exit(2)
			}
			opts.Codes = append(opts.Codes, chk.Code)
		}
	}

	reg, tracer, closeTrace, err := obs.Setup(*traceOut)
	if err != nil {
		fmt.Fprintln(os.Stderr, "plint:", err)
		os.Exit(2)
	}

	if *pval {
		failed := false
		for _, file := range flag.Args() {
			src, err := os.ReadFile(file)
			if err != nil {
				fmt.Fprintln(os.Stderr, "plint:", err)
				failed = true
				continue
			}
			prog, err := parser.ParseProgram(file, string(src))
			if err != nil {
				fmt.Fprintf(os.Stderr, "plint: %s: %v\n", file, err)
				failed = true
				continue
			}
			info, err := sem.Analyze(prog)
			if err != nil {
				fmt.Fprintf(os.Stderr, "plint: %s: %v\n", file, err)
				failed = true
				continue
			}
			fmt.Printf("== %s ==\n", file)
			fmt.Print(absint.Analyze(info).Dump())
		}
		if failed {
			os.Exit(1)
		}
		return
	}

	failed := false
	var all []lint.Diagnostic
	for _, file := range flag.Args() {
		src, err := os.ReadFile(file)
		if err != nil {
			fmt.Fprintln(os.Stderr, "plint:", err)
			failed = true
			continue
		}
		sp := tracer.Start("lint " + file)
		diags, err := lint.Run(file, string(src), opts)
		sp.End()
		if err != nil {
			fmt.Fprintf(os.Stderr, "plint: %s: %v\n", file, err)
			failed = true
			continue
		}
		lint.Record(reg, diags)
		reg.Counter("lint.files").Inc()
		if lint.HasErrors(diags) {
			failed = true
		}
		all = append(all, diags...)
	}
	if *jsonOut {
		if err := lint.JSON(os.Stdout, all); err != nil {
			fmt.Fprintln(os.Stderr, "plint:", err)
			os.Exit(2)
		}
	} else {
		lint.Text(os.Stdout, all)
	}
	if *stats {
		fmt.Println("\nmetrics:")
		reg.Snapshot().WriteText(os.Stdout)
	}
	if err := closeTrace(); err != nil {
		fmt.Fprintln(os.Stderr, "plint:", err)
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}
