// transformations shows the paper's Section 6 program transformations on
// two subjects: conversion of global side effects to parameters, and
// breaking of global gotos (including a goto out of a loop) into
// exit-condition parameters — while preserving behavior.
//
//	go run ./examples/transformations
package main

import (
	"fmt"
	"log"

	"gadt/internal/gadt"
	"gadt/internal/paper"
	"gadt/internal/pascal/printer"
)

func main() {
	show("global side effects (Section 6, first example)", paper.GlobalSideEffects, "")
	show("global goto from a nested procedure (second example)", paper.GlobalGoto, "")
	show("goto out of a loop (third example)", paper.LoopGoto, "")
}

func show(title, src, input string) {
	fmt.Printf("=== %s ===\n", title)
	sys, err := gadt.Load("subject.pas", src)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("--- original ---")
	fmt.Print(printer.Print(sys.Info.Program))

	res, err := sys.Transform()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("--- transformed ---")
	fmt.Print(printer.Print(res.Program))

	// Behavior is preserved.
	orig := sys.TraceOriginal(input, 0, 0)
	xform, err := sys.Trace(input)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("--- outputs: original %q, transformed %q (equal: %v) ---\n",
		orig.Output, xform.Output, orig.Output == xform.Output)

	for name, added := range res.Added {
		for _, a := range added {
			kind := "global " + a.GlobalOf
			if a.ExitCond {
				kind = "exit condition"
			}
			fmt.Printf("  %s gained %s parameter %s (%s)\n", name, a.Display, a.Name, kind)
		}
	}
	fmt.Println()
}
