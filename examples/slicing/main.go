// slicing demonstrates both slicing engines of the system:
//
//   - static interprocedural slicing on the SDG (Figure 2 and a slice
//     across the sqrtest call graph), and
//
//   - dynamic execution-tree slicing (Figures 8 and 9).
//
//     go run ./examples/slicing
package main

import (
	"fmt"
	"log"
	"os"

	"gadt/internal/exectree"
	"gadt/internal/gadt"
	"gadt/internal/paper"
	"gadt/internal/slicing/static"
)

func main() {
	figure2()
	interprocedural()
	dynamicSlices()
}

func figure2() {
	fmt.Println("=== Figure 2: slice of program p on mul at the last line ===")
	sys, err := gadt.Load("p.pas", paper.SliceExample)
	if err != nil {
		log.Fatal(err)
	}
	mul := static.LookupVar(sys.Info, sys.Info.Main, "mul")
	sl := sys.StaticSlicer().OnVarAtEnd(sys.Info.Main, mul)
	fmt.Print(sl.Render())
	fmt.Println()
}

func interprocedural() {
	fmt.Println("=== static slice of sqrtest on computs' output r1 ===")
	sys, err := gadt.Load("sqrtest.pas", paper.Sqrtest)
	if err != nil {
		log.Fatal(err)
	}
	computs := sys.Info.LookupRoutine("computs")
	r1 := static.LookupVar(sys.Info, computs, "r1")
	sl, err := sys.StaticSlicer().OnOutput(computs, r1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s\n", sl.Describe())
	fmt.Println("(square, comput2 and test are sliced away)")
	fmt.Println()
}

func dynamicSlices() {
	fmt.Println("=== dynamic execution-tree slices (Figures 8 and 9) ===")
	sys, err := gadt.Load("sqrtest.pas", paper.Sqrtest)
	if err != nil {
		log.Fatal(err)
	}
	run := sys.TraceOriginal("", 0, 0)
	find := func(unit string) *exectree.Node {
		var out *exectree.Node
		run.Tree.Walk(func(n *exectree.Node) bool {
			if out == nil && n.Unit.Name == unit {
				out = n
			}
			return true
		})
		return out
	}
	for _, c := range []struct{ unit, output string }{
		{"computs", "r1"},
		{"partialsums", "s2"},
	} {
		sl, err := run.Deps.SliceOnOutput(run.Tree, find(c.unit), c.output)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("--- slice on %s.%s keeps %d of %d nodes ---\n",
			c.unit, c.output, sl.Size(), run.Tree.Size())
		run.Tree.Render(os.Stdout, sl.Keep, nil)
	}
}
