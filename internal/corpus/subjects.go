package corpus

import (
	"fmt"

	"gadt/internal/progen"
)

// Subjects returns the standing subject pool that the mutation and
// differential campaigns share: every corpus program, then a spread of
// progen shapes (parameter style, global style, loop units) named
// synth(d=…,f=…,style,loops=…), whose Source is the generated fixed
// program.
func Subjects() []Program {
	subs := All()
	for _, shape := range []progen.Config{
		{Depth: 2, Fanout: 2},
		{Depth: 3, Fanout: 2},
		{Depth: 2, Fanout: 2, Style: progen.Globals},
		{Depth: 2, Fanout: 2, Loops: true},
	} {
		style := "params"
		if shape.Style == progen.Globals {
			style = "globals"
		}
		subs = append(subs, Program{
			Name:   fmt.Sprintf("synth(d=%d,f=%d,%s,loops=%v)", shape.Depth, shape.Fanout, style, shape.Loops),
			Source: progen.Generate(shape).Fixed,
		})
	}
	return subs
}
