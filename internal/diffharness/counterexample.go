package diffharness

import (
	"fmt"
	"strings"

	"gadt/internal/transform"
)

// Counterexample is the header metadata of a testdata/diff reproducer:
// enough to replay the comparison that once diverged.
type Counterexample struct {
	Subject string
	Stages  transform.Stages
	Kind    string
	Input   string
	Detail  string
	Source  string // the program itself (header stripped)
}

// EncodeCounterexample renders a divergence as a self-describing Pascal
// file: a leading comment block with the replay metadata, then the
// (minimized) program. The file is itself valid Pascal.
func EncodeCounterexample(d Divergence, source string) string {
	clean := func(s string) string {
		s = strings.ReplaceAll(s, "}", ")")
		s = strings.ReplaceAll(s, "\n", " ")
		return s
	}
	var b strings.Builder
	b.WriteString("{ pdiff minimized counterexample\n")
	fmt.Fprintf(&b, "  subject: %s\n", clean(d.Subject))
	fmt.Fprintf(&b, "  stages: %s\n", d.Stages)
	fmt.Fprintf(&b, "  kind: %s\n", clean(d.Kind))
	fmt.Fprintf(&b, "  input: %s\n", clean(d.Input))
	fmt.Fprintf(&b, "  detail: %s\n", clean(d.Detail))
	b.WriteString("}\n")
	b.WriteString(source)
	return b.String()
}

// ParseCounterexample reads a file produced by EncodeCounterexample.
func ParseCounterexample(text string) (*Counterexample, error) {
	if !strings.HasPrefix(text, "{ pdiff") {
		return nil, fmt.Errorf("not a pdiff counterexample (missing header)")
	}
	end := strings.Index(text, "}")
	if end < 0 {
		return nil, fmt.Errorf("unterminated header comment")
	}
	c := &Counterexample{Source: strings.TrimPrefix(text[end+1:], "\n")}
	for _, line := range strings.Split(text[:end], "\n") {
		key, val, ok := strings.Cut(strings.TrimSpace(line), ":")
		if !ok {
			continue
		}
		val = strings.TrimSpace(val)
		switch strings.TrimSpace(key) {
		case "subject":
			c.Subject = val
		case "stages":
			c.Stages = parseStages(val)
		case "kind":
			c.Kind = val
		case "input":
			c.Input = val
		case "detail":
			c.Detail = val
		}
	}
	return c, nil
}
