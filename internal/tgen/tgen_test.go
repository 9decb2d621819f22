package tgen_test

import (
	"path/filepath"
	"strings"
	"testing"

	"gadt/internal/debugger"
	"gadt/internal/exectree"
	"gadt/internal/paper"
	"gadt/internal/pascal/interp"
	"gadt/internal/pascal/parser"
	"gadt/internal/pascal/sem"
	"gadt/internal/tgen"
)

func arrsumSpec(t *testing.T) *tgen.Spec {
	t.Helper()
	spec, err := tgen.ParseSpec(paper.ArrsumSpec)
	if err != nil {
		t.Fatalf("parse spec: %v", err)
	}
	return spec
}

func TestParseArrsumSpec(t *testing.T) {
	spec := arrsumSpec(t)
	if spec.Unit != "arrsum" {
		t.Errorf("unit = %q", spec.Unit)
	}
	if len(spec.Categories) != 3 {
		t.Fatalf("categories = %d, want 3", len(spec.Categories))
	}
	names := []string{"size_of_array", "type_of_elements", "deviation"}
	for i, want := range names {
		if spec.Categories[i].Name != want {
			t.Errorf("category %d = %s, want %s", i, spec.Categories[i].Name, want)
		}
	}
	size := spec.Categories[0]
	if len(size.Choices) != 4 {
		t.Fatalf("size choices = %d, want 4", len(size.Choices))
	}
	if !size.Choices[0].Single || !size.Choices[1].Single {
		t.Error("zero/one must be SINGLE")
	}
	if size.Choices[3].Single || len(size.Choices[3].Properties) != 1 || size.Choices[3].Properties[0] != "more" {
		t.Errorf("more choice = %+v", size.Choices[3])
	}
	if len(spec.Scripts) != 2 || len(spec.Results) != 1 {
		t.Errorf("scripts = %d results = %d", len(spec.Scripts), len(spec.Results))
	}
}

func TestSpecParseErrors(t *testing.T) {
	cases := []string{
		"",
		"category x;",                         // missing test header
		"test t;",                             // no categories
		"test t; category c;",                 // category with no choices
		"test t; category c; a: if ;",         // empty selector
		"test t; category c; a: match ;",      // empty match
		"test t; category c; a: property ;",   // missing property name
		"test t; category c; a: bogus thing;", // junk in choice
	}
	for _, src := range cases {
		if _, err := tgen.ParseSpec(src); err == nil {
			t.Errorf("ParseSpec(%q): expected error", src)
		}
	}
}

// TestFigure1Frames reproduces the paper's Figure 1 discussion:
// "script_1 contains two frames: (more, mixed, large) and
// (more, mixed, average)", and SINGLE choices produce one frame each.
func TestFigure1Frames(t *testing.T) {
	spec := arrsumSpec(t)
	frames := spec.Generate()
	if len(frames) != 8 {
		for _, f := range frames {
			t.Logf("frame %s scripts=%v", f, f.Scripts)
		}
		t.Fatalf("frames = %d, want 8", len(frames))
	}
	byScript := tgen.FramesByScript(frames)
	s1 := byScript["script_1"]
	if len(s1) != 2 {
		t.Fatalf("script_1 has %d frames, want 2: %v", len(s1), s1)
	}
	var codes []string
	for _, f := range s1 {
		codes = append(codes, f.Code())
	}
	want := map[string]bool{
		"arrsum:more/mixed/average": true,
		"arrsum:more/mixed/large":   true,
	}
	for _, c := range codes {
		if !want[c] {
			t.Errorf("unexpected script_1 frame %s", c)
		}
	}
	// SINGLE choices appear in exactly one frame each.
	count := map[string]int{}
	for _, f := range frames {
		count[f.Choices[0].Name]++
	}
	if count["zero"] != 1 || count["one"] != 1 {
		t.Errorf("SINGLE frame counts: zero=%d one=%d, want 1 each", count["zero"], count["one"])
	}
	// Result category assignment.
	for _, f := range frames {
		isMixed := f.Props["mixed"]
		hasResult := len(f.Results) > 0
		if isMixed != hasResult {
			t.Errorf("frame %s: mixed=%v but results=%v", f, isMixed, f.Results)
		}
	}
}

func TestSelectorGating(t *testing.T) {
	spec := arrsumSpec(t)
	for _, f := range spec.Generate() {
		size, typ, dev := f.Choices[0].Name, f.Choices[1].Name, f.Choices[2].Name
		if typ == "mixed" && size != "more" {
			t.Errorf("frame %s: mixed requires MORE", f)
		}
		if (dev == "large" || dev == "average") && typ != "mixed" {
			t.Errorf("frame %s: %s requires MIXED", f, dev)
		}
		if dev == "small" && typ == "mixed" {
			t.Errorf("frame %s: small excluded under MIXED", f)
		}
	}
}

func mkArray(vals ...int64) *interp.ArrayVal {
	a := &interp.ArrayVal{Lo: 1, Hi: 100, Elems: make([]interp.Value, 100)}
	for i := range a.Elems {
		a.Elems[i] = interp.IntV(0)
	}
	for i, v := range vals {
		a.Elems[i] = interp.IntV(v)
	}
	return a
}

func ins(n int64, vals ...int64) []interp.Binding {
	return []interp.Binding{
		{Name: "a", Value: interp.ArrV(mkArray(vals...))},
		{Name: "n", Value: interp.IntV(n)},
		{Name: "b", Value: interp.IntV(0)},
	}
}

func TestClassify(t *testing.T) {
	spec := arrsumSpec(t)
	cases := []struct {
		name string
		ins  []interp.Binding
		want string
	}{
		{"zero", ins(0), "arrsum:zero/"},
		{"one", ins(1, 7), "arrsum:one/positive/small"},
		{"twoPos", ins(2, 1, 2), "arrsum:two/positive/small"},
		{"twoNeg", ins(2, -1, -2), "arrsum:two/negative/small"},
		{"moreMixedLarge", ins(3, -50, 60, 1), "arrsum:more/mixed/large"},
		{"moreMixedAverage", ins(3, -10, 30, 2), "arrsum:more/mixed/average"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, err := spec.Classify(tc.ins, nil)
			if err != nil {
				if tc.name == "zero" {
					// n=0: type_of_elements has no matching choice
					// (poscount=negcount=0) — classification fails and
					// the debugger falls back to the user. Accept.
					return
				}
				t.Fatalf("classify: %v", err)
			}
			if !strings.HasPrefix(f.Code(), strings.TrimSuffix(tc.want, "/")) {
				t.Errorf("frame = %s, want prefix %s", f.Code(), tc.want)
			}
		})
	}
}

func TestDefaultFeatures(t *testing.T) {
	env := tgen.DefaultFeatures(ins(3, -50, 60, 1, 999)) // 999 beyond n
	if !interp.ValuesEqual(env["n"], interp.IntV(3)) {
		t.Errorf("n = %v", env["n"])
	}
	if !interp.ValuesEqual(env["poscount"], interp.IntV(2)) || !interp.ValuesEqual(env["negcount"], interp.IntV(1)) {
		t.Errorf("counts = %v/%v", env["poscount"], env["negcount"])
	}
	if !interp.ValuesEqual(env["spread"], interp.IntV(110)) {
		t.Errorf("spread = %v, want 110 (999 must be ignored beyond n)", env["spread"])
	}
	if !interp.ValuesEqual(env["total"], interp.IntV(11)) {
		t.Errorf("total = %v, want 11", env["total"])
	}
}

func arrsumGen(f *tgen.Frame) ([]interp.Value, bool) {
	var vals []int64
	var n int64
	switch f.Choices[0].Name {
	case "zero":
		n = 0
	case "one":
		n, vals = 1, []int64{5}
	case "two":
		n = 2
		if f.Choices[1].Name == "negative" {
			vals = []int64{-3, -4}
		} else {
			vals = []int64{3, 4}
		}
	case "more":
		n = 3
		switch {
		case f.Choices[1].Name == "positive":
			vals = []int64{2, 3, 4}
		case f.Choices[1].Name == "negative":
			vals = []int64{-2, -3, -4}
		case f.Choices[2].Name == "large":
			vals = []int64{-50, 60, 1}
		default: // average
			vals = []int64{-10, 30, 2}
		}
	}
	return []interp.Value{interp.ArrV(mkArray(vals...)), interp.IntV(n), interp.IntV(0)}, true
}

func arrsumCheck(f *tgen.Frame, ci *interp.CallInfo) bool {
	a, _ := ci.Ins[0].Value.AsArray()
	n, _ := ci.Ins[1].Value.AsInt()
	var want int64
	for i := int64(0); i < n; i++ {
		iv, _ := a.Elems[i].AsInt()
		want += iv
	}
	got, _ := ci.Outs[0].Value.AsInt()
	return got == want
}

func TestRunnerAllPass(t *testing.T) {
	prog := parser.MustParse("t.pas", paper.ArrsumProgram)
	info, err := sem.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	spec := arrsumSpec(t)
	r := &tgen.Runner{Info: info, Spec: spec, Gen: arrsumGen, Chk: arrsumCheck}
	db, err := r.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	pass, total := db.PassCount()
	if total != 8 || pass != 8 {
		t.Errorf("pass/total = %d/%d, want 8/8", pass, total)
	}
}

func TestReportDBRoundTrip(t *testing.T) {
	db := tgen.NewReportDB("arrsum")
	db.Add(&tgen.Report{Frame: "arrsum:two/positive/small", Pass: true, Scripts: []string{"script_2"}})
	db.Add(&tgen.Report{Frame: "arrsum:more/mixed/large", Pass: false, Note: "wrong sum"})
	path := filepath.Join(t.TempDir(), "reports.json")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := tgen.LoadReportDB(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Unit != "arrsum" || len(loaded.Reports) != 2 {
		t.Fatalf("loaded = %+v", loaded)
	}
	if r := loaded.Lookup("arrsum:more/mixed/large"); r == nil || r.Pass || r.Note != "wrong sum" {
		t.Errorf("report = %+v", r)
	}
	if _, err := tgen.LoadReportDB(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("expected error for missing file")
	}
}

// TestLookupIntegration is the paper's Section 5.3.2 path: the arrsum
// call in the sqrtest trace classifies into a tested frame with a
// passing report, so the debugger skips the query.
func TestLookupIntegration(t *testing.T) {
	// Build the report DB from the (correct) arrsum.
	aprog := parser.MustParse("a.pas", paper.ArrsumProgram)
	ainfo, err := sem.Analyze(aprog)
	if err != nil {
		t.Fatal(err)
	}
	spec := arrsumSpec(t)
	runner := &tgen.Runner{Info: ainfo, Spec: spec, Gen: arrsumGen, Chk: arrsumCheck}
	db, err := runner.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	lookup := &tgen.Lookup{Spec: spec, DB: db}

	// Trace sqrtest and judge its arrsum node.
	sprog := parser.MustParse("s.pas", paper.Sqrtest)
	sinfo, err := sem.Analyze(sprog)
	if err != nil {
		t.Fatal(err)
	}
	res := exectree.Trace(sinfo, "")
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	var arrsumNode, decNode *exectree.Node
	res.Tree.Walk(func(n *exectree.Node) bool {
		switch n.Unit.Name {
		case "arrsum":
			arrsumNode = n
		case "decrement":
			decNode = n
		}
		return true
	})
	if v := lookup.Judge(arrsumNode); v != debugger.Correct {
		t.Errorf("arrsum judged %v, want Correct (frame two/positive/small passed)", v)
	}
	if v := lookup.Judge(decNode); v != debugger.DontKnow {
		t.Errorf("decrement judged %v, want DontKnow (different unit)", v)
	}
	if lookup.Hits != 1 {
		t.Errorf("hits = %d", lookup.Hits)
	}
}

func TestFailingReportYieldsIncorrect(t *testing.T) {
	spec := arrsumSpec(t)
	db := tgen.NewReportDB("arrsum")
	db.Add(&tgen.Report{Frame: "arrsum:two/positive/small", Pass: false})
	lookup := &tgen.Lookup{Spec: spec, DB: db}

	sprog := parser.MustParse("s.pas", paper.Sqrtest)
	sinfo, err := sem.Analyze(sprog)
	if err != nil {
		t.Fatal(err)
	}
	res := exectree.Trace(sinfo, "")
	var arrsumNode *exectree.Node
	res.Tree.Walk(func(n *exectree.Node) bool {
		if n.Unit.Name == "arrsum" {
			arrsumNode = n
		}
		return true
	})
	if v := lookup.Judge(arrsumNode); v != debugger.Incorrect {
		t.Errorf("judged %v, want Incorrect for failing frame report", v)
	}
}

// TestMenuLookup: classification fails (empty array matches no
// type_of_elements choice), so the menu chooser supplies the frame.
func TestMenuLookup(t *testing.T) {
	spec := arrsumSpec(t)
	db := tgen.NewReportDB("arrsum")
	db.Add(&tgen.Report{Frame: "arrsum:zero/positive/small", Pass: true})

	chooser := tgen.ChooserFunc(func(unit string, cat *tgen.Category, eligible []*tgen.Choice, ins []interp.Binding) *tgen.Choice {
		// A scripted "user": pick zero/positive/small.
		want := map[string]string{
			"size_of_array":    "zero",
			"type_of_elements": "positive",
			"deviation":        "small",
		}[cat.Name]
		for _, ch := range eligible {
			if ch.Name == want {
				return ch
			}
		}
		return nil
	})
	m := &tgen.MenuLookup{Lookup: tgen.Lookup{Spec: spec, DB: db}, Chooser: chooser}

	// A call with n = 0: auto-classification fails.
	node := nodeWithIns(t, ins(0))
	if v := m.Judge(node); v != debugger.Correct {
		t.Fatalf("menu judge = %v, want Correct", v)
	}
	if m.MenuInteractions != 3 {
		t.Errorf("menu interactions = %d, want 3 (one per category)", m.MenuInteractions)
	}
	// A classifiable call must not hit the menu.
	m.MenuInteractions = 0
	db.Add(&tgen.Report{Frame: "arrsum:two/positive/small", Pass: true})
	if v := m.Judge(nodeWithIns(t, ins(2, 1, 2))); v != debugger.Correct {
		t.Error("classifiable call not answered")
	}
	if m.MenuInteractions != 0 {
		t.Errorf("menu used despite automatic classification")
	}
}

// TestMenuLookupDeclines: a chooser that declines leaves the verdict
// unknown.
func TestMenuLookupDeclines(t *testing.T) {
	spec := arrsumSpec(t)
	db := tgen.NewReportDB("arrsum")
	m := &tgen.MenuLookup{
		Lookup:  tgen.Lookup{Spec: spec, DB: db},
		Chooser: tgen.ChooserFunc(func(string, *tgen.Category, []*tgen.Choice, []interp.Binding) *tgen.Choice { return nil }),
	}
	if v := m.Judge(nodeWithIns(t, ins(0))); v != debugger.DontKnow {
		t.Errorf("declined menu = %v, want DontKnow", v)
	}
}

// nodeWithIns fabricates an execution-tree node for the arrsum unit with
// the given input bindings, by tracing the arrsum program and patching
// the bindings (simplest way to get a well-formed *exectree.Node).
func nodeWithIns(t *testing.T, bindings []interp.Binding) *exectree.Node {
	t.Helper()
	prog := parser.MustParse("t.pas", paper.ArrsumProgram)
	info, err := sem.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	res := exectree.Trace(info, "0 ")
	var node *exectree.Node
	res.Tree.Walk(func(n *exectree.Node) bool {
		if n.Unit.Name == "arrsum" {
			node = n
		}
		return true
	})
	if node == nil {
		t.Fatal("arrsum not traced")
	}
	node.Ins = bindings
	return node
}

func TestRunnerDetectsBuggyUnit(t *testing.T) {
	// arrsum with an off-by-one loop bound fails the "more" frames.
	buggy := `
program arrtest;
type
  intarray = array [1 .. 100] of integer;
var
  a: intarray;
  n, b: integer;

procedure arrsum(a: intarray; n: integer; var b: integer);
var i: integer;
begin
  b := 0;
  for i := 1 to n - 1 do (* bug: misses the last element *)
    b := b + a[i];
end;

begin
  read(n);
  arrsum(a, n, b);
  writeln(b);
end.`
	prog := parser.MustParse("t.pas", buggy)
	info, err := sem.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	spec := arrsumSpec(t)
	runner := &tgen.Runner{Info: info, Spec: spec, Gen: arrsumGen, Chk: arrsumCheck}
	db, err := runner.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	pass, total := db.PassCount()
	if total != 8 {
		t.Fatalf("total = %d", total)
	}
	// Only the zero frame sums correctly (empty sum).
	if pass != 1 {
		t.Errorf("pass = %d, want 1 (only the zero frame)", pass)
	}
}
