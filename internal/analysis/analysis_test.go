package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

const grammarSrc = `package p

func f() {
	_ = 1 //ar:exempt(determinism) order cannot reach simulated state
	_ = 2
	_ = 3
	_ = 4 //ar:exempt reviewed: applies to every analyzer scope
	_ = 5
}
`

// passOver type-checks src and builds a pass for a throwaway analyzer.
func passOver(t *testing.T, src string, sink *[]Diagnostic) *Pass {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fix.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	pkg, err := (&types.Config{}).Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	a := &Analyzer{Name: "test", Doc: "test analyzer"}
	return NewPass(a, fset, []*ast.File{f}, pkg, info, sink)
}

// posOnLine returns a position on the given 1-based line of the pass's file.
func posOnLine(p *Pass, line int) token.Pos {
	tf := p.Fset.File(p.Files[0].Pos())
	return tf.LineStart(line)
}

func TestExemptionSuppression(t *testing.T) {
	var diags []Diagnostic
	p := passOver(t, grammarSrc, &diags)
	cases := []struct {
		line       int
		scope      string
		suppressed bool
		why        string
	}{
		{4, "determinism", true, "scoped exemption on its own line"},
		{5, "determinism", true, "scoped exemption covers the next line"},
		{6, "determinism", false, "two lines below is out of range"},
		{4, "hotpath", false, "scope mismatch must not suppress"},
		{7, "hotpath", true, "unscoped exemption covers every scope"},
		{8, "hotpath", true, "unscoped exemption covers the next line too"},
	}
	for _, c := range cases {
		diags = diags[:0]
		p.Reportf(posOnLine(p, c.line), c.scope, "finding")
		if got := len(diags) == 0; got != c.suppressed {
			t.Errorf("line %d scope %s: suppressed=%v, want %v (%s)",
				c.line, c.scope, got, c.suppressed, c.why)
		}
	}
}

func TestMalformedExemptionReported(t *testing.T) {
	src := `package p

func f() {
	_ = 1 //ar:exempt
	_ = 2 //ar:exempt(hotpath)
	_ = 3 //ar:exempt(unterminated scope never closes
}
`
	var diags []Diagnostic
	passOver(t, src, &diags)
	if len(diags) != 3 {
		t.Fatalf("got %d diagnostics, want 3 (two missing reasons, one "+
			"unterminated scope):\n%v", len(diags), diags)
	}
	for _, d := range diags[:2] {
		if !strings.Contains(d.Message, "requires a reason") {
			t.Errorf("missing-reason diagnostic says %q", d.Message)
		}
	}
	if !strings.Contains(diags[2].Message, "unterminated scope") {
		t.Errorf("unterminated-scope diagnostic says %q", diags[2].Message)
	}
}

func TestIsHotAnnotated(t *testing.T) {
	src := `package p

//ar:hotpath
func hot() {}

// cold is ordinary.
func cold() {}

// doc line first.
//
//ar:hotpath
func alsoHot() {}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fix.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"hot": true, "cold": false, "alsoHot": true}
	for _, d := range f.Decls {
		fd := d.(*ast.FuncDecl)
		if got := IsHotAnnotated(fd); got != want[fd.Name.Name] {
			t.Errorf("IsHotAnnotated(%s) = %v, want %v", fd.Name.Name, got, want[fd.Name.Name])
		}
	}
}

func TestHasKernelMark(t *testing.T) {
	var diags []Diagnostic
	marked := passOver(t, "//ar:kernel\npackage p\n", &diags)
	if !marked.HasKernelMark() {
		t.Error("file with //ar:kernel not recognized")
	}
	plain := passOver(t, "package p\n", &diags)
	if plain.HasKernelMark() {
		t.Error("unmarked file reported as kernel")
	}
}
