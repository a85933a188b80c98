// Package analysis is a self-contained reimplementation of the core of
// golang.org/x/tools/go/analysis, built only on the standard library so the
// repository's static checkers (cmd/arlint) need no network access and no
// external modules. It provides the Analyzer/Pass/Diagnostic model, the
// repository's `//ar:` annotation grammar, and diagnostic plumbing shared by
// the three invariant checkers (determinism, hotpath, hashcov).
//
// # Annotation grammar
//
//	//ar:hotpath
//	    On a function's doc comment: the function (and everything it calls
//	    statically within its package) is under the allocs/op ceiling; the
//	    hotpath analyzer flags allocation and boxing inside it.
//
//	//ar:exempt <reason>
//	//ar:exempt(<scope>) <reason>
//	    Suppresses diagnostics on the annotated line and on the line
//	    directly below it (so the comment may sit on its own line above the
//	    code it exempts, or trail it). The reason string is mandatory — an
//	    exemption without one is itself a diagnostic. The optional scope
//	    restricts the exemption to one diagnostic class ("determinism",
//	    "hotpath", "hash", "validate"); without a scope the exemption
//	    applies to every analyzer. Prefer fixing over exempting:
//	    an exemption is a reviewed claim that the flagged construct cannot
//	    affect simulated results (see DESIGN.md "Static invariants").
//
//	//ar:prefix(<scope>) <reason>
//	    Declares a Config field deliberately excluded from PrefixHash, the
//	    checkpoint content-address (enforced by hashcov's PrefixHash
//	    coverage check). Unlike //ar:exempt, the scope is mandatory: it
//	    names the exclusion class (e.g. "cycle-inert" — the field bounds
//	    how many cycles run but can never alter what any executed cycle
//	    computes). The reason is mandatory too. The annotation covers its
//	    own line and the line directly below it, like //ar:exempt.
//
//	//ar:kernel
//	    File-level marker opting the file's package into the determinism
//	    checks outside the built-in kernel package list (used by analyzer
//	    test fixtures).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one static check, run once per package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and CLI output.
	Name string
	// Doc is the one-paragraph description shown by `arlint -help`.
	Doc string
	// Run executes the check against one package and reports findings
	// through the pass. A nil error with zero reports means the package is
	// clean.
	Run func(*Pass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags    *[]Diagnostic
	exempts  map[string][]exemption // filename -> parsed //ar:exempt comments
	prefixes map[string][]exemption // filename -> parsed //ar:prefix comments
}

// Diagnostic is one reported violation.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	// Scope classifies the finding for scoped exemptions; it is one of the
	// scope tokens of the annotation grammar.
	Scope   string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// exemption is one parsed //ar:exempt comment.
type exemption struct {
	line   int    // line the comment sits on
	scope  string // "" = every scope
	reason string
}

const (
	exemptPrefix = "ar:exempt"
	prefixMark   = "ar:prefix"
	hotPrefix    = "ar:hotpath"
	kernelMark   = "ar:kernel"
)

// NewPass assembles a pass over a type-checked package and parses the
// exemption annotations of every file. Malformed exemptions (no reason
// string; for //ar:prefix, also no scope) are reported immediately, before
// the analyzer runs.
func NewPass(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, sink *[]Diagnostic) *Pass {
	p := &Pass{
		Analyzer:  a,
		Fset:      fset,
		Files:     files,
		Pkg:       pkg,
		TypesInfo: info,
		diags:     sink,
		exempts:   make(map[string][]exemption),
		prefixes:  make(map[string][]exemption),
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				var mark string
				var into map[string][]exemption
				switch {
				case strings.HasPrefix(text, exemptPrefix):
					mark, into = "//"+exemptPrefix, p.exempts
				case strings.HasPrefix(text, prefixMark):
					mark, into = "//"+prefixMark, p.prefixes
				default:
					continue
				}
				pos := fset.Position(c.Pos())
				rest := strings.TrimPrefix(text, mark[2:])
				scope := ""
				if strings.HasPrefix(rest, "(") {
					end := strings.Index(rest, ")")
					if end < 0 {
						p.emit(Diagnostic{Pos: pos, Analyzer: a.Name, Scope: "grammar",
							Message: "malformed " + mark + ": unterminated scope parenthesis"})
						continue
					}
					scope = rest[1:end]
					rest = rest[end+1:]
				} else if mark == "//"+prefixMark {
					p.emit(Diagnostic{Pos: pos, Analyzer: a.Name, Scope: "grammar",
						Message: "//ar:prefix requires a (scope) naming the exclusion class, e.g. //ar:prefix(cycle-inert)"})
					continue
				}
				reason := strings.TrimSpace(rest)
				if reason == "" {
					p.emit(Diagnostic{Pos: pos, Analyzer: a.Name, Scope: "grammar",
						Message: mark + " requires a reason string explaining why the construct is safe"})
					continue
				}
				into[pos.Filename] = append(into[pos.Filename],
					exemption{line: pos.Line, scope: scope, reason: reason})
			}
		}
	}
	return p
}

// Reportf records a diagnostic at pos unless an in-scope //ar:exempt
// annotation covers its line.
func (p *Pass) Reportf(pos token.Pos, scope, format string, args ...interface{}) {
	position := p.Fset.Position(pos)
	for _, ex := range p.exempts[position.Filename] {
		if (ex.scope == "" || ex.scope == scope) &&
			(ex.line == position.Line || ex.line == position.Line-1) {
			return
		}
	}
	p.emit(Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Scope:    scope,
		Message:  fmt.Sprintf(format, args...),
	})
}

// PrefixExempt reports whether an //ar:prefix annotation covers the line
// at pos (the annotation's own line or the line directly below it, the
// same window Reportf gives //ar:exempt). The annotation's scope is a
// classification, not a filter: any //ar:prefix on the line silences the
// PrefixHash coverage check for it.
func (p *Pass) PrefixExempt(pos token.Pos) bool {
	position := p.Fset.Position(pos)
	for _, ex := range p.prefixes[position.Filename] {
		if ex.line == position.Line || ex.line == position.Line-1 {
			return true
		}
	}
	return false
}

func (p *Pass) emit(d Diagnostic) { *p.diags = append(*p.diags, d) }

// HasKernelMark reports whether any file of the pass carries the
// //ar:kernel marker comment.
func (p *Pass) HasKernelMark() bool {
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.TrimSpace(strings.TrimPrefix(c.Text, "//")) == kernelMark {
					return true
				}
			}
		}
	}
	return false
}

// IsHotAnnotated reports whether the function declaration carries the
// //ar:hotpath marker in its doc comment.
func IsHotAnnotated(decl *ast.FuncDecl) bool {
	if decl.Doc == nil {
		return false
	}
	for _, c := range decl.Doc.List {
		t := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if t == hotPrefix || strings.HasPrefix(t, hotPrefix+" ") {
			return true
		}
	}
	return false
}

// Unit is one loaded, type-checked package ready for analysis.
type Unit struct {
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
}

// Run applies every analyzer to every unit and returns the merged, sorted,
// deduplicated diagnostics. Identical findings reported by more than one
// analyzer (the shared grammar checks) collapse to one line.
func Run(units []*Unit, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, u := range units {
		for _, a := range analyzers {
			pass := NewPass(a, u.Fset, u.Files, u.Pkg, u.TypesInfo, &diags)
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, u.Pkg.Path(), err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Message < b.Message
	})
	out := diags[:0]
	for i, d := range diags {
		if i > 0 && d.Pos == diags[i-1].Pos && d.Message == diags[i-1].Message {
			continue
		}
		out = append(out, d)
	}
	return out, nil
}

// TypeName returns a type's name qualified relative to pkg (imported types
// keep their package name), for diagnostics.
func TypeName(t types.Type, pkg *types.Package) string {
	return types.TypeString(t, types.RelativeTo(pkg))
}
