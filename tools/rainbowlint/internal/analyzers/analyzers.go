// Package analyzers holds rainbowlint's project-specific checks. Each
// analyzer encodes one invariant the repo otherwise maintains by review:
//
//   - bodycheck:  wire.Body encode/decode symmetry, version bytes, registry
//   - errcompare: errors.Is instead of ==/!= against sentinel errors
//   - spanfinish: trace spans/actives finished on every path
//   - gateorder:  checkpoint-gate discipline and sorted shard-lock order
//
// The analyzers are structural: they recognize the *shapes* the codebase
// uses (helper names, receiver types, call patterns), not hard-coded file
// paths, so golden-file fixtures under testdata exercise them without
// importing the real packages.
package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/tools/rainbowlint/internal/analysis"
)

// Suite returns every analyzer in reporting order.
func Suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		Bodycheck,
		Errcompare,
		Spanfinish,
		Gateorder,
	}
}

// namedOf unwraps pointers and aliases down to a named type, or nil.
func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, _ := t.(*types.Named)
	return n
}

// isTestFile reports whether the file's name ends in _test.go.
func isTestFile(pass *analysis.Pass, f *ast.File) bool {
	return strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go")
}

// methodCallName returns the selector name when e is a method/selector
// call, or "".
func methodCallName(e ast.Expr) string {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return ""
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	return sel.Sel.Name
}

// errorType is the universe error interface.
var errorType = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// implementsError reports whether t satisfies the error interface.
func implementsError(t types.Type) bool {
	return t != nil && types.Implements(t, errorType)
}

// allowedByDirective reports whether the line containing pos carries a
// `rainbowlint:allow <name>` comment, the per-site escape hatch for
// deliberate violations (e.g. a test asserting a sentinel is wrapped).
// Every use should say why on the same line.
func allowedByDirective(pass *analysis.Pass, pos token.Pos, name string) bool {
	for _, f := range pass.Files {
		if f.Pos() > pos || pos > f.End() {
			continue
		}
		line := pass.Fset.Position(pos).Line
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if pass.Fset.Position(c.Pos()).Line == line &&
					strings.Contains(c.Text, "rainbowlint:allow "+name) {
					return true
				}
			}
		}
	}
	return false
}
