package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/tools/rainbowlint/internal/analysis"
)

// Bodycheck machine-checks the wire-body conventions the codec layer
// depends on (one versioned layout per body):
//
//   - every type with AppendTo/DecodeFrom methods (a wire.Body
//     implementation, detected structurally) is registered with
//     RegisterBody in its declaring package, so the typed decoder can
//     construct it;
//   - hand-rolled encoders open with a version byte and their decoders
//     check it (pure AppendJSON/DecodeJSON bodies are exempt — those
//     helpers write and check the version byte themselves);
//   - the AppendTo field sequence and the DecodeFrom field sequence match
//     in order and wire type, including repeated groups (a count followed
//     by a loop) and reads guarded by presence checks, which are compared
//     inline.
//
// As a registry-completeness side check, a package that declares a
// kindNames map over its MsgKind constants must name every constant.
//
// Encoders the walker cannot model (unexpected statement forms) are
// skipped silently rather than guessed at; the shapes below cover every
// encoder in the tree.
var Bodycheck = &analysis.Analyzer{
	Name: "bodycheck",
	Doc: "checks wire.Body registration, version bytes, and encode/decode symmetry\n" +
		"AppendTo and DecodeFrom field sequences must match in order and type;\n" +
		"every body needs a RegisterBody entry; hand-rolled bodies need versions.",
	Run: runBodycheck,
}

// encodeHelpers maps append-helper names to wire op kinds.
var encodeHelpers = map[string]string{
	"appendUvarint": "uvarint",
	"appendVarint":  "varint",
	"appendBool":    "bool",
	"appendString":  "string",
	"appendTx":      "tx",
	"appendTS":      "ts",
	"appendBallot":  "ballot",
	"AppendJSON":    "json",
}

// decodeHelpers maps bodyReader method (and DecodeJSON) names to op kinds.
var decodeHelpers = map[string]string{
	"version":    "version",
	"byte":       "byte",
	"bool":       "bool",
	"uvarint":    "uvarint",
	"varint":     "varint",
	"str":        "string",
	"count":      "uvarint",
	"tx":         "tx",
	"ts":         "ts",
	"ballot":     "ballot",
	"DecodeJSON": "json",
}

// bodyOp is one encoded/decoded field, or a repeated group.
type bodyOp struct {
	kind string
	pos  token.Pos
	loop []bodyOp
}

func (o bodyOp) String() string {
	if o.kind == "loop" {
		parts := make([]string, len(o.loop))
		for i, in := range o.loop {
			parts[i] = in.String()
		}
		return "[" + strings.Join(parts, " ") + "]"
	}
	return o.kind
}

func opsString(ops []bodyOp) string {
	parts := make([]string, len(ops))
	for i, o := range ops {
		parts[i] = o.String()
	}
	return strings.Join(parts, " ")
}

// bodyDecl collects one type's codec methods.
type bodyDecl struct {
	named      *types.Named
	appendTo   *ast.FuncDecl
	decodeFrom *ast.FuncDecl
}

func runBodycheck(pass *analysis.Pass) error {
	bodies := map[*types.Named]*bodyDecl{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || fn.Body == nil {
				continue
			}
			obj, _ := pass.TypesInfo.Defs[fn.Name].(*types.Func)
			if obj == nil {
				continue
			}
			sig := obj.Type().(*types.Signature)
			named := namedOf(sig.Recv().Type())
			if named == nil {
				continue
			}
			switch {
			case fn.Name.Name == "AppendTo" && isAppendToSig(sig):
				body(bodies, named).appendTo = fn
			case fn.Name.Name == "DecodeFrom" && isDecodeFromSig(sig):
				body(bodies, named).decodeFrom = fn
			}
		}
	}

	registered := registeredBodyTypes(pass)
	for named, b := range bodies {
		if b.appendTo == nil || b.decodeFrom == nil {
			continue // not a Body; one-sided helpers are someone else's type
		}
		if !registered[named] {
			pass.Reportf(b.appendTo.Name.Pos(),
				"wire body %s is not registered with RegisterBody; the typed decoder cannot construct it",
				named.Obj().Name())
		}
		checkBodySymmetry(pass, named.Obj().Name(), b)
	}

	checkKindNames(pass)
	return nil
}

func body(m map[*types.Named]*bodyDecl, n *types.Named) *bodyDecl {
	if m[n] == nil {
		m[n] = &bodyDecl{named: n}
	}
	return m[n]
}

func isAppendToSig(sig *types.Signature) bool {
	return sig.Params().Len() == 1 && sig.Results().Len() == 1 &&
		isByteSlice(sig.Params().At(0).Type()) && isByteSlice(sig.Results().At(0).Type())
}

func isDecodeFromSig(sig *types.Signature) bool {
	return sig.Params().Len() == 1 && sig.Results().Len() == 1 &&
		isByteSlice(sig.Params().At(0).Type()) &&
		types.Identical(sig.Results().At(0).Type(), types.Universe.Lookup("error").Type())
}

func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// registeredBodyTypes collects every named type constructed inside a
// RegisterBody(...) call anywhere in the package.
func registeredBodyTypes(pass *analysis.Pass) map[*types.Named]bool {
	out := map[*types.Named]bool{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || calleeName(call) != "RegisterBody" {
				return true
			}
			for _, arg := range call.Args {
				ast.Inspect(arg, func(m ast.Node) bool {
					switch m := m.(type) {
					case *ast.CompositeLit:
						if named := namedOf(pass.TypesInfo.Types[m].Type); named != nil {
							out[named] = true
						}
					case *ast.CallExpr:
						if id, ok := m.Fun.(*ast.Ident); ok && id.Name == "new" && len(m.Args) == 1 {
							if named := namedOf(pass.TypesInfo.Types[m].Type); named != nil {
								out[named] = true
							}
						}
					}
					return true
				})
			}
			return true
		})
	}
	return out
}

func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// checkBodySymmetry compares the encode and decode field sequences.
func checkBodySymmetry(pass *analysis.Pass, name string, b *bodyDecl) {
	enc, encOK := encodeOps(pass, b.appendTo)
	dec, decOK := decodeOps(pass, b.decodeFrom)
	if !encOK || !decOK {
		return // unmodelable shape; stay silent rather than guess
	}

	// Pure-JSON bodies: the helpers own the version byte.
	if len(enc) == 1 && enc[0].kind == "json" {
		if !(len(dec) == 1 && dec[0].kind == "json") {
			pass.Reportf(b.decodeFrom.Name.Pos(),
				"%s: AppendTo is pure JSON but DecodeFrom reads {%s}", name, opsString(dec))
		}
		return
	}

	if len(enc) == 0 || enc[0].kind != "version" {
		pass.Reportf(b.appendTo.Name.Pos(),
			"%s: AppendTo does not open with a version byte (append a constant first; the decoder's version gate depends on it)", name)
	} else {
		enc = enc[1:]
	}
	if len(dec) == 0 || dec[0].kind != "version" {
		pass.Reportf(b.decodeFrom.Name.Pos(),
			"%s: DecodeFrom does not read the version byte first (call r.version())", name)
	} else {
		dec = dec[1:]
	}
	compareOps(pass, name, b, enc, dec)
}

func compareOps(pass *analysis.Pass, name string, b *bodyDecl, enc, dec []bodyOp) {
	for i := 0; i < len(enc) && i < len(dec); i++ {
		e, d := enc[i], dec[i]
		if e.kind != d.kind {
			pass.Reportf(d.pos,
				"%s: field #%d mismatch: AppendTo writes %s but DecodeFrom reads %s (full sequences: {%s} vs {%s})",
				name, i+1, e.String(), d.String(), opsString(enc), opsString(dec))
			return
		}
		if e.kind == "loop" {
			compareOps(pass, name, b, e.loop, d.loop)
		}
	}
	if len(enc) != len(dec) {
		pass.Reportf(b.decodeFrom.Name.Pos(),
			"%s: AppendTo writes %d fields {%s} but DecodeFrom reads %d {%s}",
			name, len(enc), opsString(enc), len(dec), opsString(dec))
	}
}

// ---- encode-side extraction ----

type encWalker struct {
	pass       *analysis.Pass
	buf        types.Object // the AppendTo buffer parameter
	ok         bool
	sawVersion bool
}

func encodeOps(pass *analysis.Pass, fn *ast.FuncDecl) ([]bodyOp, bool) {
	params := fn.Type.Params.List
	if len(params) != 1 || len(params[0].Names) != 1 {
		return nil, false
	}
	buf := pass.TypesInfo.Defs[params[0].Names[0]]
	if buf == nil {
		return nil, false
	}
	w := &encWalker{pass: pass, buf: buf, ok: true}
	ops := w.stmts(fn.Body.List)
	return ops, w.ok
}

func (w *encWalker) stmts(list []ast.Stmt) []bodyOp {
	var ops []bodyOp
	for _, s := range list {
		if !w.ok {
			return nil
		}
		switch s := s.(type) {
		case *ast.AssignStmt:
			for _, rhs := range s.Rhs {
				ops = append(ops, w.chain(rhs)...)
			}
		case *ast.ReturnStmt:
			for _, res := range s.Results {
				ops = append(ops, w.chain(res)...)
			}
		case *ast.IfStmt:
			// Encoders only branch on presence (len > 0); the wire
			// sequence is unconditional, so inline both arms.
			if s.Init != nil {
				ops = append(ops, w.stmts([]ast.Stmt{s.Init})...)
			}
			ops = append(ops, w.stmts(s.Body.List)...)
			switch e := s.Else.(type) {
			case *ast.BlockStmt:
				ops = append(ops, w.stmts(e.List)...)
			case *ast.IfStmt:
				ops = append(ops, w.stmts([]ast.Stmt{e})...)
			}
		case *ast.ForStmt:
			ops = append(ops, w.loop(s.Body, s.Pos())...)
		case *ast.RangeStmt:
			ops = append(ops, w.loop(s.Body, s.Pos())...)
		case *ast.BlockStmt:
			ops = append(ops, w.stmts(s.List)...)
		case *ast.ExprStmt, *ast.DeclStmt:
			// Side work (sort.Strings, temp slices) encodes nothing.
		default:
			w.ok = false
		}
	}
	return ops
}

func (w *encWalker) loop(body *ast.BlockStmt, pos token.Pos) []bodyOp {
	inner := w.stmts(body.List)
	if len(inner) == 0 {
		return nil
	}
	return []bodyOp{{kind: "loop", pos: pos, loop: inner}}
}

// chain extracts the ops of a nested append chain rooted at the buffer
// parameter, e.g. appendBool(appendTx(buf, tx), ok) -> [tx bool].
func (w *encWalker) chain(e ast.Expr) []bodyOp {
	if !w.chainRootsAtBuf(e) {
		return nil
	}
	return w.chainOps(e)
}

func (w *encWalker) chainRootsAtBuf(e ast.Expr) bool {
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.Ident:
			return w.pass.TypesInfo.Uses[v] == w.buf || w.pass.TypesInfo.Defs[v] == w.buf
		case *ast.CallExpr:
			if !w.isEncodeCall(v) || len(v.Args) == 0 {
				return false
			}
			e = v.Args[0]
		default:
			return false
		}
	}
}

func (w *encWalker) isEncodeCall(call *ast.CallExpr) bool {
	name := calleeName(call)
	if name == "append" {
		if id, ok := call.Fun.(*ast.Ident); ok {
			if _, isBuiltin := w.pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
				return true
			}
		}
		return false
	}
	_, ok := encodeHelpers[name]
	return ok
}

func (w *encWalker) chainOps(e ast.Expr) []bodyOp {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return nil // the bare buf ident at the chain root
	}
	ops := w.chainOps(call.Args[0])
	name := calleeName(call)
	if name == "append" {
		if call.Ellipsis != token.NoPos {
			w.ok = false // raw blob append: not a modeled body shape
			return nil
		}
		for _, arg := range call.Args[1:] {
			kind := "byte"
			if tv := w.pass.TypesInfo.Types[arg]; tv.Value != nil && !w.sawVersion {
				kind = "version"
				w.sawVersion = true
			}
			ops = append(ops, bodyOp{kind: kind, pos: arg.Pos()})
		}
		return ops
	}
	return append(ops, bodyOp{kind: encodeHelpers[name], pos: call.Pos()})
}

// ---- decode-side extraction ----

type decWalker struct {
	pass *analysis.Pass
	ok   bool
}

func decodeOps(pass *analysis.Pass, fn *ast.FuncDecl) ([]bodyOp, bool) {
	w := &decWalker{pass: pass, ok: true}
	ops := w.stmts(fn.Body.List)
	return ops, w.ok
}

func (w *decWalker) stmts(list []ast.Stmt) []bodyOp {
	var ops []bodyOp
	for _, s := range list {
		if !w.ok {
			return nil
		}
		switch s := s.(type) {
		case *ast.IfStmt:
			// Version gates and presence checks: the reads inside happen
			// on the current-version wire, so inline them.
			if s.Init != nil {
				ops = append(ops, w.scan(s.Init)...)
			}
			ops = append(ops, w.scan(s.Cond)...)
			ops = append(ops, w.stmts(s.Body.List)...)
			switch e := s.Else.(type) {
			case *ast.BlockStmt:
				ops = append(ops, w.stmts(e.List)...)
			case *ast.IfStmt:
				ops = append(ops, w.stmts([]ast.Stmt{e})...)
			}
		case *ast.ForStmt:
			var inner []bodyOp
			if s.Init != nil {
				inner = append(inner, w.scan(s.Init)...)
			}
			inner = append(inner, w.stmts(s.Body.List)...)
			if len(inner) > 0 {
				ops = append(ops, bodyOp{kind: "loop", pos: s.Pos(), loop: inner})
			}
		case *ast.RangeStmt:
			inner := w.stmts(s.Body.List)
			if len(inner) > 0 {
				ops = append(ops, bodyOp{kind: "loop", pos: s.Pos(), loop: inner})
			}
		case *ast.BlockStmt:
			ops = append(ops, w.stmts(s.List)...)
		case *ast.AssignStmt, *ast.ExprStmt, *ast.ReturnStmt, *ast.DeclStmt:
			ops = append(ops, w.scan(s)...)
		default:
			w.ok = false
		}
	}
	return ops
}

// scan collects reader-method calls from a non-control node in source
// order.
func (w *decWalker) scan(n ast.Node) []bodyOp {
	var ops []bodyOp
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			w.ok = false
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := calleeName(call)
		kind, ok := decodeHelpers[name]
		if !ok {
			return true
		}
		// Reader ops are methods (r.str()) or the DecodeJSON helper; plain
		// calls to unrelated same-named functions don't exist in codec
		// code, and fixtures follow the same naming.
		ops = append(ops, bodyOp{kind: kind, pos: call.Pos()})
		return true
	})
	return ops
}

// ---- kindNames completeness ----

// checkKindNames verifies that a package-level kindNames map literal
// covers every constant of the MsgKind type declared in the package.
func checkKindNames(pass *analysis.Pass) {
	kindType, _ := pass.Pkg.Scope().Lookup("MsgKind").(*types.TypeName)
	if kindType == nil {
		return
	}
	var lit *ast.CompositeLit
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			vs, ok := n.(*ast.ValueSpec)
			if !ok {
				return true
			}
			for i, name := range vs.Names {
				if name.Name == "kindNames" && i < len(vs.Values) {
					if cl, ok := vs.Values[i].(*ast.CompositeLit); ok {
						lit = cl
					}
				}
			}
			return true
		})
	}
	if lit == nil {
		return
	}
	named := map[types.Object]bool{}
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if id, ok := ast.Unparen(kv.Key).(*ast.Ident); ok {
			named[pass.TypesInfo.Uses[id]] = true
		}
	}
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || namedOf(c.Type()) == nil || namedOf(c.Type()).Obj() != kindType {
			continue
		}
		if !named[c] {
			pass.Reportf(c.Pos(), "MsgKind constant %s has no kindNames entry; kindNames must cover every kind", name)
		}
	}
}
