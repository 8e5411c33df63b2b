// Package hotpath guards the allocation discipline PR 3 and PR 8 paid
// for: functions annotated with a `//perf:hotpath` doc-comment line
// (the DES event loop, the pooled trial path, the flash-cache and
// Zipf samplers) are checked for the four regressions that silently
// reintroduce per-event allocation:
//
//   - closures: a func literal allocates its captured environment;
//     the pooled engines bind continuations once at setup instead.
//   - formatting: fmt.Sprintf/Sprint/Errorf and runtime string
//     concatenation allocate on every call. (Concatenation folded at
//     compile time — "a"+"b" — is exempt.) Panic messages on
//     never-taken guard paths are the classic legitimate exception;
//     annotate those lines with //whvet:allow hotpath <reason>.
//   - interface boxing: converting a non-pointer-shaped value (struct,
//     string, int, slice) to an interface heap-allocates the value.
//     Pointer-shaped conversions (pointers, channels, maps, funcs) are
//     free and stay unflagged.
//   - append growth: append in a loop onto a slice that was declared
//     in the same function without a capacity (var s []T, s := []T{},
//     make([]T, n)) reallocates O(log n) times; preallocate with
//     make(cap) or reuse a scratch buffer. Slices whose backing comes
//     from elsewhere (fields, parameters) are assumed pooled.
package hotpath

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"warehousesim/internal/analysis"
)

// Analyzer is the hotpath check.
var Analyzer = &analysis.Analyzer{
	Name: "hotpath",
	Doc:  "//perf:hotpath functions must not close over state, format, box into interfaces, or grow slices",
	Run:  run,
}

// Marker is the doc-comment line that opts a function into the check.
const Marker = "//perf:hotpath"

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !marked(fd) {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil
}

func marked(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if c.Text == Marker || strings.HasPrefix(c.Text, Marker+" ") {
			return true
		}
	}
	return false
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	name := fd.Name.Name
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "closure in hot path %s: a func literal allocates its environment per call; bind the continuation once at setup (see internal/cluster/trial.go)", name)
			return false // the literal's body is not the hot path's
		case *ast.CallExpr:
			checkCall(pass, fd, n)
		case *ast.BinaryExpr:
			checkConcat(pass, name, n)
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN {
				if t := pass.TypeOf(n.Lhs[0]); t != nil && isString(t) {
					pass.Reportf(n.Pos(), "string concatenation in hot path %s allocates per call", name)
				}
			}
		}
		return true
	})
	checkAppendGrowth(pass, fd)
}

func checkCall(pass *analysis.Pass, fd *ast.FuncDecl, call *ast.CallExpr) {
	name := fd.Name.Name
	// Formatting calls.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if obj := pass.Info.Uses[sel.Sel]; obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "fmt" {
			pass.Reportf(call.Pos(), "fmt.%s in hot path %s allocates (formatting state and boxed arguments) per call", obj.Name(), name)
			return
		}
	}
	// Interface boxing at the call boundary.
	sig := callSignature(pass, call)
	if sig == nil {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis != token.NoPos {
				continue // s... passes the slice through, no boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if boxes(pass, arg, pt) {
			pass.Reportf(arg.Pos(), "interface boxing in hot path %s: %s argument converts to %s and heap-allocates per call", name, typeLabel(pass, arg), pt)
		}
	}
}

func checkConcat(pass *analysis.Pass, name string, b *ast.BinaryExpr) {
	if b.Op != token.ADD {
		return
	}
	tv, ok := pass.Info.Types[b]
	if !ok || tv.Type == nil || !isString(tv.Type) {
		return
	}
	if tv.Value != nil {
		return // folded at compile time
	}
	pass.Reportf(b.Pos(), "string concatenation in hot path %s allocates per call; hoist or preformat it", name)
}

// checkAppendGrowth flags append-in-loop onto locally declared,
// capacity-less slices.
func checkAppendGrowth(pass *analysis.Pass, fd *ast.FuncDecl) {
	// Collect locals declared without capacity.
	noCap := make(map[types.Object]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				return true
			}
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				obj := pass.Info.ObjectOf(id)
				if obj == nil || !isSlice(obj.Type()) {
					continue
				}
				if declaredWithoutCap(n.Rhs[i]) {
					noCap[obj] = true
				}
			}
		case *ast.DeclStmt:
			gd, ok := n.Decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) != 0 {
					continue
				}
				for _, id := range vs.Names {
					if obj := pass.Info.ObjectOf(id); obj != nil && isSlice(obj.Type()) {
						noCap[obj] = true
					}
				}
			}
		}
		return true
	})
	if len(noCap) == 0 {
		return
	}
	// Flag appends to those locals inside loops.
	var inLoop func(n ast.Node, depth int)
	inLoop = func(n ast.Node, depth int) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.ForStmt:
				if m != n {
					inLoop(m.Body, depth+1)
					return false
				}
			case *ast.RangeStmt:
				if m != n {
					inLoop(m.Body, depth+1)
					return false
				}
			case *ast.CallExpr:
				if depth == 0 {
					return true
				}
				fn, ok := m.Fun.(*ast.Ident)
				if !ok || fn.Name != "append" || len(m.Args) == 0 {
					return true
				}
				if id, ok := m.Args[0].(*ast.Ident); ok && noCap[pass.Info.ObjectOf(id)] {
					pass.Reportf(m.Pos(), "append growth in hot path %s: %s was declared without capacity, so looped appends reallocate; preallocate with make(len=0, cap=n) or reuse a scratch slice", fd.Name.Name, id.Name)
				}
			}
			return true
		})
	}
	inLoop(fd.Body, 0)
}

// declaredWithoutCap reports whether rhs creates a slice with no
// useful capacity: nil-ish literals, empty composite literals, or
// 2-argument make.
func declaredWithoutCap(rhs ast.Expr) bool {
	switch rhs := rhs.(type) {
	case *ast.CompositeLit:
		return len(rhs.Elts) == 0
	case *ast.CallExpr:
		if fn, ok := rhs.Fun.(*ast.Ident); ok && fn.Name == "make" {
			return len(rhs.Args) < 3
		}
	case *ast.Ident:
		return rhs.Name == "nil"
	}
	return false
}

func callSignature(pass *analysis.Pass, call *ast.CallExpr) *types.Signature {
	t := pass.TypeOf(call.Fun)
	if t == nil {
		return nil
	}
	sig, _ := t.Underlying().(*types.Signature)
	return sig
}

// boxes reports whether passing arg to a parameter of type pt converts
// a non-pointer-shaped concrete value into an interface.
func boxes(pass *analysis.Pass, arg ast.Expr, pt types.Type) bool {
	if _, ok := pt.Underlying().(*types.Interface); !ok {
		return false
	}
	tv, ok := pass.Info.Types[arg]
	if !ok || tv.Type == nil {
		return false
	}
	if tv.IsNil() || tv.Value != nil {
		// Constants (nil included) either don't allocate or are
		// interned; the per-call cost the check hunts is boxing of
		// runtime values.
		return false
	}
	at := tv.Type
	if _, ok := at.Underlying().(*types.Interface); ok {
		return false // interface-to-interface, no new allocation
	}
	switch at.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false // pointer-shaped: fits the interface word
	}
	if at == types.Typ[types.UnsafePointer] {
		return false
	}
	return true
}

func typeLabel(pass *analysis.Pass, e ast.Expr) string {
	if t := pass.TypeOf(e); t != nil {
		return t.String()
	}
	return "value"
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isSlice(t types.Type) bool {
	_, ok := t.Underlying().(*types.Slice)
	return ok
}
