// Package analysis is the repo's static-invariant framework: a small,
// stdlib-only core in the shape of golang.org/x/tools/go/analysis (the
// container image this repo builds in has no module proxy access, so
// the x/tools dependency is deliberately reimplemented rather than
// pinned), plus the loader and runner behind the cmd/whvet
// multichecker.
//
// The invariance and golden tests prove determinism for the handful of
// configurations they sample; the
// analyzers under internal/analysis/* prove, at the source level, that
// no call site can violate the invariants those gates check — see
// DESIGN.md §11 for the invariant catalogue.
//
// Legitimate exceptions are annotated in source with
//
//	//whvet:allow <check> <reason>
//
// on the flagged line, the line above it, or in the doc comment of the
// enclosing declaration (which allows the whole declaration). The
// reason is mandatory, and a directive naming an unknown check is
// itself a finding — a typoed suppression must never silently disable
// enforcement.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer is one static check: a name (the directive grammar's check
// identifier), a one-line contract, and the per-package Run function.
type Analyzer struct {
	// Name identifies the check in findings and in //whvet:allow
	// directives. Lowercase, no spaces.
	Name string
	// Doc is the one-line invariant statement shown by whvet's usage.
	Doc string
	// Run inspects one package and reports diagnostics via the Pass.
	Run func(*Pass) error
}

// Pass carries everything an Analyzer may inspect about one package:
// the parsed files (with comments), the type-checked package and its
// types.Info, the transitive import set, and the full set of
// type-checked packages in the load (for cross-package type lookups
// like the obs.Recorder interface).
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// PkgPath is the package's import path (Pkg.Path(), repeated here
	// so scope decisions read without nil checks).
	PkgPath string
	// Deps holds the package's transitive import paths, standard
	// library included. It answers "does net/http link into this
	// package?" without any AST work.
	Deps map[string]bool
	// AllPkgs maps import path -> type-checked package for every
	// module package in the load (dependencies included), so analyzers
	// can resolve well-known types such as obs.Recorder.
	AllPkgs map[string]*types.Package
	// DepsOf returns the transitive import closure of any package in
	// the load (standard library included), or nil when the path is
	// unknown. It is the whole-graph complement to Deps.
	DepsOf func(importPath string) map[string]bool

	report func(Diagnostic)
}

// Diagnostic is one finding before directive suppression.
type Diagnostic struct {
	Pos     token.Pos
	Message string
	// NoAllow marks a diagnostic that //whvet:allow must not suppress:
	// the nohttp analyzer uses it for link-boundary violations outside
	// the sanctioned entry points, where an allowlist entry would be a
	// policy change, not an exception.
	NoAllow bool
}

// Report emits d against the pass's analyzer.
func (p *Pass) Report(d Diagnostic) { p.report(d) }

// Reportf emits a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// ReportNoAllow emits a formatted diagnostic that allow directives
// cannot suppress.
func (p *Pass) ReportNoAllow(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...), NoAllow: true})
}

// SimScope reports whether pkgPath is one of the simulation/export
// packages whose behaviour feeds compared artifacts — the scope the
// determinism analyzers (nodeterm, maprange) enforce over. It covers
// every internal package and the experiments registry, minus the two
// deliberate exceptions:
//
//   - internal/obs/introspect serves live wall-clock HTTP and is, by
//     design, the one place the link boundary ends (see nohttp);
//   - internal/analysis itself (the checker is not a simulator).
//
// Fixture packages under a testdata/src/ tree are always in scope so
// the analysistest suites exercise the checks without configuration.
func SimScope(pkgPath string) bool {
	if strings.Contains(pkgPath, "/testdata/src/") {
		return true
	}
	switch {
	case strings.HasPrefix(pkgPath, "warehousesim/internal/obs/introspect"):
		return false
	case strings.HasPrefix(pkgPath, "warehousesim/internal/analysis"):
		return false
	case strings.HasPrefix(pkgPath, "warehousesim/internal/"):
		return true
	case pkgPath == "warehousesim/experiments":
		return true
	}
	return false
}

// TypeOf returns the static type of e, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if tv, ok := p.Info.Types[e]; ok {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := p.Info.ObjectOf(id); obj != nil {
			return obj.Type()
		}
	}
	return nil
}
