// Package lint is the project-specific static-analysis framework behind
// cmd/atislint. It exists because the engine's correctness rests on a small
// set of concurrency and hot-path invariants — lock scope, frozen
// snapshots, pool Get/Put pairing, the telemetry fast-path guard — that
// code review keeps almost catching (the PR 2 Prometheus exporter iterated
// mutex-guarded maps after dropping the lock, a fatal race only visible
// under concurrent scrapes). Invariants of that kind must be enforced by
// tooling, not vigilance.
//
// The framework is deliberately small and built only on the standard
// library (go/parser, go/ast, go/types): the main module stays
// dependency-free. A UnitAnalyzer inspects one type-checked package (a
// Unit) and reports Diagnostics; a ProgramAnalyzer inspects the whole
// module at once through a Program — all units type-checked together plus
// a static call graph (program.go) — which is how the interprocedural
// checks (hotpath, immutsnapshot) follow an annotated kernel into its
// helpers. The loader in loader.go type-checks every package of the
// module, and ignore.go implements the
// `//lint:ignore <analyzer>[,<analyzer>...] <reason>` escape hatch.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Diagnostic is one finding: a position, the analyzer that produced it, and
// a message stating the violated invariant.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the diagnostic in the file:line:col style editors parse.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Unit is one type-checked package: the parse trees, the type information,
// and the package object. Test files are excluded — the invariants guard
// production code paths, and tests routinely poke at internals without
// locks.
type Unit struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// Dir is the package directory relative to the module root ("." for
	// the root package).
	Dir string
}

// Position resolves a token.Pos against the unit's file set.
func (u *Unit) Position(pos token.Pos) token.Position { return u.Fset.Position(pos) }

// Analyzer is one invariant checker. Every analyzer also implements either
// UnitAnalyzer (per-package inspection) or ProgramAnalyzer (whole-program,
// interprocedural inspection over the static call graph).
type Analyzer interface {
	// Name is the identifier used on the command line and in
	// //lint:ignore directives.
	Name() string
	// Doc is a one-line description of the invariant the analyzer guards.
	Doc() string
}

// UnitAnalyzer inspects one type-checked package at a time.
type UnitAnalyzer interface {
	Analyzer
	// Run inspects the unit and returns its findings. Suppression is the
	// driver's job; analyzers report everything they see.
	Run(u *Unit) []Diagnostic
}

// ProgramAnalyzer inspects the whole module at once: all units plus the
// static call graph. The driver builds the Program lazily, once, and shares
// it between program analyzers.
type ProgramAnalyzer interface {
	Analyzer
	// RunProgram inspects the program and returns its findings. As with
	// Run, suppression is the driver's job — except for hotpath's
	// edge-pruning reading of call-site ignores, which is documented on
	// that analyzer.
	RunProgram(p *Program) []Diagnostic
}

// Analyzers returns the full suite in stable order.
func Analyzers() []Analyzer {
	return []Analyzer{
		NewLockScope(),
		NewPoolPair(),
		NewRecorderGuard(),
		NewCtxCheck(),
		NewSpanEnd(),
		NewHotPath(),
		NewImmutSnapshot(),
	}
}

// Run applies every analyzer to the units, filters suppressed findings via
// the //lint:ignore directives in the units' files, and returns the
// remaining diagnostics sorted by position. Directives naming an analyzer
// outside the known suite produce their own "ignore" diagnostics: a typo in
// a suppression must not silently leave the finding live while looking
// handled.
func Run(units []*Unit, analyzers []Analyzer) []Diagnostic {
	known := make(map[string]bool)
	for _, a := range Analyzers() {
		known[a.Name()] = true
	}
	for _, a := range analyzers {
		known[a.Name()] = true
	}

	ignores := make(ignoreSet)
	for _, u := range units {
		collectIgnoresInto(ignores, u)
	}

	var prog *Program
	var out []Diagnostic
	for _, a := range analyzers {
		var diags []Diagnostic
		switch impl := a.(type) {
		case ProgramAnalyzer:
			if prog == nil {
				prog = NewProgram(units)
			}
			diags = impl.RunProgram(prog)
		case UnitAnalyzer:
			for _, u := range units {
				diags = append(diags, impl.Run(u)...)
			}
		}
		for _, d := range diags {
			if ignores.suppresses(d) {
				continue
			}
			out = append(out, d)
		}
	}
	out = append(out, ignores.unknownWarnings(known)...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// --- shared type helpers -------------------------------------------------

// mutexKind reports whether t is sync.Mutex or sync.RWMutex (possibly
// through a pointer); rw is true for RWMutex.
func mutexKind(t types.Type) (rw, ok bool) {
	if p, isPtr := t.Underlying().(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return false, false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false, false
	}
	switch obj.Name() {
	case "Mutex":
		return false, true
	case "RWMutex":
		return true, true
	}
	return false, false
}

// isSyncPool reports whether t is sync.Pool or *sync.Pool.
func isSyncPool(t types.Type) bool {
	if p, isPtr := t.Underlying().(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "Pool"
}

// rootIdent strips selector/index/star/paren chains down to the base
// identifier of an expression, or nil when the base is not an identifier
// (for example a call result).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// objectOf resolves an identifier to its object, looking in both Uses and
// Defs.
func objectOf(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}
