// Package lint is the routing stack's domain-specific static-analysis
// framework. It exists because the repo's load-bearing guarantees —
// byte-identical parallel DRC/verify and detailed routing for any worker
// count, and the zero-allocation A* hot path — are geometric invariants
// that differential tests can only catch after a regression is written.
// The analyzers here reject the hazard classes at the source level:
// unseeded randomness and wall-clock reads in deterministic packages
// (detrand), order-sensitive map iteration (mapiter), raw float equality
// in the geometry kernels (floateq), goroutines launched outside the
// sanctioned internal/pool fan-out (barego), and allocating constructs in
// functions annotated //rdl:noalloc and the helpers they reach (noalloc).
//
// The framework is stdlib only: go/parser + go/ast for syntax, go/types
// with the source importer for name resolution. Intentional exceptions
// are acknowledged in the source with
//
//	//rdl:allow <analyzer> <reason>
//
// on the flagged line or the line directly above it. A suppression
// without a written reason is itself a finding, and so is a suppression
// that no longer matches anything — deleting the code a //rdl:allow was
// covering makes the stale comment fail the build, so the inventory of
// exceptions can only shrink deliberately.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Finding is one analyzer hit.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String formats a finding the way the rdllint driver prints it.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// Analyzer is one lint pass. Exactly one of Run and RunModule is set:
// Run makes the analyzer package-local (one invocation per package, the
// original model), RunModule makes it interprocedural (one invocation
// over the whole loaded module, with every package's call sites visible
// at once — the model noalloc's call-graph walk needs).
type Analyzer struct {
	// Name is the identifier used in findings and //rdl:allow comments.
	Name string
	// Doc is a one-paragraph description for `rdllint -list` and doc/LINT.md.
	Doc string
	// Scope lists the module-relative package directories the analyzer
	// applies to. Nil means every package in the module. Module-level
	// analyzers ignore Scope: their whole point is crossing package
	// boundaries, and they confine themselves through the annotations
	// (//rdl:noalloc roots) rather than through directory lists.
	Scope []string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
	// RunModule inspects the whole module at once.
	RunModule func(*ModulePass)
}

// AppliesTo reports whether the analyzer's scope covers the package with
// the given import path inside the module with the given path.
func (a *Analyzer) AppliesTo(modulePath, pkgPath string) bool {
	if a.Scope == nil {
		return true
	}
	for _, s := range a.Scope {
		if pkgPath == modulePath+"/"+s {
			return true
		}
	}
	return false
}

// Pass carries one analyzer run over one type-checked package.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	analyzer string
	out      *[]Finding
}

// Report records a finding at the position.
func (p *Pass) Report(pos token.Pos, msg string) {
	*p.out = append(*p.out, Finding{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.analyzer,
		Message:  msg,
	})
}

// Reportf records a formatted finding at the position.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(pos, fmt.Sprintf(format, args...))
}

// ModulePass carries one module-level analyzer run over a loaded module.
type ModulePass struct {
	Mod *Module

	analyzer string
	out      *[]Finding
}

// Report records a finding at the position.
func (p *ModulePass) Report(pos token.Pos, msg string) {
	*p.out = append(*p.out, Finding{
		Pos:      p.Mod.Fset.Position(pos),
		Analyzer: p.analyzer,
		Message:  msg,
	})
}

// Reportf records a formatted finding at the position.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(pos, fmt.Sprintf(format, args...))
}

// RunPackage applies the analyzers to one loaded package, honours the
// //rdl:allow suppressions in its files, and returns the surviving
// findings plus the suppression-hygiene findings (missing reasons, unused
// allows) in canonical order. Scopes are NOT consulted — the caller
// decides which analyzers apply (the module driver filters by scope, the
// fixture tests run an analyzer directly).
func RunPackage(pkg *Package, analyzers []*Analyzer) []Finding {
	raw := runAnalyzers(pkg, analyzers)
	// Module-level analyzers see the fixture package as a one-package
	// module, so the interprocedural passes are testable on standalone
	// fixture directories exactly like the package-local ones.
	syn := &Module{Root: pkg.Dir, Path: pkg.Path, Fset: pkg.Fset, Pkgs: []*Package{pkg}}
	runModuleAnalyzers(syn, analyzers, &raw)
	allows := collectAllows(pkg.Fset, pkg.Files)
	out := applyAllows(raw, allows, analyzerNames(analyzers))
	sortFindings(out)
	return out
}

// runAnalyzers collects raw package-local findings with no suppression
// applied. Module-level analyzers are skipped; runModuleAnalyzers covers
// them.
func runAnalyzers(pkg *Package, analyzers []*Analyzer) []Finding {
	var out []Finding
	for _, a := range analyzers {
		if a.Run == nil {
			continue
		}
		pass := &Pass{
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			analyzer: a.Name,
			out:      &out,
		}
		a.Run(pass)
	}
	return out
}

// runModuleAnalyzers appends the raw findings of every module-level
// analyzer in the list.
func runModuleAnalyzers(m *Module, analyzers []*Analyzer, out *[]Finding) {
	for _, a := range analyzers {
		if a.RunModule == nil {
			continue
		}
		a.RunModule(&ModulePass{Mod: m, analyzer: a.Name, out: out})
	}
}

func analyzerNames(analyzers []*Analyzer) map[string]bool {
	names := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		names[a.Name] = true
	}
	return names
}

// sortFindings orders findings by file, line, column, analyzer, message —
// a total order, so driver output is stable run to run.
func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}
