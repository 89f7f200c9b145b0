package analysis

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/types/typeutil"
)

// DetPureAnalyzer forbids ambient nondeterminism inside the
// deterministic packages: wall-clock reads, the global math/rand
// source, environment lookups, and select statements that race
// multiple ready cases. Every simulation input must flow from the
// seeded per-trial RNGs and the Config, or two runs of the same seed
// stop being bit-identical.
//
// Subchecks (pragma targets): wallclock, globalrand, env, select.
// The legitimate wall-clock sites — the TCP hub's socket deadlines and
// poll timeouts — bound how long a call waits, never what a simulation
// computes, and carry //iacvet:allow detpure:wallclock pragmas saying so.
var DetPureAnalyzer = &analysis.Analyzer{
	Name: "detpure",
	Doc: "forbid ambient nondeterminism (time.Now, global math/rand, os.Getenv, " +
		"multi-ready select) in deterministic packages",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      runDetPure,
}

// globalRandOK lists math/rand package-level functions that do NOT
// touch the global source: constructors for explicitly seeded
// generators, which are exactly what the deterministic packages use.
var globalRandOK = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true, // takes an explicit *Rand
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true, // math/rand/v2
}

func runDetPure(pass *analysis.Pass) (any, error) {
	if !inPackages(pass.Pkg.Path(), detPackages) {
		return nil, nil
	}
	ps := collectPragmas(pass)
	insp := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	insp.Preorder([]ast.Node{(*ast.CallExpr)(nil), (*ast.SelectStmt)(nil)}, func(n ast.Node) {
		if isTestFilePos(pass, n) {
			return
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			checkDetPureCall(pass, ps, n)
		case *ast.SelectStmt:
			ready := 0
			for _, c := range n.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
					ready++
				}
			}
			if ready >= 2 {
				ps.reportf(n.Pos(), "detpure", "select",
					"select with %d communication cases picks a pseudorandom ready case; in a deterministic package restructure to a fixed polling order, or annotate //iacvet:allow detpure:select <reason>",
					ready)
			}
		}
	})
	return nil, nil
}

func checkDetPureCall(pass *analysis.Pass, ps *pragmas, call *ast.CallExpr) {
	fn := typeutil.Callee(pass.TypesInfo, call)
	f, ok := fn.(*types.Func)
	if !ok || f.Pkg() == nil {
		return
	}
	name := f.Name()
	switch f.Pkg().Path() {
	case "time":
		switch name {
		case "Now", "Since", "Until":
			ps.reportf(call.Pos(), "detpure", "wallclock",
				"time.%s in deterministic package %s: wall-clock reads may feed metrics only, never simulation state; annotate //iacvet:allow detpure:wallclock <reason> if this site qualifies",
				name, pass.Pkg.Path())
		}
	case "os":
		switch name {
		case "Getenv", "LookupEnv", "Environ":
			ps.reportf(call.Pos(), "detpure", "env",
				"os.%s in deterministic package %s: environment lookups make runs machine-dependent; plumb the value through Config, or annotate //iacvet:allow detpure:env <reason>",
				name, pass.Pkg.Path())
		}
	case "math/rand", "math/rand/v2":
		// Methods on *rand.Rand are the seeded per-trial generators and
		// are fine; only package-level draws hit the shared global
		// source, whose stream is unseedable per trial and races across
		// goroutines.
		if f.Signature().Recv() == nil && !globalRandOK[name] {
			ps.reportf(call.Pos(), "detpure", "globalrand",
				"%s.%s uses the global rand source: draw from the trial's seeded *rand.Rand instead, or annotate //iacvet:allow detpure:globalrand <reason>",
				f.Pkg().Path(), name)
		}
	}
}
