// Package determinism enforces the bit-for-bit reproducibility contract
// of DESIGN.md §3–§5: the kernels promise identical results for
// identical inputs across runs, exec modes, rank counts and worker
// counts, so the kernel packages must not consult any
// nondeterministically ordered or time-varying source.
//
// Inside the kernel packages (dist, pagerank, sparse, xsort, ckpt,
// kronecker — which writes kernel 0's edges — fastio — whose striped
// streams carry every out-of-core edge, so their order is the files'
// bytes — and serve, whose staged artifact cache hands one computed
// artifact to many runs, so any nondeterminism there fans out), non-test
// code may not:
//
//   - range over a map (iteration order feeds results in nondeterministic
//     order);
//   - call time.Now or time.Since (wall-clock values must not reach
//     results; the one legitimate timing site carries a justified
//     //prlint:allow directive);
//   - import math/rand or math/rand/v2 (randomness comes from the
//     deterministic seeded streams in internal/xrand);
//   - start a raw goroutine (concurrency goes through internal/workteam's
//     Team or ordered Ring, or the rank fabric, whose join points pin the
//     result order; the fabric's own spawn sites carry justified
//     directives).
//
// In _test.go files of every package, t.Run/b.Run inside a range over a
// map is flagged: subtests would run in nondeterministic order, which
// breaks -run selection stability and diff-ability of verbose logs.
package determinism

import (
	"go/ast"
	"go/types"
	"strconv"

	"repro/internal/analysis"
)

// kernelPkgs are the package names under the reproducibility contract.
var kernelPkgs = map[string]bool{
	"dist": true, "pagerank": true, "sparse": true, "xsort": true, "ckpt": true,
	"kronecker": true, "fastio": true, "serve": true,
}

// Analyzer is the determinism checker.
var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc:  "DESIGN.md §3–§5: kernel packages must stay bit-for-bit deterministic (no map ranges, wall clock, math/rand, or raw goroutines); subtests must not be driven from map iteration",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	kernel := kernelPkgs[pass.Pkg.Name()]
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			checkSubtests(pass, f)
			continue
		}
		if !kernel {
			continue
		}
		checkImports(pass, f)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				if isMapType(pass.TypesInfo.TypeOf(n.X)) {
					pass.Reportf(n.Pos(), "range over a map in kernel package %s: iteration order is nondeterministic and may feed results (DESIGN.md §3)", pass.Pkg.Name())
				}
			case *ast.CallExpr:
				if pass.PkgFuncCall(n, "time", "Now", "Since") {
					pass.Reportf(n.Pos(), "wall-clock read in kernel package %s: time values must not influence results (DESIGN.md §3)", pass.Pkg.Name())
				}
			case *ast.GoStmt:
				pass.Reportf(n.Pos(), "raw go statement in kernel package %s: spawn through internal/workteam or the rank fabric so the join order is pinned (DESIGN.md §5, §7)", pass.Pkg.Name())
			}
			return true
		})
	}
	return nil
}

func checkImports(pass *analysis.Pass, f *ast.File) {
	for _, imp := range f.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		if path == "math/rand" || path == "math/rand/v2" {
			pass.Reportf(imp.Pos(), "math/rand in kernel package %s: use the seeded deterministic streams in internal/xrand (DESIGN.md §3)", pass.Pkg.Name())
		}
	}
}

// checkSubtests flags t.Run/b.Run calls lexically inside a range over a
// map: the subtest execution order then varies run to run.
func checkSubtests(pass *analysis.Pass, f *ast.File) {
	var mapRanges []*ast.RangeStmt
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if isMapType(pass.TypesInfo.TypeOf(n.X)) {
				mapRanges = append(mapRanges, n)
			}
		case *ast.CallExpr:
			if !isSubtestRun(pass, n) {
				return true
			}
			for _, r := range mapRanges {
				if r.Body.Pos() <= n.Pos() && n.Pos() < r.Body.End() {
					pass.Reportf(n.Pos(), "subtest driven by map iteration: run order is nondeterministic; iterate sorted keys or a slice instead")
					return true
				}
			}
		}
		return true
	})
}

func isSubtestRun(pass *analysis.Pass, call *ast.CallExpr) bool {
	for _, recv := range []string{"T", "B"} {
		if sel, ok := pass.MethodCallOn(call, recv, "Run"); ok {
			if t := pass.TypesInfo.TypeOf(sel); t != nil {
				if n := deref(t); n != nil && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "testing" {
					return true
				}
			}
		}
	}
	return false
}

func deref(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}
