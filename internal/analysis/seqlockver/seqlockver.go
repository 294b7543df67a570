// Package seqlockver defines an analyzer for optimistic seqlock read
// sections (DESIGN.md §15.2): a reader loads the seqlock version word,
// checks parity, copies the protected data, and must re-load and compare
// the version AFTER the copy — a section that never re-validates returns
// torn data silently. Fields acting as seqlock versions are declared with
// //mgsp:seqlock on the field; only annotated fields are checked, because
// not every atomic version word is a seqlock. No field in the tree carries
// the annotation today (the frame cache is latched, DESIGN.md §13); the pass
// and its testdata keep the protocol checkable for the next one.
//
// For every section — an assignment v := x.ver.Load() of an annotated
// field to a local variable — the analyzer checks:
//
//   - some comparison of v against a fresh .Load() of the same field
//     exists (the re-validation); a version captured into a local and
//     never re-validated is reported at the capture;
//   - between the capture and the re-validation, no call may touch the
//     media, block on or try a lock, call a media-performing function
//     (interprocedurally, via the summary engine), or mutate shared state
//     through an atomic store — the section must be a pure copy, because
//     its reads are unsynchronized and its effects would not be rolled
//     back by a failed validation.
//
// Suppress with //mgsp:seqlock-ok <justification>.
package seqlockver

import (
	"fmt"
	"go/ast"
	"go/types"
	"reflect"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/ctrlflow"
	"golang.org/x/tools/go/cfg"

	"mgsp/internal/analysis/cfgscan"
	"mgsp/internal/analysis/mgspmatch"
	"mgsp/internal/analysis/summary"
	"mgsp/internal/analysis/vetreport"
)

const doc = `check optimistic read sections over //mgsp:seqlock version fields

A section starts at v := x.ver.Load() of an annotated field and must
re-validate (compare v against a fresh Load) after the copy; inside the
section no media op, lock acquire, or shared-state mutation may occur.
Suppress with //mgsp:seqlock-ok <justification>.`

var Analyzer = &analysis.Analyzer{
	Name:       "seqlockver",
	Doc:        doc,
	Requires:   []*analysis.Analyzer{ctrlflow.Analyzer, summary.Analyzer},
	Run:        run,
	ResultType: reflect.TypeOf((*mgspmatch.Directives)(nil)),
}

// atomicMutators are the method names that mutate through an atomic value.
var atomicMutators = map[string]bool{
	"Store": true, "Add": true, "Swap": true, "CompareAndSwap": true,
	"Or": true, "And": true,
}

func run(pass *analysis.Pass) (interface{}, error) {
	dirs := mgspmatch.ParseDirectives(pass.Fset, pass.Files)
	cfgs := pass.ResultOf[ctrlflow.Analyzer].(*ctrlflow.CFGs)
	sum := pass.ResultOf[summary.Analyzer].(*summary.Result)

	// seqlockLoad returns the annotated field var if call is field.Load()
	// on a //mgsp:seqlock field (possibly through a longer selector chain).
	seqlockLoad := func(call *ast.CallExpr) *types.Var {
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Load" || len(call.Args) != 0 {
			return nil
		}
		inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
		if !ok {
			return nil
		}
		if s, ok := pass.TypesInfo.Selections[inner]; ok && s.Kind() == types.FieldVal {
			if v, ok := s.Obj().(*types.Var); ok && sum.IsSeqlock(v) {
				return v
			}
		}
		return nil
	}

	check := func(g *cfg.CFG, body *ast.BlockStmt) {
		if g == nil {
			return
		}
		// Section starts: v := field.Load() with v a plain identifier.
		type section struct {
			v     *types.Var // captured version variable
			field *types.Var // the seqlock field
			call  *ast.CallExpr
		}
		var sections []section
		ast.Inspect(body, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false // literals get their own CFG visit below
			}
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
				return true
			}
			id, ok := as.Lhs[0].(*ast.Ident)
			if !ok {
				return true
			}
			call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
			if !ok {
				return true
			}
			field := seqlockLoad(call)
			if field == nil {
				return true
			}
			v, _ := pass.TypesInfo.Defs[id].(*types.Var)
			if v == nil {
				v, _ = pass.TypesInfo.Uses[id].(*types.Var)
			}
			if v != nil {
				sections = append(sections, section{v: v, field: field, call: call})
			}
			return true
		})

		// Re-validations: comparisons of the captured variable against a
		// fresh Load of the same field.
		validated := make(map[*types.Var]bool)
		ast.Inspect(body, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op.String() != "==" && be.Op.String() != "!=") {
				return true
			}
			for _, pair := range [][2]ast.Expr{{be.X, be.Y}, {be.Y, be.X}} {
				id, ok := ast.Unparen(pair[0]).(*ast.Ident)
				if !ok {
					continue
				}
				v, _ := pass.TypesInfo.Uses[id].(*types.Var)
				if v == nil {
					continue
				}
				call, ok := ast.Unparen(pair[1]).(*ast.CallExpr)
				if !ok {
					continue
				}
				if seqlockLoad(call) != nil {
					validated[v] = true
				}
			}
			return true
		})

		for _, s := range sections {
			if !validated[s.v] {
				msg := fmt.Sprintf("seqlock version %s captured into %s but never re-validated against a fresh Load after the copy: a torn optimistic read goes undetected",
					s.field.Name(), s.v.Name())
				suppressed := dirs.Suppress(s.call.Pos(), mgspmatch.SeqlockOK)
				vetreport.Report(pass, sum.ReportPath, s.call.Pos(), msg, suppressed)
				continue
			}
			p, ok := cfgscan.FindCall(g, s.call)
			if !ok {
				continue
			}
			// Walk the section: from the capture to the re-validating Load
			// of the same field (the Stop). Effects inside are reported.
			field := s.field
			hit := cfgscan.ReachableAfter(g, p, func(c *ast.CallExpr) cfgscan.Class {
				if seqlockLoad(c) == field {
					return cfgscan.Stop // re-validation point ends the section
				}
				if m := mgspmatch.DeviceMethod(pass.TypesInfo, c); m != "" && mgspmatch.DeviceMediaOps[m] {
					return cfgscan.Hit
				}
				if n, _ := summary.LockMethod(pass.TypesInfo, c); summary.IsBlockingAcquire(n) || summary.IsTryAcquire(n) {
					return cfgscan.Hit
				}
				if sel, ok := ast.Unparen(c.Fun).(*ast.SelectorExpr); ok && atomicMutators[sel.Sel.Name] && len(c.Args) > 0 {
					return cfgscan.Hit
				}
				if cs := sum.CallSummary(c); cs != nil && (cs.MediaOp || len(cs.AcqBlocking) > 0) {
					return cfgscan.Hit
				}
				return cfgscan.Continue
			})
			if hit != nil {
				what := "call"
				if fn := mgspmatch.Callee(pass.TypesInfo, hit); fn != nil {
					what = fn.Name()
				} else if sel, ok := ast.Unparen(hit.Fun).(*ast.SelectorExpr); ok {
					what = sel.Sel.Name
				}
				msg := fmt.Sprintf("%s inside the optimistic read section of seqlock %s (before re-validation): the section must be a pure copy — a failed validation cannot roll this back",
					what, field.Name())
				suppressed := dirs.Suppress(hit.Pos(), mgspmatch.SeqlockOK)
				vetreport.Report(pass, sum.ReportPath, hit.Pos(), msg, suppressed)
			}
		}
	}

	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					check(cfgs.FuncDecl(n), n.Body)
				}
			case *ast.FuncLit:
				check(cfgs.FuncLit(n), n.Body)
			}
			return true
		})
	}
	return dirs, nil
}
