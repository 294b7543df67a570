// Package crashsafelocks defines an analyzer for the lock discipline that
// PR 3's torture harness enforced at runtime: under a crash sweep, every media
// op can panic (a simulated crash unwinds the stack), so a mutex or MGL
// lock must never be held across a media op unless its unlock is deferred —
// otherwise the panic leaks the lock to the surviving workers. PR 3 fixed
// three such leaks (directory.create, DropSnapshot x2) found only by a
// 200-point torture sweep; this analyzer catches the shape at vet time.
//
// A "crash point" is classified by the summary engine (DESIGN.md §15): a
// direct nvm.Device media-op call, or a call to any function — same package
// or not — whose effect summary says it transitively performs one. Only a
// callee with no summary at all (an interface method, or a function behind
// dynamic dispatch) falls back to the *sim.Ctx-parameter approximation.
// Locks are recognized by method name (Lock/RLock/LockLazy acquire,
// Unlock/RUnlock release) paired by receiver expression. A Lock whose
// release is neither in this function (by receiver) nor in a callee (by
// lock class, per the callee's Releases summary) is an intentional
// acquire-and-escape handoff (e.g. lockOp/release) and is not tracked.
// Suppress a finding with //mgsp:crash-locked <justification>.
package crashsafelocks

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

const doc = `check that locks are not held across crash-injection points without a deferred unlock

Under a crash sweep a media op may panic mid-operation; a non-deferred unlock on
the same path then leaks the lock. Use defer, or a locked closure around the
media-op section. Suppress with //mgsp:crash-locked <justification>.`

var Analyzer = &analysis.Analyzer{
	Name:       "crashsafelocks",
	Doc:        doc,
	Requires:   []*analysis.Analyzer{ctrlflow.Analyzer, summary.Analyzer},
	Run:        run,
	ResultType: reflect.TypeOf((*mgspmatch.Directives)(nil)),
}

func isAcquire(name string) bool { return summary.IsBlockingAcquire(name) }
func isRelease(name string) bool { return summary.IsRelease(name) }

// lockMethod returns the method name if call is any acquire/release lock
// method call, with a non-empty receiver key.
func lockMethod(info *types.Info, call *ast.CallExpr) (name, recv string) {
	fn := mgspmatch.Callee(info, call)
	if fn == nil {
		return "", ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", ""
	}
	n := fn.Name()
	if !isAcquire(n) && !isRelease(n) {
		return "", ""
	}
	return n, mgspmatch.RecvKey(call)
}

func run(pass *analysis.Pass) (interface{}, error) {
	dirs := mgspmatch.ParseDirectives(pass.Fset, pass.Files)
	if mgspmatch.PkgPathIs(pass.Pkg.Path(), "nvm") ||
		mgspmatch.PkgPathIs(pass.Pkg.Path(), "sim") {
		// The device and simulator implement the crash machinery itself.
		return dirs, nil
	}
	cfgs := pass.ResultOf[ctrlflow.Analyzer].(*ctrlflow.CFGs)
	sum := pass.ResultOf[summary.Analyzer].(*summary.Result)

	// releasesClass reports whether call's callee transitively releases the
	// lock class cls (a release helper standing in for a direct Unlock).
	releasesClass := func(c *ast.CallExpr, cls string) bool {
		if cls == "" {
			return false
		}
		s := sum.CallSummary(c)
		if s == nil {
			return false
		}
		for _, rel := range s.Releases {
			if rel == cls {
				return true
			}
		}
		return false
	}

	check := func(g *cfg.CFG, deferred map[string]bool) {
		if g == nil {
			return
		}
		// Receivers with a non-deferred release in this function — directly,
		// or through a callee whose summary releases the receiver's lock
		// class. Acquires of anything else are handoffs to the caller.
		released := make(map[string]bool)
		classOf := make(map[string]string)
		for _, b := range g.Blocks {
			for _, c := range cfgscan.Calls(b) {
				if n, recv := lockMethod(pass.TypesInfo, c); recv != "" {
					if isRelease(n) {
						released[recv] = true
					}
					if sel, ok := ast.Unparen(c.Fun).(*ast.SelectorExpr); ok {
						classOf[recv] = summary.LockClass(pass.TypesInfo, sel.X)
					}
				}
			}
		}
		for _, b := range g.Blocks {
			for i, call := range cfgscan.Calls(b) {
				name, recv := lockMethod(pass.TypesInfo, call)
				if !isAcquire(name) || recv == "" || deferred[recv] {
					continue
				}
				cls := classOf[recv]
				if !released[recv] {
					// No local unlock: still tracked when a callee releases
					// the class on this function's behalf; otherwise handoff.
					calleeReleases := false
					for _, b2 := range g.Blocks {
						for _, c2 := range cfgscan.Calls(b2) {
							if releasesClass(c2, cls) {
								calleeReleases = true
							}
						}
					}
					if !calleeReleases {
						continue
					}
				}
				hit := cfgscan.ReachableAfter(g, cfgscan.Pos{Block: b, Index: i}, func(c *ast.CallExpr) cfgscan.Class {
					if n, r := lockMethod(pass.TypesInfo, c); isRelease(n) && r == recv {
						return cfgscan.Stop
					}
					if releasesClass(c, cls) {
						return cfgscan.Stop
					}
					if sum.IsCrashPoint(c) {
						return cfgscan.Hit
					}
					return cfgscan.Continue
				})
				if hit == nil {
					continue
				}
				what := "media op"
				if fn := mgspmatch.Callee(pass.TypesInfo, hit); fn != nil {
					what = fn.Name()
				}
				msg := fmt.Sprintf("%s.%s held across potential crash point %s without a deferred unlock: a crash-injection panic leaks the lock; defer %s.Unlock or wrap the section in a locked closure",
					recv, name, what, recv)
				suppressed := dirs.Suppress(call.Pos(), mgspmatch.CrashLocked)
				vetreport.Report(pass, sum.ReportPath, call.Pos(), msg, suppressed)
			}
		}
	}

	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					check(cfgs.FuncDecl(n), deferredUnlocks(pass.TypesInfo, n.Body))
				}
			case *ast.FuncLit:
				check(cfgs.FuncLit(n), deferredUnlocks(pass.TypesInfo, n.Body))
			}
			return true
		})
	}
	return dirs, nil
}

// deferredUnlocks returns the receiver keys released by defer statements of
// body (directly, or inside an immediately deferred closure), excluding
// defers of nested function literals that are not themselves the deferred
// call.
func deferredUnlocks(info *types.Info, body *ast.BlockStmt) map[string]bool {
	out := make(map[string]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // closures run elsewhere; their defers are theirs
		case *ast.DeferStmt:
			if name, recv := lockMethod(info, n.Call); isRelease(name) && recv != "" {
				out[recv] = true
			}
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				// defer func() { ...; mu.Unlock() }() — releases at exit.
				ast.Inspect(lit.Body, func(m ast.Node) bool {
					if c, ok := m.(*ast.CallExpr); ok {
						if name, recv := lockMethod(info, c); isRelease(name) && recv != "" {
							out[recv] = true
						}
					}
					return true
				})
			}
			return false
		}
		return true
	})
	return out
}
