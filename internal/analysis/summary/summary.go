// Package summary is the interprocedural engine under mgspvet (DESIGN.md
// §15): a go/analysis Fact-based pass computing one effect summary per
// function — does it transitively touch the media, does every path through
// it cross a persist barrier, can it reach a commit sink before one, which
// lock classes does it acquire, escape with, or release — and exporting
// those summaries across package boundaries so the ordering analyzers
// (persistorder, lockorder, seqlockver, twostore) see
// through calls into other packages instead of approximating them.
//
// Effects are computed by fixpoint over the package's call graph on top of
// cfgscan's per-block call lists, with imported packages' summaries taken as
// ground truth (the driver analyzes dependencies first, so cross-package
// fixpoints are already closed). Immediately-invoked function literals get
// their own summaries; a call through a plain function value contributes no
// effects, and a call to an interface method or other summary-less concrete
// callee falls back to the *sim.Ctx-parameter heuristic for the media-op bit
// only — in this codebase ctx is threaded precisely through the operations
// that can issue media ops. That heuristic is the honest residue of dynamic
// dispatch; every static call edge uses a real summary.
//
// Lock classes are "TypeName.field" strings resolved from the receiver of a
// lock-method call (FS.mu, file.flushMu, node.lock, ...); index expressions
// collapse to their base (pubMu[a] is class metaLog.pubMu) and plain
// identifiers fall back to the variable name. Lock/RLock/LockLazy are
// blocking acquires (edge targets in the deadlock graph), TryLock/TryRLock/
// TryLockHint acquire without waiting (edge sources only), Unlock/RUnlock
// release.
//
// The pass also collects the declaration directives that parameterize the
// downstream analyzers: //mgsp:lock-order A < B < C (declared partial lock
// order), //mgsp:lock-order-self C (intra-class acquisition follows a
// protocol), //mgsp:lock-forbid C (this function must not transitively
// blocking-acquire C), and //mgsp:seqlock (this atomic field is a seqlock
// version word). Orders, self-exemptions, and the acquires-while-holding
// edge set are exported as a package fact so lockorder can detect cycles
// spanning packages.
package summary

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"reflect"
	"sort"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/ctrlflow"
	"golang.org/x/tools/go/cfg"

	"mgsp/internal/analysis/cfgscan"
	"mgsp/internal/analysis/mgspmatch"
)

// FnSummary is the per-function effect summary, exported as an object fact
// on every function whose effects are non-empty.
type FnSummary struct {
	// MediaOp: the function transitively performs an nvm.Device media op
	// and can therefore panic at a crash-injection fail point.
	MediaOp bool
	// BarrierCachedAll / BarrierNTAll: every entry-to-exit path crosses a
	// persist barrier strong enough for a pending cached Write
	// (Flush/Persist) resp. a pending non-temporal WriteNT (also Fence).
	BarrierCachedAll bool
	BarrierNTAll     bool
	// CommitBareCached / CommitBareNT: a commit sink (Store8/CAS8 or a
	// commit* callee) is reachable from entry before any barrier of the
	// respective strength — calling this function publishes.
	CommitBareCached bool
	CommitBareNT     bool
	// WriteBareCached / WriteBareNT: a Write resp. WriteNT can still be
	// pending (unbarriered) when the function returns.
	WriteBareCached bool
	WriteBareNT     bool
	// AcqBlocking: lock classes the function transitively blocking-acquires
	// (the edge targets a caller holding locks creates by calling it).
	AcqBlocking []string
	// AcqEscaping: lock classes possibly still held when the function
	// returns (acquire-and-escape handoffs).
	AcqEscaping []string
	// Releases: lock classes the function (transitively) releases, deferred
	// releases included.
	Releases []string
}

func (*FnSummary) AFact() {}

func (s *FnSummary) String() string {
	var parts []string
	flag := func(on bool, name string) {
		if on {
			parts = append(parts, name)
		}
	}
	flag(s.MediaOp, "media")
	flag(s.BarrierCachedAll, "barrier")
	flag(s.BarrierNTAll, "barrierNT")
	flag(s.CommitBareCached, "commitbare")
	flag(s.CommitBareNT, "commitbareNT")
	flag(s.WriteBareCached, "writebare")
	flag(s.WriteBareNT, "writebareNT")
	set := func(vs []string, name string) {
		if len(vs) > 0 {
			parts = append(parts, name+"("+strings.Join(vs, ",")+")")
		}
	}
	set(s.AcqBlocking, "acq")
	set(s.AcqEscaping, "escape")
	set(s.Releases, "release")
	if len(parts) == 0 {
		return "pure"
	}
	return strings.Join(parts, " ")
}

func (s *FnSummary) empty() bool {
	return !s.MediaOp && !s.BarrierCachedAll && !s.BarrierNTAll &&
		!s.CommitBareCached && !s.CommitBareNT && !s.WriteBareCached && !s.WriteBareNT &&
		len(s.AcqBlocking) == 0 && len(s.AcqEscaping) == 0 && len(s.Releases) == 0
}

// SeqlockVar marks a struct field annotated //mgsp:seqlock as a seqlock
// version word.
type SeqlockVar struct{}

func (*SeqlockVar) AFact()         {}
func (*SeqlockVar) String() string { return "seqlock" }

// Edge is one acquires-while-holding observation: at Pos (inside Fn), lock
// class To was blocking-acquired while From was held.
type Edge struct {
	From, To string
	Fn       string
	Pos      string // "file:line", pre-rendered so facts need no FileSet
}

// LocalEdge is an Edge observed in the package under analysis, with the
// acquire site's real token.Pos so lockorder can anchor diagnostics.
type LocalEdge struct {
	Edge
	TokPos token.Pos
}

// OrderPair is one declared ordering: Before must be acquired before After.
type OrderPair struct {
	Before, After string
	Pos           string
}

// PkgInfo aggregates a package's lock-order inputs for cross-package cycle
// detection: its observed edges and its declarations.
type PkgInfo struct {
	Edges  []Edge
	Order  []OrderPair
	SelfOK []string
}

func (*PkgInfo) AFact() {}

func (p *PkgInfo) String() string {
	return fmt.Sprintf("edges=%d order=%d", len(p.Edges), len(p.Order))
}

// Result is the in-memory view handed to dependent analyzers in the same
// package run: summary lookup closures (local results or imported facts),
// the shared call classifiers, and the merged lock-order declarations.
type Result struct {
	// ReportPath is the JSONL findings sink from -mgspsummary.report (empty
	// when no report is requested); dependent analyzers append every finding
	// — reported or suppressed — to it.
	ReportPath string

	// Fn returns the effect summary for a function: the local result for
	// package functions, the imported fact otherwise, nil when unknown.
	Fn func(*types.Func) *FnSummary
	// Lit returns the summary of a function literal in this package.
	Lit func(*ast.FuncLit) *FnSummary
	// IsSeqlock reports whether v is a //mgsp:seqlock-annotated field.
	IsSeqlock func(*types.Var) bool

	// PersistClass classifies a call as seen after a pending unflushed
	// write of kind write ("Write" or "WriteNT"): Stop for a sufficient
	// barrier, Hit for a commit sink, Continue otherwise.
	PersistClass func(call *ast.CallExpr, write string) cfgscan.Class
	// BarrierFor reports whether a call is a persist barrier sufficient
	// for a pending write of the given kind, directly or on every path of
	// its callee.
	BarrierFor func(call *ast.CallExpr, write string) bool
	// CallSummary resolves a call to its callee's effect summary (local,
	// imported, or immediately-invoked literal), or nil for dynamic calls.
	CallSummary func(call *ast.CallExpr) *FnSummary

	// Order, SelfOK: declared lock order and intra-class exemptions, local
	// declarations merged with every imported package's.
	Order  []OrderPair
	SelfOK map[string]bool
	// LocalEdges: acquires-while-holding edges observed in this package.
	// AllEdges: the same (position-string form) plus every imported
	// package's.
	LocalEdges []LocalEdge
	AllEdges   []Edge
}

const doc = `compute interprocedural per-function effect summaries for the mgspvet analyzers

Exports facts recording, per function: transitive media ops, persist-barrier
coverage, bare commit reachability, pending writes at exit, and lock-class
acquire/escape/release sets plus acquires-while-holding edges. The ordering
analyzers consume these instead of package-local approximations.`

var Analyzer = &analysis.Analyzer{
	Name:       "mgspsummary",
	Doc:        doc,
	Requires:   []*analysis.Analyzer{ctrlflow.Analyzer},
	Run:        run,
	ResultType: reflect.TypeOf((*Result)(nil)),
	FactTypes:  []analysis.Fact{(*FnSummary)(nil), (*SeqlockVar)(nil), (*PkgInfo)(nil)},
}

var reportFlag string

func init() {
	Analyzer.Flags.StringVar(&reportFlag, "report", "", "append every finding (reported or suppressed) as JSONL to this file")
	Analyzer.Flags.String("stamp", "", "opaque cache-busting token; a fresh value forces re-analysis so the report file is complete")
}

// IsBlockingAcquire / IsTryAcquire / IsRelease classify lock method names.
func IsBlockingAcquire(name string) bool {
	return name == "Lock" || name == "RLock" || name == "LockLazy"
}
func IsTryAcquire(name string) bool {
	return name == "TryLock" || name == "TryRLock" || name == "TryLockHint"
}
func IsRelease(name string) bool { return name == "Unlock" || name == "RUnlock" }

// LockMethod returns (method name, lock class) if call is a lock-method call
// with a resolvable receiver class, else ("", "").
func LockMethod(info *types.Info, call *ast.CallExpr) (name, class string) {
	fn := mgspmatch.Callee(info, call)
	if fn == nil {
		return "", ""
	}
	n := fn.Name()
	if !IsBlockingAcquire(n) && !IsTryAcquire(n) && !IsRelease(n) {
		return "", ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", ""
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	return n, LockClass(info, sel.X)
}

// LockClass resolves a lock expression to its "TypeName.field" class: the
// named type owning the selected field plus the field name, an index
// expression collapsing to its base, a plain identifier to the variable
// name. Unresolvable expressions return "".
func LockClass(info *types.Info, e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if s, ok := info.Selections[x]; ok && s.Kind() == types.FieldVal {
			if n := mgspmatch.Named(s.Recv()); n != nil {
				return n.Obj().Name() + "." + x.Sel.Name
			}
			return x.Sel.Name
		}
		if v, ok := info.Uses[x.Sel].(*types.Var); ok {
			return v.Name() // package-qualified variable
		}
		return ""
	case *ast.Ident:
		if v, ok := info.Uses[x].(*types.Var); ok {
			return v.Name()
		}
		return ""
	case *ast.IndexExpr:
		return LockClass(info, x.X)
	case *ast.StarExpr:
		return LockClass(info, x.X)
	}
	return ""
}

// fnInfo is the per-function analysis state.
type fnInfo struct {
	fn       *types.Func  // nil for function literals
	lit      *ast.FuncLit // nil for declarations
	g        *cfg.CFG
	body     *ast.BlockStmt
	deferRel   map[string]bool // classes released by defer at exit
	deferCalls []*ast.CallExpr // calls that run at function exit (defers)
	sum        FnSummary
	// set-valued effects are kept as maps during the fixpoint and
	// flattened into sum at the end
	acqBlocking, acqEscaping, releases map[string]bool
}

type engine struct {
	pass  *analysis.Pass
	byObj map[*types.Func]*fnInfo
	byLit map[*ast.FuncLit]*fnInfo
	fns   []*fnInfo
	edges []LocalEdge
}

func run(pass *analysis.Pass) (interface{}, error) {
	cfgs := pass.ResultOf[ctrlflow.Analyzer].(*ctrlflow.CFGs)
	dirs := mgspmatch.ParseDirectives(pass.Fset, pass.Files)
	e := &engine{
		pass:  pass,
		byObj: make(map[*types.Func]*fnInfo),
		byLit: make(map[*ast.FuncLit]*fnInfo),
	}

	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body == nil {
					return true
				}
				fn, _ := pass.TypesInfo.Defs[n.Name].(*types.Func)
				if fn == nil {
					return true
				}
				fi := &fnInfo{fn: fn, g: cfgs.FuncDecl(n), body: n.Body}
				e.byObj[fn] = fi
				e.fns = append(e.fns, fi)
			case *ast.FuncLit:
				fi := &fnInfo{lit: n, g: cfgs.FuncLit(n), body: n.Body}
				e.byLit[n] = fi
				e.fns = append(e.fns, fi)
			}
			return true
		})
	}
	for _, fi := range e.fns {
		fi.deferRel = deferredReleases(pass.TypesInfo, fi.body)
		fi.deferCalls = deferredCalls(fi.body)
		fi.acqBlocking = make(map[string]bool)
		fi.acqEscaping = make(map[string]bool)
		fi.releases = make(map[string]bool)
	}

	// Sequenced fixpoints: each stage only reads effects fixed by earlier
	// stages (or its own monotonically growing ones), so every loop
	// terminates at the least fixed point.
	e.fixpoint(e.stepReleases)
	e.fixpoint(e.stepBarriers)
	e.fixpoint(e.stepCommitWrite)
	e.fixpoint(e.stepMediaOp)
	e.fixpoint(e.stepLocks)

	for _, fi := range e.fns {
		fi.sum.AcqBlocking = sortedKeys(fi.acqBlocking)
		fi.sum.AcqEscaping = sortedKeys(fi.acqEscaping)
		fi.sum.Releases = sortedKeys(fi.releases)
	}
	// MGSPSUMMARY_DEBUG=<substring> dumps the converged summary of every
	// matching function to stderr. This is the triage loop for new lock-order
	// declarations: a surprising edge almost always traces to one function's
	// effect set, and the dump shows it without instrumenting the fixpoints.
	if sub := os.Getenv("MGSPSUMMARY_DEBUG"); sub != "" {
		for _, fi := range e.fns {
			name := fnName(fi)
			if strings.Contains(name, sub) {
				fmt.Fprintf(os.Stderr, "[summary] %s %s: %s\n", pass.Pkg.Path(), name, fi.sum.String())
			}
		}
	}
	sort.Slice(e.edges, func(i, j int) bool {
		a, b := e.edges[i], e.edges[j]
		if a.Pos != b.Pos {
			return a.Pos < b.Pos
		}
		return a.From+">"+a.To < b.From+">"+b.To
	})

	// Seqlock field annotations.
	seqlocks := make(map[*types.Var]bool)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				if !dirs.Has(field.Pos(), mgspmatch.Seqlock) {
					continue
				}
				for _, name := range field.Names {
					if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
						seqlocks[v] = true
						pass.ExportObjectFact(v, &SeqlockVar{})
					}
				}
			}
			return true
		})
	}

	// Lock-order declarations.
	var order []OrderPair
	selfOK := make(map[string]bool)
	for _, d := range dirs.Decls(mgspmatch.LockOrder) {
		order = append(order, parseOrder(pass.Fset, d)...)
	}
	for _, d := range dirs.Decls(mgspmatch.LockOrderSelf) {
		if fs := strings.Fields(d.Args); len(fs) > 0 {
			selfOK[fs[0]] = true
		}
	}

	// Export: object facts for non-empty summaries, the package fact when
	// this package contributes edges or declarations. Empty summaries are
	// still exported for ctx-taking functions: "analyzed, no effects" must
	// stay distinguishable from "no summary at all", or the dynamic-dispatch
	// media-op approximation would re-absorb every harmless ctx helper.
	for _, fi := range e.fns {
		if fi.fn != nil && (!fi.sum.empty() || mgspmatch.HasSimCtxParam(fi.fn)) {
			s := fi.sum
			pass.ExportObjectFact(fi.fn, &s)
		}
	}
	localEdges := make([]Edge, len(e.edges))
	for i, le := range e.edges {
		localEdges[i] = le.Edge
	}
	if len(e.edges) > 0 || len(order) > 0 || len(selfOK) > 0 {
		pass.ExportPackageFact(&PkgInfo{Edges: localEdges, Order: order, SelfOK: sortedKeys(selfOK)})
	}

	// Merge imported declarations and edges into the result.
	mergedOrder := append([]OrderPair(nil), order...)
	allEdges := append([]Edge(nil), localEdges...)
	mergedSelf := make(map[string]bool)
	for k := range selfOK {
		mergedSelf[k] = true
	}
	for _, pf := range pass.AllPackageFacts() {
		pi, ok := pf.Fact.(*PkgInfo)
		if !ok || pf.Package == pass.Pkg {
			continue
		}
		mergedOrder = append(mergedOrder, pi.Order...)
		allEdges = append(allEdges, pi.Edges...)
		for _, k := range pi.SelfOK {
			mergedSelf[k] = true
		}
	}

	res := &Result{
		ReportPath: reportFlag,
		Fn: func(fn *types.Func) *FnSummary {
			if fi, ok := e.byObj[fn]; ok {
				return &fi.sum
			}
			var s FnSummary
			if pass.ImportObjectFact(fn, &s) {
				return &s
			}
			return nil
		},
		Lit: func(l *ast.FuncLit) *FnSummary {
			if fi, ok := e.byLit[l]; ok {
				return &fi.sum
			}
			return nil
		},
		IsSeqlock: func(v *types.Var) bool {
			if seqlocks[v] {
				return true
			}
			return pass.ImportObjectFact(v, &SeqlockVar{})
		},
		Order:      mergedOrder,
		SelfOK:     mergedSelf,
		LocalEdges: e.edges,
		AllEdges:   allEdges,
	}
	res.PersistClass = func(c *ast.CallExpr, write string) cfgscan.Class {
		return e.persistClass(c, write)
	}
	res.BarrierFor = func(c *ast.CallExpr, write string) bool {
		return e.barrierFor(c, write)
	}
	res.CallSummary = func(c *ast.CallExpr) *FnSummary {
		s, _ := e.calleeSummary(c)
		return s
	}
	return res, nil
}

// calleeSummary resolves a call to its effect summary: an immediately
// invoked literal's, a local function's in-progress one, or an imported
// fact. The *types.Func is returned alongside (nil for dynamic calls) so
// callers can apply fallback heuristics when the summary is nil.
func (e *engine) calleeSummary(call *ast.CallExpr) (*FnSummary, *types.Func) {
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		if fi, ok := e.byLit[lit]; ok {
			return &fi.sum, nil
		}
		return nil, nil
	}
	fn := mgspmatch.Callee(e.pass.TypesInfo, call)
	if fn == nil {
		return nil, nil
	}
	if fi, ok := e.byObj[fn]; ok {
		return &fi.sum, fn
	}
	var s FnSummary
	if e.pass.ImportObjectFact(fn, &s) {
		return &s, fn
	}
	return nil, fn
}

// dynamicCrash is the media-op fallback for a callee with no summary: an
// interface method or foreign function threading a *sim.Ctx is
// conservatively a media op (excluding the simulator and observability
// packages, whose ctx use is cost accounting only).
func (e *engine) dynamicCrash(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	p := fn.Pkg().Path()
	if mgspmatch.PkgPathIs(p, "sim") || mgspmatch.PkgPathIs(p, "obs") {
		return false
	}
	return mgspmatch.HasSimCtxParam(fn)
}

// barrierFor reports whether a call is a persist barrier sufficient for a
// pending write of the given kind ("Write" needs Flush/Persist; "WriteNT"
// also settles for Fence), directly or through every path of its callee.
func (e *engine) barrierFor(c *ast.CallExpr, write string) bool {
	if m := mgspmatch.DeviceMethod(e.pass.TypesInfo, c); m != "" {
		return m == "Flush" || m == "Persist" || (m == "Fence" && write == "WriteNT")
	}
	if s, _ := e.calleeSummary(c); s != nil {
		if write == "WriteNT" {
			return s.BarrierNTAll
		}
		return s.BarrierCachedAll
	}
	return false
}

// commitSink reports whether a call publishes: an 8-byte atomic persist
// store, a commit*-named callee, or a callee that itself reaches a commit
// sink before a barrier of the given strength.
func (e *engine) commitSink(c *ast.CallExpr, write string) bool {
	if m := mgspmatch.DeviceMethod(e.pass.TypesInfo, c); m != "" {
		return m == "Store8" || m == "CAS8"
	}
	s, fn := e.calleeSummary(c)
	if fn != nil && strings.HasPrefix(strings.ToLower(fn.Name()), "commit") {
		return true
	}
	if s != nil {
		if write == "WriteNT" {
			return s.CommitBareNT
		}
		return s.CommitBareCached
	}
	return false
}

// persistClass is the classifier persistorder walks with after a pending
// write: barrier first (a Persist both commits nothing and settles the
// write — Stop wins over Hit for e.g. a callee that barriers then commits).
func (e *engine) persistClass(c *ast.CallExpr, write string) cfgscan.Class {
	// Sink wins over barrier: a commit* callee that fences on every path
	// (append-then-Fence) still publishes its entry BEFORE that internal
	// fence, so a pending caller write can tear against the entry.
	if e.commitSink(c, write) {
		return cfgscan.Hit
	}
	if e.barrierFor(c, write) {
		return cfgscan.Stop
	}
	return cfgscan.Continue
}

// fixpoint iterates step over every function until nothing changes.
func (e *engine) fixpoint(step func(*fnInfo) bool) {
	for changed := true; changed; {
		changed = false
		for _, fi := range e.fns {
			if step(fi) {
				changed = true
			}
		}
	}
}

// stepReleases unions direct and callee release sets (deferred included).
func (e *engine) stepReleases(fi *fnInfo) bool {
	changed := false
	add := func(c string) {
		if c != "" && !fi.releases[c] {
			fi.releases[c] = true
			changed = true
		}
	}
	// A `defer f.release(...)` unlocks whatever its callee releases, exactly
	// like a direct deferred Unlock. Callee summaries grow during this
	// fixpoint, so the deferred calls are re-consulted every round; the
	// classes land in deferRel so the stepLocks escape check (which runs in
	// a later fixpoint, against the completed set) also credits them.
	for _, call := range fi.deferCalls {
		if s, _ := e.calleeSummary(call); s != nil {
			for _, c := range s.Releases {
				if c != "" && !fi.deferRel[c] {
					fi.deferRel[c] = true
					changed = true
				}
			}
		}
	}
	for c := range fi.deferRel {
		add(c)
	}
	if fi.g != nil {
		for _, b := range fi.g.Blocks {
			for _, call := range cfgscan.Calls(b) {
				if n, cls := LockMethod(e.pass.TypesInfo, call); IsRelease(n) {
					add(cls)
				} else if n == "" {
					if s, _ := e.calleeSummary(call); s != nil {
						for _, c := range s.Releases {
							add(c)
						}
					}
				}
			}
		}
	}
	// Re-sync the summary's slice form immediately: local callees are read
	// through their live FnSummary during the fixpoint, so deferring the
	// sync to the end would hide this function's releases from its callers.
	if changed {
		fi.sum.Releases = sortedKeys(fi.releases)
	}
	return changed
}

// stepBarriers computes BarrierCachedAll/BarrierNTAll: no entry-to-exit
// path avoids a sufficient barrier.
func (e *engine) stepBarriers(fi *fnInfo) bool {
	if fi.g == nil || len(fi.g.Blocks) == 0 {
		return false
	}
	changed := false
	entry := cfgscan.Pos{Block: fi.g.Blocks[0], Index: -1}
	for _, write := range []string{"Write", "WriteNT"} {
		bare := cfgscan.ExitReachableAfter(fi.g, entry, func(c *ast.CallExpr) cfgscan.Class {
			if e.barrierFor(c, write) {
				return cfgscan.Stop
			}
			return cfgscan.Continue
		})
		if !bare {
			if write == "Write" && !fi.sum.BarrierCachedAll {
				fi.sum.BarrierCachedAll, changed = true, true
			}
			if write == "WriteNT" && !fi.sum.BarrierNTAll {
				fi.sum.BarrierNTAll, changed = true, true
			}
		}
	}
	return changed
}

// stepCommitWrite computes CommitBare* (a commit sink reachable from entry
// before a barrier) and WriteBare* (a write still unbarriered at exit).
func (e *engine) stepCommitWrite(fi *fnInfo) bool {
	if fi.g == nil || len(fi.g.Blocks) == 0 {
		return false
	}
	changed := false
	set := func(p *bool) {
		if !*p {
			*p, changed = true, true
		}
	}
	for _, write := range []string{"Write", "WriteNT"} {
		hit := cfgscan.ReachableFromEntry(fi.g, func(c *ast.CallExpr) cfgscan.Class {
			return e.persistClass(c, write)
		})
		if hit != nil {
			if write == "Write" {
				set(&fi.sum.CommitBareCached)
			} else {
				set(&fi.sum.CommitBareNT)
			}
		}
	}
	for _, b := range fi.g.Blocks {
		for i, call := range cfgscan.Calls(b) {
			write := mgspmatch.DeviceMethod(e.pass.TypesInfo, call)
			pending := write == "Write" || write == "WriteNT"
			var s *FnSummary
			if !pending {
				if s, _ = e.calleeSummary(call); s == nil {
					continue
				}
				if !s.WriteBareCached && !s.WriteBareNT {
					continue
				}
			}
			check := func(kind string, dst *bool) {
				if *dst {
					return
				}
				if !pending && !(kind == "Write" && s.WriteBareCached) &&
					!(kind == "WriteNT" && s.WriteBareNT) {
					return
				}
				if cfgscan.ExitReachableAfter(fi.g, cfgscan.Pos{Block: b, Index: i}, func(c *ast.CallExpr) cfgscan.Class {
					if e.barrierFor(c, kind) {
						return cfgscan.Stop
					}
					return cfgscan.Continue
				}) {
					set(dst)
				}
			}
			if pending {
				if write == "Write" {
					check("Write", &fi.sum.WriteBareCached)
				} else {
					check("WriteNT", &fi.sum.WriteBareNT)
				}
			} else {
				check("Write", &fi.sum.WriteBareCached)
				check("WriteNT", &fi.sum.WriteBareNT)
			}
		}
	}
	return changed
}

// stepMediaOp computes transitive media-op reachability.
func (e *engine) stepMediaOp(fi *fnInfo) bool {
	if fi.sum.MediaOp || fi.g == nil {
		return false
	}
	for _, b := range fi.g.Blocks {
		for _, call := range cfgscan.Calls(b) {
			if m := mgspmatch.DeviceMethod(e.pass.TypesInfo, call); m != "" {
				if mgspmatch.DeviceMediaOps[m] {
					fi.sum.MediaOp = true
					return true
				}
				continue
			}
			s, fn := e.calleeSummary(call)
			if s != nil {
				if s.MediaOp {
					fi.sum.MediaOp = true
					return true
				}
				continue
			}
			if e.dynamicCrash(fn) {
				fi.sum.MediaOp = true
				return true
			}
		}
	}
	return false
}

// stepLocks runs the may-held forward dataflow: accumulates transitive
// blocking acquires, escaping acquires, and acquires-while-holding edges.
func (e *engine) stepLocks(fi *fnInfo) bool {
	if fi.g == nil || len(fi.g.Blocks) == 0 {
		return false
	}
	changed := false
	addTo := func(m map[string]bool, c string) {
		if c != "" && !m[c] {
			m[c] = true
			changed = true
		}
	}

	// Block-entry may-held sets, iterated to their own fixpoint.
	in := make(map[*cfg.Block]map[string]bool)
	for _, b := range fi.g.Blocks {
		in[b] = make(map[string]bool)
	}
	transfer := func(b *cfg.Block, record bool) map[string]bool {
		held := make(map[string]bool)
		for c := range in[b] {
			held[c] = true
		}
		for _, call := range cfgscan.Calls(b) {
			n, cls := LockMethod(e.pass.TypesInfo, call)
			switch {
			case IsBlockingAcquire(n) && cls != "":
				addTo(fi.acqBlocking, cls)
				if record {
					for from := range held {
						if e.addEdge(from, cls, fi, call.Pos()) {
							changed = true
						}
					}
				}
				held[cls] = true
			case IsTryAcquire(n) && cls != "":
				held[cls] = true
			case IsRelease(n) && cls != "":
				delete(held, cls)
			case n == "":
				s, _ := e.calleeSummary(call)
				if s == nil {
					continue
				}
				for _, acq := range s.AcqBlocking {
					addTo(fi.acqBlocking, acq)
					if record {
						for from := range held {
							if e.addEdge(from, acq, fi, call.Pos()) {
								changed = true
							}
						}
					}
				}
				for _, esc := range s.AcqEscaping {
					held[esc] = true
				}
				for _, rel := range s.Releases {
					delete(held, rel)
				}
			}
		}
		return held
	}
	for pending := true; pending; {
		pending = false
		for _, b := range fi.g.Blocks {
			out := transfer(b, false)
			for _, s := range b.Succs {
				for c := range out {
					if !in[s][c] {
						in[s][c] = true
						pending = true
					}
				}
			}
		}
	}
	// One recording pass with the converged entry sets.
	for _, b := range fi.g.Blocks {
		transfer(b, true)
	}

	// Escaping acquires: held at some exit with no deferred release.
	for _, b := range fi.g.Blocks {
		for i, call := range cfgscan.Calls(b) {
			n, cls := LockMethod(e.pass.TypesInfo, call)
			var classes []string
			if (IsBlockingAcquire(n) || IsTryAcquire(n)) && cls != "" {
				classes = []string{cls}
			} else if n == "" {
				if s, _ := e.calleeSummary(call); s != nil {
					classes = s.AcqEscaping
				}
			}
			for _, c := range classes {
				if fi.deferRel[c] || fi.acqEscaping[c] {
					continue
				}
				escapes := cfgscan.ExitReachableAfter(fi.g, cfgscan.Pos{Block: b, Index: i}, func(rc *ast.CallExpr) cfgscan.Class {
					if rn, rcls := LockMethod(e.pass.TypesInfo, rc); IsRelease(rn) && rcls == c {
						return cfgscan.Stop
					}
					if rs, _ := e.calleeSummary(rc); rs != nil {
						for _, rel := range rs.Releases {
							if rel == c {
								return cfgscan.Stop
							}
						}
					}
					return cfgscan.Continue
				})
				if escapes {
					addTo(fi.acqEscaping, c)
				}
			}
		}
	}
	// Re-sync the slice form so callers see this function's lock effects
	// through its live summary within the same fixpoint (see stepReleases).
	if changed {
		fi.sum.AcqBlocking = sortedKeys(fi.acqBlocking)
		fi.sum.AcqEscaping = sortedKeys(fi.acqEscaping)
	}
	return changed
}

func (e *engine) addEdge(from, to string, fi *fnInfo, pos token.Pos) bool {
	p := e.pass.Fset.Position(pos)
	ed := Edge{From: from, To: to, Fn: fnName(fi), Pos: fmt.Sprintf("%s:%d", p.Filename, p.Line)}
	for _, have := range e.edges {
		if have.Edge == ed {
			return false
		}
	}
	e.edges = append(e.edges, LocalEdge{Edge: ed, TokPos: pos})
	return true
}

func fnName(fi *fnInfo) string {
	if fi.fn == nil {
		return "func literal"
	}
	if sig, ok := fi.fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if n := mgspmatch.Named(sig.Recv().Type()); n != nil {
			return n.Obj().Name() + "." + fi.fn.Name()
		}
	}
	return fi.fn.Name()
}

// deferredReleases returns the lock classes released by defer statements of
// body — directly, or inside an immediately deferred closure.
func deferredReleases(info *types.Info, body *ast.BlockStmt) map[string]bool {
	out := make(map[string]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // closures run elsewhere; their defers are theirs
		case *ast.DeferStmt:
			if name, cls := LockMethod(info, n.Call); IsRelease(name) && cls != "" {
				out[cls] = true
			}
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				ast.Inspect(lit.Body, func(m ast.Node) bool {
					if c, ok := m.(*ast.CallExpr); ok {
						if name, cls := LockMethod(info, c); IsRelease(name) && cls != "" {
							out[cls] = true
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

// deferredCalls returns the calls that run at function exit: each deferred
// call itself, plus every call inside a deferred func literal's body.
// Calls in a defer statement's receiver/argument position run at statement
// time and are already covered by cfgscan.Calls.
func deferredCalls(body *ast.BlockStmt) []*ast.CallExpr {
	var out []*ast.CallExpr
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // closures run elsewhere; their defers are theirs
		case *ast.DeferStmt:
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				ast.Inspect(lit.Body, func(m ast.Node) bool {
					if _, ok := m.(*ast.FuncLit); ok {
						return false
					}
					if c, ok := m.(*ast.CallExpr); ok {
						out = append(out, c)
					}
					return true
				})
			} else {
				out = append(out, n.Call)
			}
			return false
		}
		return true
	})
	return out
}

// parseOrder parses "A < B < C" into the chained pairs A<B, B<C.
func parseOrder(fset *token.FileSet, d mgspmatch.Directive) []OrderPair {
	var out []OrderPair
	parts := strings.Split(d.Args, "<")
	p := fset.Position(d.Pos)
	pos := fmt.Sprintf("%s:%d", p.Filename, p.Line)
	for i := 0; i+1 < len(parts); i++ {
		before, after := strings.TrimSpace(parts[i]), strings.TrimSpace(parts[i+1])
		if before != "" && after != "" {
			out = append(out, OrderPair{Before: before, After: after, Pos: pos})
		}
	}
	return out
}

func sortedKeys(m map[string]bool) []string {
	if len(m) == 0 {
		return nil
	}
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
