// Package mgspmatch holds the shared type- and call-matching helpers used by
// the mgspvet analyzers (persistorder, atomicfield,
// checksum-before-publish), plus the //mgsp: suppression-directive parser.
//
// Matching is by (type name, package-path suffix) rather than by exact import
// path so the analyzers work both on the real tree (mgsp/internal/nvm.Device)
// and on the self-contained fixture packages under each analyzer's testdata
// (for example persistorder.example/nvm.Device). The suffix rule is: the path
// is exactly the element, or ends in "/"+element.
package mgspmatch

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// PkgPathIs reports whether path is exactly elem or ends in "/"+elem.
func PkgPathIs(path, elem string) bool {
	return path == elem || strings.HasSuffix(path, "/"+elem)
}

// namedOf unwraps pointers and aliases down to a *types.Named, or nil.
func namedOf(t types.Type) *types.Named {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := types.Unalias(t).(*types.Named)
	return n
}

// Named unwraps pointers and aliases down to a *types.Named, or nil.
func Named(t types.Type) *types.Named { return namedOf(t) }

// IsNamed reports whether t (or *t) is the named type typeName defined in a
// package whose path matches pkgElem per PkgPathIs.
func IsNamed(t types.Type, pkgElem, typeName string) bool {
	n := namedOf(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Name() == typeName && PkgPathIs(n.Obj().Pkg().Path(), pkgElem)
}

// Callee returns the static callee of call, or nil for calls through
// function-valued expressions, interface methods included (those DO resolve
// to the interface's *types.Func).
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			obj = sel.Obj()
		} else {
			obj = info.Uses[fun.Sel] // package-qualified call
		}
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// MethodOn returns the method name if call invokes a method (by value or
// pointer) on the named type typeName from a package matching pkgElem; it
// returns "" otherwise.
func MethodOn(info *types.Info, call *ast.CallExpr, pkgElem, typeName string) string {
	fn := Callee(info, call)
	if fn == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	if !IsNamed(sig.Recv().Type(), pkgElem, typeName) {
		return ""
	}
	return fn.Name()
}

// DeviceMediaOps is the set of nvm.Device methods that touch the media and
// therefore hit crash-injection fail points under a crash sweep.
var DeviceMediaOps = map[string]bool{
	"Read": true, "Write": true, "WriteNT": true, "Flush": true,
	"Fence": true, "Persist": true, "Store8": true, "CAS8": true,
}

// DeviceBarriers is the subset of Device methods that act as persist
// barriers: Fence orders prior WriteNT stores; Flush/Persist write back
// cached lines (Persist = Flush + Fence).
var DeviceBarriers = map[string]bool{"Flush": true, "Fence": true, "Persist": true}

// DeviceMethod returns the method name if call is a method call on
// nvm.Device (package-path suffix "nvm", type Device), else "".
func DeviceMethod(info *types.Info, call *ast.CallExpr) string {
	return MethodOn(info, call, "nvm", "Device")
}

// HasSimCtxParam reports whether fn takes a parameter of type *sim.Ctx
// (package-path suffix "sim", type Ctx). In this codebase every operation
// that can issue media ops is threaded through a *sim.Ctx for cost
// accounting, so a ctx-taking callee in another package is conservatively a
// media op.
func HasSimCtxParam(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if IsNamed(sig.Params().At(i).Type(), "sim", "Ctx") {
			return true
		}
	}
	return false
}

// ExprKey returns a stable identity string for a receiver expression, used
// to pair Lock/Unlock calls on the same lock ("fs.mu", "d.mu", ...).
// Selector chains and plain identifiers resolve structurally; anything more
// exotic (index expressions, calls) returns "" and is not tracked.
func ExprKey(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		base := ExprKey(x.X)
		if base == "" {
			return ""
		}
		return base + "." + x.Sel.Name
	case *ast.StarExpr:
		return ExprKey(x.X)
	}
	return ""
}

// RecvKey returns the lock-identity key of a method call's receiver, or "".
func RecvKey(call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	return ExprKey(sel.X)
}

// Render returns a best-effort textual identity for an arbitrary expression
// — richer than ExprKey (calls, index expressions, and arithmetic render
// structurally instead of vanishing) but still purely syntactic. Used by the
// twostore analyzer to group store offsets. Unrenderable subexpressions
// become "?".
func Render(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return Render(x.X) + "." + x.Sel.Name
	case *ast.StarExpr:
		return Render(x.X)
	case *ast.BasicLit:
		return x.Value
	case *ast.BinaryExpr:
		return Render(x.X) + x.Op.String() + Render(x.Y)
	case *ast.CallExpr:
		s := Render(x.Fun) + "("
		for i, a := range x.Args {
			if i > 0 {
				s += ","
			}
			s += Render(a)
		}
		return s + ")"
	case *ast.IndexExpr:
		return Render(x.X) + "[" + Render(x.Index) + "]"
	}
	return "?"
}

// FamilyKey returns (family, full) identity strings for a store-offset
// expression. Two offsets belong to the same family when they address fields
// of one record: "base+fieldOff" strips the trailing addend so
// m.off(i)+entCksum and m.off(i)+entLen share family "m.off(i)", while the
// full rendering keeps the field term for field-name classification.
func FamilyKey(e ast.Expr) (family, full string) {
	full = Render(e)
	if b, ok := ast.Unparen(e).(*ast.BinaryExpr); ok && (b.Op == token.ADD || b.Op == token.SUB) {
		return Render(b.X), full
	}
	return full, full
}

// ---- //mgsp: directives ----

// Directive names understood by the analyzers. Suppression directives gate
// one analyzer at one annotated line and must carry a one-line
// justification (a justification that stops suppressing anything is itself
// reported by the staleannot pass):
//
//	//mgsp:deferred-persist <why the barrier lives elsewhere>
//	//mgsp:unchecksummed-publish <why this store needs no checksum>
//	//mgsp:unaligned-ok <why 32-bit alignment does not apply>
//	//mgsp:atomic-copy-ok <why this value copy is race-free>
//	//mgsp:lock-order-ok <why this acquisition cannot deadlock>
//	//mgsp:seqlock-ok <why this section is safe>
//	//mgsp:two-store-ok <why these stores need no ordering>
//
// Declaration directives feed facts into the summary engine instead of
// suppressing diagnostics:
//
//	//mgsp:lock-order A < B < C   (declared partial lock order, package scope)
//	//mgsp:lock-order-self C <why> (intra-class acquisition follows a protocol)
//	//mgsp:seqlock                 (marks an atomic field as a seqlock version)
const (
	DeferredPersist      = "deferred-persist"
	UnchecksummedPublish = "unchecksummed-publish"
	UnalignedOK          = "unaligned-ok"
	AtomicCopyOK         = "atomic-copy-ok"
	LockOrderOK          = "lock-order-ok"
	SeqlockOK            = "seqlock-ok"
	TwoStoreOK           = "two-store-ok"

	LockOrder     = "lock-order"
	LockOrderSelf = "lock-order-self"
	LockForbid    = "lock-forbid"
	Seqlock       = "seqlock"
)

// SuppressionDirectives maps each suppression directive name to the
// analyzer it gates; staleannot uses it to decide which directives are
// expected to suppress something.
var SuppressionDirectives = map[string]string{
	DeferredPersist:      "persistorder",
	UnchecksummedPublish: "checksumpub",
	UnalignedOK:          "atomicfield",
	AtomicCopyOK:         "atomicfield",
	LockOrderOK:          "lockorder",
	SeqlockOK:            "seqlockver",
	TwoStoreOK:           "twostore",
}

// DeclarationDirectives are the non-suppressing directive names (facts for
// the summary engine); they are exempt from staleness checking.
var DeclarationDirectives = map[string]bool{
	LockOrder:     true,
	LockOrderSelf: true,
	LockForbid:    true,
	Seqlock:       true,
}

const prefix = "//mgsp:"

// Directive is one parsed //mgsp: comment: its position, name, and the
// remainder of the comment line (justification text, or declaration args).
type Directive struct {
	Pos  token.Pos
	Name string
	Args string
}

// Directives records, per file line, the //mgsp: directives present there.
// A directive governs the line it is written on; a directive comment that
// has a line to itself additionally governs the line below it, and a
// directive in a function's doc comment governs the whole function.
//
// Suppress consultations are recorded per directive so the staleannot pass
// can report annotations that no longer suppress anything.
type Directives struct {
	fset    *token.FileSet
	entries []Directive
	used    []bool
	lines   map[token.Position][]int // Filename+Line -> entry indices
	funcs   []funcSpan
}

type funcSpan struct {
	pos, end token.Pos
	idx      []int
}

func key(p token.Position) token.Position { return token.Position{Filename: p.Filename, Line: p.Line} }

func parseOne(c *ast.Comment) (Directive, bool) {
	if !strings.HasPrefix(c.Text, prefix) {
		return Directive{}, false
	}
	rest := strings.TrimPrefix(c.Text, prefix)
	name, args := rest, ""
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		name, args = rest[:i], strings.TrimSpace(rest[i+1:])
	}
	return Directive{Pos: c.Pos(), Name: name, Args: args}, true
}

// ParseDirectives scans the files' comments for //mgsp: directives.
func ParseDirectives(fset *token.FileSet, files []*ast.File) *Directives {
	d := &Directives{fset: fset, lines: make(map[token.Position][]int)}
	seen := make(map[token.Pos]int) // comment pos -> entry index (doc comments appear twice)
	add := func(c *ast.Comment) (int, bool) {
		if i, ok := seen[c.Pos()]; ok {
			return i, true
		}
		dir, ok := parseOne(c)
		if !ok {
			return 0, false
		}
		d.entries = append(d.entries, dir)
		d.used = append(d.used, false)
		i := len(d.entries) - 1
		seen[c.Pos()] = i
		return i, true
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				i, ok := add(c)
				if !ok {
					continue
				}
				p := key(fset.Position(c.Pos()))
				d.lines[p] = append(d.lines[p], i)
				// A standalone directive line also governs the next line.
				if fset.Position(cg.Pos()).Line == p.Line {
					next := p
					next.Line++
					d.lines[next] = append(d.lines[next], i)
				}
			}
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			var idx []int
			for _, c := range fd.Doc.List {
				if i, ok := add(c); ok {
					idx = append(idx, i)
				}
			}
			if len(idx) > 0 {
				d.funcs = append(d.funcs, funcSpan{fd.Pos(), fd.End(), idx})
			}
		}
	}
	return d
}

// matches returns the indices of directives named name governing pos.
func (d *Directives) matches(pos token.Pos, name string) []int {
	var out []int
	for _, i := range d.lines[key(d.fset.Position(pos))] {
		if d.entries[i].Name == name {
			out = append(out, i)
		}
	}
	for _, fs := range d.funcs {
		if fs.pos <= pos && pos < fs.end {
			for _, i := range fs.idx {
				if d.entries[i].Name == name {
					out = append(out, i)
				}
			}
		}
	}
	return out
}

// Has reports whether directive name governs pos, without recording a use.
func (d *Directives) Has(pos token.Pos, name string) bool {
	return len(d.matches(pos, name)) > 0
}

// Suppress reports whether directive name governs pos and, when it does,
// records that the governing annotation suppressed a real finding. Analyzers
// must call it only after establishing that a diagnostic would otherwise be
// reported — that is what keeps staleness detection honest.
func (d *Directives) Suppress(pos token.Pos, name string) bool {
	idx := d.matches(pos, name)
	for _, i := range idx {
		d.used[i] = true
	}
	return len(idx) > 0
}

// DeclsAt returns the directives named name that govern pos, with their
// arguments (used for position-scoped declarations like lock-forbid).
func (d *Directives) DeclsAt(pos token.Pos, name string) []Directive {
	var out []Directive
	for _, i := range d.matches(pos, name) {
		out = append(out, d.entries[i])
	}
	return out
}

// Decls returns every directive with the given name (declaration
// directives: lock-order, lock-order-self, lock-forbid, seqlock).
func (d *Directives) Decls(name string) []Directive {
	var out []Directive
	for _, e := range d.entries {
		if e.Name == name {
			out = append(out, e)
		}
	}
	return out
}

// All returns every parsed directive.
func (d *Directives) All() []Directive {
	return append([]Directive(nil), d.entries...)
}

// Used returns the positions of directives that recorded a Suppress hit —
// staleannot unions these across the per-analyzer Directives copies (every
// copy parses the same files, so positions align).
func (d *Directives) Used() map[token.Pos]bool {
	out := make(map[token.Pos]bool)
	for i, e := range d.entries {
		if d.used[i] {
			out[e.Pos] = true
		}
	}
	return out
}

// Unused returns the suppression directives that recorded no Suppress hit.
func (d *Directives) Unused() []Directive {
	var out []Directive
	for i, e := range d.entries {
		if !d.used[i] && SuppressionDirectives[e.Name] != "" {
			out = append(out, e)
		}
	}
	return out
}
