// Package staleannot keeps the //mgsp: annotation grammar honest: a
// suppression annotation justifies silencing one analyzer at one site, and
// when the code moves until the annotation no longer suppresses anything,
// the justification is dead weight that misleads the next reader — so it is
// itself reported. Every mgspvet analyzer records which directives actually
// suppressed a finding during its run (Directives.Suppress); this pass
// unions those usage records across analyzers and reports
//
//   - suppression directives that suppressed nothing (stale), and
//   - directives whose name is neither a known suppression nor a known
//     declaration (typos silently suppress nothing — worse than stale).
//
// Declaration directives (lock-order, lock-order-self, lock-forbid,
// seqlock) configure the summary engine rather than suppressing
// diagnostics and are exempt.
package staleannot

import (
	"fmt"
	"go/token"
	"reflect"

	"golang.org/x/tools/go/analysis"

	"mgsp/internal/analysis/atomicfield"
	"mgsp/internal/analysis/checksumpub"
	"mgsp/internal/analysis/lockorder"
	"mgsp/internal/analysis/mgspmatch"
	"mgsp/internal/analysis/persistorder"
	"mgsp/internal/analysis/seqlockver"
	"mgsp/internal/analysis/summary"
	"mgsp/internal/analysis/twostore"
	"mgsp/internal/analysis/vetreport"
)

const doc = `report //mgsp: annotations that no longer suppress any diagnostic

A suppression annotation whose finding has been fixed (or moved) is stale:
its justification now asserts something the analyzers no longer observe.
Delete it, or re-anchor it to the line it should govern. Unknown directive
names are reported as probable typos.`

// upstream lists every directive-recording analyzer whose usage records this
// pass unions; it is a separate var so run can range over it without creating
// an initialization cycle through Analyzer.Requires.
var upstream = []*analysis.Analyzer{
	persistorder.Analyzer,
	atomicfield.Analyzer,
	checksumpub.Analyzer,
	lockorder.Analyzer,
	seqlockver.Analyzer,
	twostore.Analyzer,
}

var Analyzer = &analysis.Analyzer{
	Name:       "staleannot",
	Doc:        doc,
	Requires:   append([]*analysis.Analyzer{summary.Analyzer}, upstream...),
	Run:        run,
	ResultType: reflect.TypeOf((*mgspmatch.Directives)(nil)),
}

func run(pass *analysis.Pass) (interface{}, error) {
	sum := pass.ResultOf[summary.Analyzer].(*summary.Result)

	// Each analyzer parsed its own Directives copy over the same files;
	// union the per-copy usage records by position.
	used := make(map[token.Pos]bool)
	var copies []*mgspmatch.Directives
	for _, a := range upstream {
		if d, ok := pass.ResultOf[a].(*mgspmatch.Directives); ok && d != nil {
			copies = append(copies, d)
			for pos := range d.Used() {
				used[pos] = true
			}
		}
	}
	if len(copies) == 0 {
		return (*mgspmatch.Directives)(nil), nil
	}

	seen := make(map[token.Pos]bool)
	for _, d := range copies[0].All() {
		if seen[d.Pos] {
			continue
		}
		seen[d.Pos] = true
		switch {
		case mgspmatch.DeclarationDirectives[d.Name]:
			// Declarations configure the summary engine; never stale here.
		case mgspmatch.SuppressionDirectives[d.Name] == "":
			msg := fmt.Sprintf("unknown //mgsp: directive %q: known suppressions are %s; a typo here silently suppresses nothing",
				d.Name, knownNames())
			vetreport.Report(pass, sum.ReportPath, d.Pos, msg, false)
		case !used[d.Pos]:
			msg := fmt.Sprintf("stale //mgsp:%s annotation: it no longer suppresses any %s finding; delete it or re-anchor it",
				d.Name, mgspmatch.SuppressionDirectives[d.Name])
			vetreport.Report(pass, sum.ReportPath, d.Pos, msg, false)
		}
	}
	return copies[0], nil
}

func knownNames() string {
	return mgspmatch.DeferredPersist + ", " +
		mgspmatch.UnchecksummedPublish + ", " + mgspmatch.UnalignedOK + ", " +
		mgspmatch.AtomicCopyOK + ", " + mgspmatch.LockOrderOK + ", " +
		mgspmatch.SeqlockOK + ", " + mgspmatch.TwoStoreOK
}
