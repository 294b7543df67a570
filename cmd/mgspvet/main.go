// Command mgspvet is the MGSP static-analysis vettool: an interprocedural
// summary engine (mgspsummary, exporting per-function effect facts across
// package boundaries) plus seven golang.org/x/tools/go/analysis passes
// enforcing the crash-consistency invariants the paper's correctness
// argument rests on — persist ordering, the declared lock hierarchy,
// seqlock read validation, dependent-store ordering, atomics hygiene,
// checksum-before-publish, and the freshness of the //mgsp: annotations
// themselves.
//
// It speaks the `go vet -vettool` protocol:
//
//	go build -o bin/mgspvet ./cmd/mgspvet
//	go vet -vettool=$(pwd)/bin/mgspvet ./...
//
// or via the Makefile: make vet (human output) / make vet-report (JSONL
// artifact, including suppressed findings, via -mgspsummary.report). See
// DESIGN.md §15 for each analyzer's invariant, its grounding in the paper,
// and the //mgsp: annotation grammar.
package main

import (
	"golang.org/x/tools/go/analysis/unitchecker"

	"mgsp/internal/analysis/atomicfield"
	"mgsp/internal/analysis/checksumpub"
	"mgsp/internal/analysis/lockorder"
	"mgsp/internal/analysis/persistorder"
	"mgsp/internal/analysis/seqlockver"
	"mgsp/internal/analysis/staleannot"
	"mgsp/internal/analysis/summary"
	"mgsp/internal/analysis/twostore"
)

func main() {
	unitchecker.Main(
		summary.Analyzer,
		persistorder.Analyzer,
		lockorder.Analyzer,
		seqlockver.Analyzer,
		twostore.Analyzer,
		atomicfield.Analyzer,
		checksumpub.Analyzer,
		staleannot.Analyzer,
	)
}
