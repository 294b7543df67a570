package core

import (
	"mgsp/internal/sim"
)

// writeback copies every shadow log's live data back into the file and
// releases the tree — the close path of §III-D ("when a file is no longer
// opened by any thread, MGSP will write all logs back to the original file
// and release related metadata"). It is also recovery's write-back: Mount
// keeps the logs, and the file's next last close writes them back here.
func (f *file) writeback(ctx *sim.Ctx) {
	// Write-back holds no node locks; drain optimistic readers so none reads
	// a log block mid-release or the file mid-copy.
	f.writerEnter()
	defer f.writerExit()
	root := f.root.Load()
	if root != nil {
		f.copyBack(ctx, root, nil)
		f.fs.dev.Fence(ctx)
		f.releaseSubtree(ctx, root)
	}
	f.root.Store(nil)
	f.minSearch.Store(nil)
	f.releaseAllIntents(ctx)
}
