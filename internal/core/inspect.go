package core

import (
	"fmt"
	"sort"
	"strings"

	"mgsp/internal/nvm"
	"mgsp/internal/pmfile"
	"mgsp/internal/sim"
)

// Inspect produces a read-only forensic report of an MGSP device image: the
// file table, per-file shadow-log record census (by granularity, with valid
// and existing bit counts), and the metadata-log state — what a repair tool
// would examine before deciding to Mount. The device is not modified.
func Inspect(dev *nvm.Device, opts Options) (string, error) {
	if err := opts.validate(); err != nil {
		return "", err
	}
	ctx := sim.NewCtx(0, 0)
	prov, err := pmfile.Recover(ctx, dev, MetaBytes(dev.Size()))
	if err != nil {
		return "", err
	}
	fs := mkFS(prov, opts)

	var b strings.Builder
	fmt.Fprintf(&b, "MGSP image: device %d MiB, degree %d, sub-bits %d\n\n",
		dev.Size()>>20, opts.Degree, opts.SubBits)

	// File table.
	type fileInfo struct {
		name string
		pf   *pmfile.File
	}
	var files []fileInfo
	for name, pf := range prov.Files() {
		files = append(files, fileInfo{name, pf})
	}
	sort.Slice(files, func(i, j int) bool { return files[i].name < files[j].name })
	bySlot := make(map[int]string)
	for _, fi := range files {
		bySlot[fi.pf.Slot()] = fi.name
	}
	fmt.Fprintf(&b, "files: %d\n", len(files))
	for _, fi := range files {
		fmt.Fprintf(&b, "  %-24s slot=%-3d size=%-12d capacity=%d\n",
			fi.name, fi.pf.Slot(), fi.pf.Size(), fi.pf.Capacity())
	}

	// Record census per file and span.
	type key struct {
		slot    int
		spanExp int
	}
	type census struct {
		records, valid, existing int
		logBytes                 int64
	}
	// Snapshot pin records are censused separately: they are frozen copies,
	// not live tree state.
	type pinRec struct {
		slot    int
		spanExp int
		nidx    int64
		id      uint64
		word    uint64
		logOff  int64
	}
	var pinRecs []pinRec
	counts := make(map[key]*census)
	total := 0
	for idx := int64(0); idx < fs.dir.cap; idx++ {
		tag := dev.Load8(fs.dir.off(idx) + recTag)
		if tag&tagInUse == 0 {
			continue
		}
		slot, spanExp, nidx := unpackTag(tag)
		word := dev.Load8(fs.dir.off(idx) + recWord)
		logOff := int64(dev.Load8(fs.dir.off(idx) + recLogOff))
		if tag&tagSnap != 0 {
			pinRecs = append(pinRecs, pinRec{slot, spanExp, nidx,
				dev.Load8(fs.dir.off(idx) + recSnapID), word, logOff})
			continue
		}
		total++
		k := key{slot, spanExp}
		c := counts[k]
		if c == nil {
			c = &census{}
			counts[k] = c
		}
		c.records++
		if spanExp == 0 {
			if word != 0 {
				c.valid++
			}
		} else {
			if word&bitValid != 0 {
				c.valid++
			}
			if word&bitExisting != 0 {
				c.existing++
			}
		}
		if logOff != 0 {
			span := int64(LeafSpan)
			for e := 0; e < spanExp; e++ {
				span *= int64(opts.Degree)
			}
			c.logBytes += span
		}
	}
	fmt.Fprintf(&b, "\nshadow-log records: %d\n", total)
	var keys []key
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].slot != keys[j].slot {
			return keys[i].slot < keys[j].slot
		}
		return keys[i].spanExp > keys[j].spanExp
	})
	for _, k := range keys {
		c := counts[k]
		span := int64(LeafSpan)
		for e := 0; e < k.spanExp; e++ {
			span *= int64(opts.Degree)
		}
		name := bySlot[k.slot]
		if name == "" {
			name = fmt.Sprintf("(orphaned slot %d)", k.slot)
		}
		fmt.Fprintf(&b, "  %-24s span=%-10s records=%-6d valid=%-6d existing=%-6d log-space=%s\n",
			name, fmtSize(span), c.records, c.valid, c.existing, fmtSize(c.logBytes))
	}

	// Metadata log. Snapshot create entries are long-lived (they ARE the live
	// snapshots); everything else is an in-flight operation.
	kindName := map[int]string{
		entKindOp:         "op",
		entKindSnapCreate: "snap-create",
		entKindSnapDrop:   "snap-drop",
		entKindOpSnap:     "op-cow",
	}
	type snapEnt struct {
		idx int
		e   logEntry
	}
	var snapCreates []snapEnt
	dropIDs := make(map[uint64]bool)
	live, cursors := 0, 0
	var ebuf [entrySize]byte
	var liveLines []string
	for i := 0; i < fs.mlog.entries; i++ {
		dev.Read(ctx, ebuf[:], fs.mlog.off(i))
		e, ok := decodeEntry(ebuf[:])
		if !ok {
			continue
		}
		switch e.kind {
		case entKindSnapCreate:
			snapCreates = append(snapCreates, snapEnt{i, e})
			continue
		case entKindSnapDrop:
			dropIDs[uint64(e.offset)] = true
		case entKindCursor:
			// Area bookkeeping, not an in-flight operation: the cursor only
			// bounds recovery's scan of its area (DESIGN.md §14.2).
			cursors++
			continue
		}
		live++
		liveLines = append(liveLines, fmt.Sprintf(
			"  entry %-3d kind=%-11s file-slot=%d off=%d len=%d size=%d slots=%d chain=%d/%d group=%d",
			i, kindName[e.kind], e.fileSlot, e.offset, e.length, e.fileSize, len(e.slots), e.chainIdx+1, e.chainLen, e.group))
	}
	fmt.Fprintf(&b, "\nmetadata log: %d entries, %d live (uncommitted or unreplayed), %d area cursors\n",
		fs.mlog.entries, live, cursors)
	for _, l := range liveLines {
		b.WriteString(l + "\n")
	}
	if live > 0 {
		b.WriteString("  -> Mount would complete these operations during recovery\n")
	}

	// Snapshot table: live snapshots (create entry present, no cancelling
	// drop) with the blocks their pins keep alive. A pin serves a snapshot
	// when it is that node's smallest pin id >= the snapshot id; only those
	// blocks are chargeable to the snapshot.
	fmt.Fprintf(&b, "\nsnapshots: %d live\n", func() int {
		n := 0
		for _, sc := range snapCreates {
			if !dropIDs[uint64(sc.e.offset)] {
				n++
			}
		}
		return n
	}())
	sort.Slice(snapCreates, func(i, j int) bool {
		return uint64(snapCreates[i].e.offset) < uint64(snapCreates[j].e.offset)
	})
	type nodeKey struct {
		slot    int
		spanExp int
		nidx    int64
	}
	pinsByNode := make(map[nodeKey][]pinRec)
	for _, p := range pinRecs {
		k := nodeKey{p.slot, p.spanExp, p.nidx}
		pinsByNode[k] = append(pinsByNode[k], p)
	}
	for _, ps := range pinsByNode {
		sort.Slice(ps, func(i, j int) bool { return ps[i].id < ps[j].id })
	}
	for _, sc := range snapCreates {
		id := uint64(sc.e.offset)
		if dropIDs[id] {
			fmt.Fprintf(&b, "  snap %-6d file-slot=%d (drop in progress; Mount completes it)\n", id, sc.e.fileSlot)
			continue
		}
		var pins, blocks int64
		for k, ps := range pinsByNode {
			if k.slot != sc.e.fileSlot {
				continue
			}
			for _, p := range ps {
				if p.id >= id {
					pins++
					if p.logOff != 0 && pinRefsLog(k.spanExp == 0, p.word) {
						span := int64(LeafSpan)
						for e := 0; e < k.spanExp; e++ {
							span *= int64(opts.Degree)
						}
						blocks += span / LeafSpan
					}
					break
				}
			}
		}
		name := bySlot[sc.e.fileSlot]
		if name == "" {
			name = fmt.Sprintf("(slot %d)", sc.e.fileSlot)
		}
		fmt.Fprintf(&b, "  snap %-6d %-24s frozen-size=%-12d epoch=%-3d pins=%-5d pinned-blocks=%d\n",
			id, name, sc.e.fileSize, sc.e.epoch, pins, blocks)
	}
	if len(pinRecs) > 0 {
		fmt.Fprintf(&b, "  pin records: %d total\n", len(pinRecs))
	}

	// Checkpoint cell (background cleaner).
	if ck, ok := readCheckpointCell(dev, fs.ckptOff); ok {
		fmt.Fprintf(&b, "\ncheckpoint: epoch=%d cleaner-passes=%d blocks-reclaimed=%d\n",
			ck.epoch, ck.passes, ck.reclaimed)
		fmt.Fprintf(&b, "  -> Mount skips replay of metadata entries stamped before epoch %d\n", ck.epoch)
	} else {
		b.WriteString("\ncheckpoint: none (full replay on Mount)\n")
	}
	if hw := int64(dev.Load8(fs.ckptOff + ckptDirHW)); hw > 0 {
		fmt.Fprintf(&b, "directory high-water mark: %d of %d records scanned on Mount\n", hw, fs.dir.cap)
	}
	return b.String(), nil
}

func fmtSize(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%dG", n>>30)
	case n >= 1<<20:
		return fmt.Sprintf("%dM", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dK", n>>10)
	}
	return fmt.Sprintf("%dB", n)
}
