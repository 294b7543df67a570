package core

import (
	"fmt"
	"sort"

	"mgsp/internal/nvm"
	"mgsp/internal/obs"
	"mgsp/internal/pmfile"
	"mgsp/internal/sim"
)

// Mount rebuilds an MGSP file system from a device image after a crash and
// runs the §III-D recovery protocol:
//
//  1. the underlying file table (pmfile) is recovered;
//  2. the node directory is scanned, rebuilding every file's radix tree and
//     re-registering the shadow logs with the volatile allocator;
//  3. unretired metadata-log entries with valid checksums are replayed,
//     completing the interrupted operations' bitmap flips ("by comparing the
//     bitmap saved in the metadata log with the actual bitmap, MGSP can
//     complete the remaining metadata modification");
//  4. lost existing-bit hints are restored and lazy-cleaning staleness
//     markers recomputed.
//
// The shadow logs are kept, not written back: the persisted records and
// valid/existing bitmaps already say where the newest data lives, so every
// file comes back with its tree and its logs registered with the allocator.
// The paper's write-back step ("and then write all the logs back") runs at
// the file's next last Close, like any other close. The virtual time
// charged to ctx during Mount therefore tracks the work in flight at the
// crash, not the file size; the paper's 186 ms for a 1 GiB file is Mount
// plus that first Close.
func Mount(ctx *sim.Ctx, dev *nvm.Device, opts Options) (*FS, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	began := ctx.Now()
	prov, err := pmfile.Recover(ctx, dev, MetaBytes(dev.Size()))
	if err != nil {
		return nil, err
	}
	fs := mkFS(prov, opts)

	// Checkpoint fast path: a persisted checkpoint means the cleaner wrote
	// back everything up to its epoch, and the directory high-water mark
	// bounds the record scan. The mark is honored even when this mount runs
	// without a cleaner — and kept maintained (tracking), or later records
	// could land beyond a bound a future mount still trusts.
	ck, ckOK := readCheckpointCell(dev, fs.ckptOff)
	if ckOK {
		fs.epoch.Store(ck.epoch)
	}
	scanTo := fs.dir.cap
	if hw := int64(dev.Load8(fs.ckptOff + ckptDirHW)); hw > 0 {
		if hw < scanTo {
			scanTo = hw
		}
		fs.dir.tracking = true
		fs.dir.hwPersisted = hw
	}

	bySlot := make(map[int]*file)
	for name, pf := range prov.Files() {
		f := fs.newFile(pf, name)
		f.size.Store(pf.Size())
		fs.files[name] = f
		bySlot[pf.Slot()] = f
	}

	// Pass 2: node directory scan. Live tree records rebuild the radix trees;
	// snapshot pin records (tagSnap) are collected and attached after the
	// snapshot table itself is recovered from the metadata log, because
	// whether a pin is still needed depends on which snapshots are live.
	// Blocks are re-registered with MarkRef: a log block may legitimately be
	// referenced by a live record AND one or more pins.
	type pendPin struct {
		f      *file
		span   int64
		nidx   int64
		recIdx int64
		id     uint64
		logOff int64
		word   uint64
	}
	var pendPins []pendPin
	var maxSeq uint64              // running max of births, pin ids and snapshot ids
	nodes := make(map[int64]*node) // recIdx -> node
	var buf [recSize]byte
	var maxIdx int64 = -1
	used := make(map[int64]bool)
	for idx := int64(0); idx < scanTo; idx++ {
		tag := dev.Load8(fs.dir.off(idx) + recTag)
		ctx.Advance(fs.costs.IndexStep)
		if tag&tagInUse == 0 {
			continue
		}
		dev.Read(ctx, buf[:], fs.dir.off(idx))
		slot, spanExp, nidx := unpackTag(tag)
		f := bySlot[slot]
		if f == nil {
			// Record of a removed file: retire it.
			fs.dir.clear(ctx, idx)
			continue
		}
		span := int64(LeafSpan)
		for e := 0; e < spanExp; e++ {
			span *= int64(opts.Degree)
		}
		logOff := int64(le64(buf[recLogOff:]))
		word := le64(buf[recWord:])
		birth := le64(buf[recBirth:])
		if birth > maxSeq {
			maxSeq = birth
		}
		used[idx] = true
		if idx > maxIdx {
			maxIdx = idx
		}
		if tag&tagSnap != 0 {
			id := le64(buf[recSnapID:])
			if id > maxSeq {
				maxSeq = id
			}
			if logOff != 0 && pinRefsLog(span == LeafSpan, word) {
				fs.prov.Alloc().MarkRef(logOff, span/LeafSpan)
			}
			pendPins = append(pendPins, pendPin{f, span, nidx, idx, id, logOff, word})
			continue
		}
		n, err := f.attachNode(ctx, span, nidx)
		if err != nil {
			return nil, fmt.Errorf("core: record %d: %w", idx, err)
		}
		n.recIdx.Store(idx)
		n.logOff = logOff
		n.word.Store(word)
		n.birth.Store(birth)
		if logOff != 0 {
			fs.prov.Alloc().MarkRef(logOff, span/LeafSpan)
		}
		nodes[idx] = n
	}
	fs.dir.next = maxIdx + 1
	for idx := int64(0); idx <= maxIdx; idx++ {
		if !used[idx] {
			fs.dir.free = append(fs.dir.free, idx)
		}
	}
	if fs.dir.tracking && maxIdx >= 0 {
		// First mount with tracking on an image that had no mark yet: persist
		// a bound covering everything the scan found.
		fs.dir.noteHighWater(ctx, maxIdx)
	}

	// Pass 3: metadata log replay — complete chains only. Snapshot lifecycle
	// entries are routed out of the chain grouping: a live create entry is a
	// live snapshot (it deliberately outlives operations and predates any
	// checkpoint epoch), and a drop entry cancels its create (the drop
	// committed before the create was retired).
	type chainKey struct {
		slot  int
		group uint32
	}
	type liveCreate struct {
		idx int
		e   logEntry
	}
	var creates []liveCreate
	dropped := make(map[uint64]bool)
	chains := make(map[chainKey][]logEntry)
	var ebuf [entrySize]byte
	scanSlot := func(i int) {
		dev.Read(ctx, ebuf[:], fs.mlog.off(i))
		e, ok := decodeEntry(ebuf[:])
		if !ok {
			return
		}
		switch e.kind {
		case entKindCursor:
			// Area bookkeeping, not an operation; its fileSlot is an area id
			// and must never be grouped into a file's chains.
		case entKindSnapCreate:
			creates = append(creates, liveCreate{i, e})
		case entKindSnapDrop:
			dropped[uint64(e.offset)] = true
		default:
			chains[chainKey{e.fileSlot, e.group}] = append(chains[chainKey{e.fileSlot, e.group}], e)
		}
	}
	if fs.mlog.areas == 0 {
		for i := 0; i < fs.mlog.entries; i++ {
			scanSlot(i)
		}
	} else {
		// Per-worker home areas: each area's durable cursor (seeded from the
		// device when the log was attached) is an upper bound on committed op
		// slots — no entry ever commits above its area's persisted cursor, so
		// the scan stops there. A torn or missing cursor only widens the scan
		// back to the full area; it is never load-bearing for correctness.
		for a := 0; a < fs.mlog.areas; a++ {
			bound := metaAreaOpSlots
			if fs.mlog.areaDurable[a].Load() {
				bound = int(fs.mlog.areaHW[a].Load())
				fs.stats.SlotsBounded.Add(int64(metaAreaOpSlots - bound))
			}
			base := a * metaAreaSlots
			for s := 1; s <= bound; s++ {
				scanSlot(base + s)
			}
		}
	}
	ckEpoch := uint8(fs.epoch.Load())
	for key, es := range chains {
		if len(es) != es[0].chainLen {
			continue // incomplete chain: the operation never committed
		}
		if ckOK && int8(es[0].epoch-ckEpoch) < 0 {
			// Stamped strictly before the checkpoint epoch (signed 8-bit
			// window): the cleaner already wrote those subtrees back, so the
			// entry's bitmap flips are dead and may reference records the
			// cleaner has since retired.
			fs.stats.EntriesSkipped.Add(int64(len(es)))
			continue
		}
		f := bySlot[key.slot]
		if f == nil {
			continue
		}
		fs.stats.EntriesReplayed.Add(int64(len(es)))
		for _, e := range es {
			for _, s := range e.slots {
				n := nodes[s.recIdx]
				if n == nil {
					return nil, fmt.Errorf("core: metadata entry references unknown record %d", s.recIdx)
				}
				switch s.kind {
				case opSlotWord:
					n.word.Store(uint64(s.new))
					fs.dir.setWord(ctx, s.recIdx, uint64(s.new))
				case opSlotLogSwap:
					// Complete the copy-on-write relocation: repoint the
					// record at the fresh block (crashed before the swap was
					// applied) or do nothing (the record already points
					// there). The superseded block stays alive only through
					// its snapshot pins.
					if n.logOff != s.logOff {
						old := n.logOff
						fs.dir.setLogOff(ctx, s.recIdx, s.logOff)
						n.logOff = s.logOff
						fs.prov.Alloc().MarkRef(s.logOff, n.span/LeafSpan)
						if old != 0 {
							fs.prov.Alloc().Free(ctx, old, n.span/LeafSpan)
						}
					}
				}
			}
			if e.fileSize > f.size.Load() {
				f.size.Store(e.fileSize)
				f.pf.SetSize(ctx, e.fileSize)
			}
		}
	}

	// Rebuild the snapshot table: a snapshot is live iff its create entry is
	// live and no drop entry cancels it. Live create entries keep their log
	// slot (and its claim) — they are retired only by DropSnapshot.
	keep := make(map[int]bool)
	for _, lc := range creates {
		f := bySlot[lc.e.fileSlot]
		id := uint64(lc.e.offset)
		if f == nil || dropped[id] {
			continue // zeroed below; pins become orphans and are collected
		}
		keep[lc.idx] = true
		fs.mlog.claims[lc.idx].Store(true)
		// The live mark occupies its slot indefinitely; the volatile area
		// high-water must cover it so no later cursor persists below it.
		fs.mlog.floorHW(lc.idx)
		f.snaps = append(f.snaps, &snapshot{id: id, size: lc.e.fileSize, epoch: lc.e.epoch, entry: lc.idx})
		f.refs.Add(1)
		if id > f.maxLiveSnap.Load() {
			f.maxLiveSnap.Store(id)
		}
		if id > maxSeq {
			maxSeq = id
		}
	}
	for _, f := range fs.files {
		sort.Slice(f.snaps, func(i, j int) bool { return f.snaps[i].id < f.snaps[j].id })
	}
	for i := 0; i < fs.mlog.entries; i++ {
		if keep[i] {
			continue
		}
		if fs.mlog.areas > 0 && i%metaAreaSlots == 0 {
			// Area cursor slot: a valid cursor keeps bounding future mounts
			// (a torn one stays torn and the area simply scans fully).
			continue
		}
		// Checksum first, then length — same anti-resurrection order as
		// metaLog.retire: a slot must never hold a checksum-valid corpse that
		// a torn future commit could revive by rewriting the length word.
		// Already-clean slots (the common case on a mostly-idle log) are
		// skipped so the sweep doesn't pay two stores per empty slot.
		off := fs.mlog.off(i)
		if dev.Load8(off+entLen) == 0 && dev.Load8(off+entCksum) == 0 {
			continue
		}
		dev.Store8(ctx, off+entCksum, 0)
		dev.Store8(ctx, off+entLen, 0)
	}
	dev.Fence(ctx)

	// Attach pins to their nodes; orphans (no live snapshot old enough to
	// need them — e.g. a crash between pin creation and the operation's
	// commit, or an interrupted drop) release their record and block
	// reference.
	for _, pp := range pendPins {
		needed := false
		for _, s := range pp.f.snaps {
			if s.id <= pp.id {
				needed = true
				break
			}
		}
		if !needed {
			fs.dir.clear(ctx, pp.recIdx)
			if pp.logOff != 0 && pinRefsLog(pp.span == LeafSpan, pp.word) {
				fs.prov.Alloc().Free(ctx, pp.logOff, pp.span/LeafSpan)
			}
			continue
		}
		n, err := pp.f.attachNode(ctx, pp.span, pp.nidx)
		if err != nil {
			return nil, fmt.Errorf("core: pin record %d: %w", pp.recIdx, err)
		}
		if pp.f.pins == nil {
			pp.f.pins = make(map[*node][]*pin)
		}
		pp.f.pins[n] = append(pp.f.pins[n], &pin{recIdx: pp.recIdx, id: pp.id, logOff: pp.logOff, word: pp.word})
		if pp.id > n.snapSeq.Load() {
			n.snapSeq.Store(pp.id)
		}
	}
	for _, f := range fs.files {
		for _, ps := range f.pins {
			sort.Slice(ps, func(i, j int) bool { return ps[i].id < ps[j].id })
		}
	}
	fs.snapSeq.Store(maxSeq)

	// Pass 4: restore lost existing-bit hints and recompute staleness
	// markers. Every file keeps its rebuilt tree and its logs stay
	// registered with the allocator; the write-back happens at the file's
	// next last close.
	for _, f := range fs.files {
		if r := f.root.Load(); r != nil {
			restoreExisting(r)
			recomputeStale(r)
		}
	}
	dur := ctx.Now() - began
	fs.hMount.Observe(dur)
	fs.trace.Record(ctx.ID, obs.OpRecovery, 0, 0,
		fs.stats.EntriesReplayed.Load(), dur)
	return fs, nil
}

// restoreExisting rebuilds the existing bits of interior nodes that have no
// persistent record (e.g. a root added by mid-run tree growth whose hint
// only ever lived in DRAM). existing=1 is a safe over-approximation, so any
// unrecorded node with live descendants gets it; recorded nodes keep their
// persisted word — a committed existing=0 legitimately shadows stale
// descendants and must not be resurrected. Returns whether the subtree
// carries any bits.
func restoreExisting(n *node) bool {
	if n.leaf {
		return n.word.Load() != 0
	}
	childLive := false
	for i := range n.children {
		if c := n.children[i].Load(); c != nil {
			if restoreExisting(c) {
				childLive = true
			}
		}
	}
	if childLive && n.recIdx.Load() < 0 {
		n.word.Store(n.word.Load() | bitExisting)
	}
	return n.word.Load() != 0
}

// attachNode finds or creates the (span, idx) node in f's tree, growing the
// tree to the persisted capacity first.
func (f *file) attachNode(ctx *sim.Ctx, span, idx int64) (*node, error) {
	capacity := f.pf.Capacity()
	if capacity < span*(idx+1) {
		capacity = span * (idx + 1)
	}
	f.ensureTree(ctx, capacity)
	cur := f.root.Load()
	if span > cur.span {
		return nil, fmt.Errorf("node span %d exceeds root span %d", span, cur.span)
	}
	for cur.span > span {
		cs := cur.childSpan(f.fs.opts.Degree)
		ci := (idx*span - cur.offset()) / cs
		if ci < 0 || ci >= int64(f.fs.opts.Degree) {
			return nil, fmt.Errorf("node (span=%d idx=%d) outside tree", span, idx)
		}
		cur = f.ensureChild(ctx, cur, ci)
	}
	if cur.idx != idx {
		return nil, fmt.Errorf("node index mismatch: got %d want %d", cur.idx, idx)
	}
	return cur, nil
}

// recomputeStale rebuilds the volatile lazy-cleaning markers: an interior
// node whose existing bit is clear but whose descendants still carry bits
// has a stale subtree. Returns whether the subtree carries any bits.
func recomputeStale(n *node) bool {
	if n.leaf {
		return n.word.Load() != 0
	}
	childBits := false
	for i := range n.children {
		if c := n.children[i].Load(); c != nil {
			if recomputeStale(c) {
				childBits = true
			}
		}
	}
	if childBits && n.word.Load()&bitExisting == 0 {
		n.stale.Store(true)
	}
	return childBits || n.word.Load() != 0
}

func le64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}
