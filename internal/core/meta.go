package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"

	"mgsp/internal/nvm"
	"mgsp/internal/obs"
	"mgsp/internal/sim"
)

// ---- node directory ----
//
// Every tree node that has participated in a committed operation owns a
// 64-byte persistent record: tag (file slot, span exponent, index), the
// private log location, and the bitmap word that commit operations update
// with 8-byte atomic stores. Recovery rebuilds all trees by scanning the
// records; record allocation itself is volatile (a free list), rebuilt by
// the same scan.

const (
	recSize   = 64
	recTag    = 0
	recLogOff = 8
	recWord   = 16
	recBirth  = 24 // global snapshot sequence when the record was created
	recSnapID = 32 // pin records: the snapshot sequence the pin freezes up to

	tagInUse = uint64(1) << 63
	// tagSnap marks a snapshot pin record: a frozen (logOff, word) copy of a
	// tree node taken at first copy-on-write after a snapshot. Pin records
	// share the directory with live node records but are not part of any
	// live tree; recovery routes them to the per-file pin tables.
	tagSnap = uint64(1) << 62
)

func packTag(slot int, spanExp int, idx int64) uint64 {
	return tagInUse | uint64(slot)<<48 | uint64(spanExp)<<40 | uint64(idx)
}

func unpackTag(tag uint64) (slot, spanExp int, idx int64) {
	return int(tag >> 48 & 0x3FFF), int(tag >> 40 & 0xFF), int64(tag & (1<<40 - 1))
}

type directory struct {
	dev  *nvm.Device
	base int64
	cap  int64

	mu   sim.Mutex
	next int64
	free []int64

	// hwCell, when tracking is set, is the device offset of the persisted
	// directory high-water mark (the ckptDirHW word of the checkpoint cell);
	// hwPersisted caches the last bound written. The mark never shrinks:
	// record indices are reused through the free list, so lowering it could
	// put live records beyond the recovery scan.
	hwCell      int64
	tracking    bool
	hwPersisted int64
}

func newDirectory(dev *nvm.Device, base, size int64) *directory {
	return &directory{dev: dev, base: base, cap: size / recSize}
}

func (d *directory) off(idx int64) int64 { return d.base + idx*recSize }

// create persists a fresh record (tag with all flag bits already set, log
// location, bitmap word, birth sequence, and — for pin records — the pinned
// snapshot sequence) and returns its index. The body persists and is fenced
// before the tag store publishes it.
func (d *directory) create(ctx *sim.Ctx, tag uint64, logOff int64, word, birth, snapID uint64) int64 {
	d.mu.Lock(ctx)
	var idx int64
	if len(d.free) > 0 {
		idx = d.free[len(d.free)-1]
		d.free = d.free[:len(d.free)-1]
	} else {
		if d.next >= d.cap {
			panic("core: node directory full")
		}
		idx = d.next
		d.next++
	}
	d.noteHighWater(ctx, idx)
	d.mu.Unlock(ctx)

	var buf [recSize]byte
	binary.LittleEndian.PutUint64(buf[recLogOff:], uint64(logOff))
	binary.LittleEndian.PutUint64(buf[recWord:], word)
	binary.LittleEndian.PutUint64(buf[recBirth:], birth)
	binary.LittleEndian.PutUint64(buf[recSnapID:], snapID)
	d.dev.WriteNT(ctx, buf[8:], d.off(idx)+8)
	d.dev.Fence(ctx)
	d.dev.Store8(ctx, d.off(idx)+recTag, tag)
	return idx
}

func (d *directory) setLogOff(ctx *sim.Ctx, idx, logOff int64) {
	d.dev.Store8(ctx, d.off(idx)+recLogOff, uint64(logOff))
	d.dev.Fence(ctx)
}

// setWord atomically updates a record's bitmap word (the commit action).
func (d *directory) setWord(ctx *sim.Ctx, idx int64, w uint64) {
	d.dev.Store8(ctx, d.off(idx)+recWord, w)
}

// clear retires a record (file close / remove).
func (d *directory) clear(ctx *sim.Ctx, idx int64) {
	d.dev.Store8(ctx, d.off(idx)+recTag, 0)
	d.mu.Lock(ctx)
	d.free = append(d.free, idx)
	d.mu.Unlock(ctx)
}

// hwChunk is the rounding granularity of the persisted high-water mark, so
// steady-state record churn does not cost a persist per allocation.
const hwChunk = 1024

// noteHighWater persists an upper bound (exclusive) on live record indices so
// recovery can stop its directory scan early. Callers hold d.mu (or are the
// single-threaded mount path). No-op unless tracking is enabled.
func (d *directory) noteHighWater(ctx *sim.Ctx, idx int64) {
	if !d.tracking || idx < d.hwPersisted {
		return
	}
	hw := (idx/hwChunk + 1) * hwChunk
	if hw > d.cap {
		hw = d.cap
	}
	d.hwPersisted = hw
	d.dev.Store8(ctx, d.hwCell, uint64(hw))
	d.dev.Fence(ctx)
}

// ---- lock-free metadata log (§III-C1) ----

const (
	entrySize  = 128
	entrySlots = 10

	entLen    = 0
	entSlot   = 8
	entOffset = 16
	entSize   = 24
	entMeta   = 32 // count(8b) | chainIdx(8b) | chainLen(8b) | epoch(8b) | group(32b)
	entCksum  = 40
	entData   = 48 // 10 slots x 8 bytes (5 x 16 bytes in the wide format)
)

// Entry kinds, packed into the high byte of the entSlot word (file slots
// occupy only the low byte). Kind 0 keeps the paper's original op-entry
// format bit-identical.
const (
	entKindOp         = 0 // bitmap-flip operation entry (original format)
	entKindSnapCreate = 1 // live snapshot: stays in the log until dropped
	entKindSnapDrop   = 2 // snapshot drop in progress (transient)
	entKindOpSnap     = 3 // op entry with 16-byte slots (word flips + log swaps)
	entKindCursor     = 4 // per-worker area cursor: persisted claim high-water
)

// ---- per-worker home areas ----
//
// The metadata log is organized as metaAreas home areas of metaAreaSlots
// entries each (ROART's NVMMgr gives every thread a thread-local persistent
// area for the same reason: a single shared claim array makes every op a
// cross-core CAS fight). Worker IDs hash to a home area; with at most
// metaAreas foreground workers the hash is a bijection and claims are
// entirely contention-free. Slot 0 of each area is reserved for the area's
// cursor entry (entKindCursor): a checksummed record of the highest op slot
// ever claimed in the area, persisted BEFORE the claiming op may commit, so
// recovery can stop scanning an area at its cursor instead of walking every
// slot of a 16x larger log. The cursor is an upper bound only — if it is
// torn or missing, recovery falls back to scanning the whole area, so it is
// never load-bearing for crash consistency.
const (
	metaAreas     = 64
	metaAreaSlots = 16
	// metaAreaOpSlots is the per-area op-entry capacity (slot 0 is the cursor).
	metaAreaOpSlots = metaAreaSlots - 1
)

// Op-slot kinds. Both op-entry encodings carry the same slot list: the
// narrow entKindOp format (8-byte slots, entrySlots per entry) holds word
// transitions only; the wide entKindOpSnap format (16-byte slots,
// wideEntrySlots per entry) also holds log swaps.
const (
	opSlotWord    = 0 // bitmap word transition
	opSlotLogSwap = 1 // record's private log replaced by a fresh block
)

// wideEntrySlots is the 16-byte-slot capacity of one entKindOpSnap entry.
const wideEntrySlots = 5

// opSlot is one metadata-log slot of an operation: a node's bitmap word
// transition (kind opSlotWord: the old word for undo, the new word for
// redo; only valid bits need recording, existing bits are recovered as safe
// over-approximations) or a private-log replacement (kind opSlotLogSwap:
// the new log offset). A copy-on-write commit needs both for one node,
// atomically, which is what the wide encoding is for.
type opSlot struct {
	recIdx   int64
	kind     int
	old, new uint16
	logOff   int64
}

// opEntryShape returns an op-entry encoding's slot capacity, slot stride
// and short-flush limit: entries with at most short slots persist only
// their first 64 bytes ("MGSP will only flush part of one metadata log
// entry").
func opEntryShape(kind int) (slots, stride, short int) {
	if kind == entKindOpSnap {
		return wideEntrySlots, 16, 1
	}
	return entrySlots, 8, 2
}

// metaLog is the fixed array of 128-byte entries organized into per-worker
// home areas (metaAreaSlots entries each, slot 0 the area cursor) and
// claimed lock-free: a worker probes its home area first and spills to
// neighboring areas only when the home is full. Logs smaller than one area
// (unit-test fixtures) run in legacy flat mode with no areas or cursors.
type metaLog struct {
	dev     *nvm.Device
	base    int64
	entries int
	areas   int // entries / metaAreaSlots; 0 = legacy flat probing
	claims  []atomic.Bool

	// areaHW caches each area's claim high-water (the highest op slot index
	// ever claimed); areaDurable records whether the device cursor entry is
	// known valid. Publishes go through pubMu so the persisted cursor is
	// monotone even when two workers spill into one area concurrently.
	// areaCur is a volatile rotation hint: the next op slot a claim probes
	// first, giving each area round-robin reuse instead of hammering slot 1.
	areaHW      []atomic.Uint32
	areaDurable []atomic.Bool
	areaCur     []atomic.Uint32
	pubMu       []sync.Mutex

	// Observability: probeDist records the probe distance of each claim
	// (0 = first candidate free) and casRetries counts slots lost to a
	// concurrent claimer — together they expose metadata-log contention.
	// cursorWrites counts cursor persists (each is a 64B WriteNT + fence).
	// newMetaLog installs private defaults; FS.initObs re-points them at the
	// registry-backed metrics.
	probeDist    *obs.Histogram
	casRetries   *obs.Counter
	cursorWrites *obs.Counter
}

func newMetaLog(dev *nvm.Device, base int64, entries int) *metaLog {
	m := &metaLog{dev: dev, base: base, entries: entries, claims: make([]atomic.Bool, entries),
		probeDist: &obs.Histogram{}, casRetries: &obs.Counter{}, cursorWrites: &obs.Counter{}}
	if entries >= metaAreaSlots {
		m.areas = entries / metaAreaSlots
		m.areaHW = make([]atomic.Uint32, m.areas)
		m.areaDurable = make([]atomic.Bool, m.areas)
		m.areaCur = make([]atomic.Uint32, m.areas)
		m.pubMu = make([]sync.Mutex, m.areas)
		m.seedCursors()
	}
	return m
}

func (m *metaLog) off(i int) int64 { return m.base + int64(i)*entrySize }

// homeArea maps a worker ID to its home area. Foreground workers 0..63 get
// perfectly disjoint homes (the hash is a bijection on the low six bits);
// sparse background IDs (the cleaner, harness setup) spread via the
// xor-folds instead of all aliasing area 0.
func (m *metaLog) homeArea(worker int) int {
	return sim.WorkerHash(worker) % m.areas
}

// claim obtains a private entry for the worker: hash to the home area, probe
// its op slots from the rotation hint, spill to successive areas when full
// (§III-C1's linear probing, lifted from slot granularity to area
// granularity). It spins only if every entry is claimed. Before returning,
// the area's cursor is raised (and persisted, with a fence) to cover the
// claimed slot — the ordering invariant recovery's bounded scan relies on:
// no entry ever commits in a slot above its area's durable cursor.
func (m *metaLog) claim(ctx *sim.Ctx, worker int) int {
	if m.areas == 0 {
		h := (worker * 0x9E3779B1) & (m.entries - 1)
		for {
			for p := 0; p < m.entries; p++ {
				i := (h + p) & (m.entries - 1)
				ctx.Advance(m.dev.Costs().Atomic)
				if m.claims[i].CompareAndSwap(false, true) {
					m.probeDist.Observe(int64(p))
					return i
				}
				m.casRetries.Add(1)
			}
		}
	}
	home := m.homeArea(worker)
	probes := 0
	for {
		for r := 0; r < m.areas; r++ {
			a := home + r
			if a >= m.areas {
				a -= m.areas
			}
			base := a * metaAreaSlots
			cur := int(m.areaCur[a].Load()) % metaAreaOpSlots
			for p := 0; p < metaAreaOpSlots; p++ {
				s := 1 + (cur+p)%metaAreaOpSlots
				i := base + s
				ctx.Advance(m.dev.Costs().Atomic)
				if m.claims[i].CompareAndSwap(false, true) {
					m.probeDist.Observe(int64(probes))
					m.areaCur[a].Store(uint32((cur + p + 1) % metaAreaOpSlots))
					m.publishHW(ctx, a, s)
					return i
				}
				m.casRetries.Add(1)
				probes++
			}
		}
	}
}

// publishHW raises area a's durable cursor to cover op slot s. The fast path
// is one atomic load: once the cursor covers the area's whole rotation it
// never moves again, so steady state pays no media traffic. The slow path
// serializes per area and re-checks under the lock so the persisted value
// is monotone.
// The volatile mirror is stored only AFTER the cursor entry is durable —
// a concurrent claimer that reads hw >= s may therefore commit immediately.
func (m *metaLog) publishHW(ctx *sim.Ctx, a, s int) {
	if uint32(s) <= m.areaHW[a].Load() && m.areaDurable[a].Load() {
		return
	}
	m.pubMu[a].Lock()
	defer m.pubMu[a].Unlock()
	hw := m.areaHW[a].Load()
	if uint32(s) > hw {
		hw = uint32(s)
	} else if m.areaDurable[a].Load() {
		return
	}
	m.writeCursor(ctx, a, int(hw))
	m.areaHW[a].Store(hw)
	m.areaDurable[a].Store(true)
	m.cursorWrites.Add(1)
}

// writeCursor persists area a's cursor entry (slot 0): kind entKindCursor,
// the area id in the slot word, the high-water in the offset field, fenced.
func (m *metaLog) writeCursor(ctx *sim.Ctx, a, hw int) {
	var buf [entrySize]byte
	binary.LittleEndian.PutUint64(buf[entLen:], 1)
	binary.LittleEndian.PutUint64(buf[entSlot:], uint64(a)|uint64(entKindCursor)<<56)
	binary.LittleEndian.PutUint64(buf[entOffset:], uint64(hw))
	binary.LittleEndian.PutUint64(buf[entCksum:], entryChecksum(buf[:64]))
	m.dev.WriteNT(ctx, buf[:64], m.off(a*metaAreaSlots))
	m.dev.Fence(ctx)
}

// cursorBound validates a decoded entry as area a's cursor and returns its
// claim high-water. The range check keeps a checksummed-but-foreign value
// (another area's cursor, a scribbled offset) from sending recovery's
// bounded scan outside the area's op slots.
func cursorBound(e logEntry, a int) (hw int, ok bool) {
	if e.kind != entKindCursor || e.fileSlot != a {
		return 0, false
	}
	if e.offset < 1 || e.offset > metaAreaOpSlots {
		return 0, false
	}
	return int(e.offset), true
}

// readCursor decodes area a's cursor entry straight off the device (mount
// path; unmetered like the checkpoint-cell read).
func (m *metaLog) readCursor(a int) (hw int, ok bool) {
	var buf [entrySize]byte
	off := m.off(a * metaAreaSlots)
	for i := 0; i < 64; i += 8 {
		binary.LittleEndian.PutUint64(buf[i:], m.dev.Load8(off+int64(i)))
	}
	e, ok := decodeEntry(buf[:])
	if !ok {
		return 0, false
	}
	return cursorBound(e, a)
}

// seedCursors initializes the volatile high-water mirrors from the device.
// A fresh device decodes no cursors and every area starts at zero; a reused
// device seeds the persisted bounds so publishes stay monotone across
// mounts (a lower fresh claim must not shrink the durable cursor while
// older entries could still sit above it).
func (m *metaLog) seedCursors() {
	for a := 0; a < m.areas; a++ {
		if hw, ok := m.readCursor(a); ok {
			m.areaHW[a].Store(uint32(hw))
			m.areaDurable[a].Store(true)
		}
	}
}

// floorHW raises area bookkeeping for a kept (still-claimed) entry found by
// recovery — live snapshot marks survive mounts in their slots, and the
// volatile high-water must cover them so later publishes never persist a
// cursor below a live entry. Volatile only: if the device cursor already
// covered i it stays valid, and if it was torn the area scans fully until
// a future publish rewrites it at or above this floor.
func (m *metaLog) floorHW(i int) {
	if m.areas == 0 {
		return
	}
	a := i / metaAreaSlots
	s := uint32(i % metaAreaSlots)
	for {
		hw := m.areaHW[a].Load()
		if s <= hw || m.areaHW[a].CompareAndSwap(hw, s) {
			return
		}
	}
}

// commitOp persists one operation's slots as its metadata-log entry chain
// and returns the extra entries the chain claimed, for the caller to retire
// once the slots are applied. The chain uses the narrow entKindOp encoding
// unless a slot swaps a log, then the wide entKindOpSnap one. Most
// operations need a single entry; ops whose slots overflow one entry chain
// several, identified by a group id, and the chain commits atomically:
// entries persist in order, the first entry last, and recovery only applies
// complete chains.
func (m *metaLog) commitOp(ctx *sim.Ctx, entry, worker, fileSlot int, offset, length, fileSize int64,
	slots []opSlot, group uint32, epoch uint8) []int {
	kind := entKindOp
	for _, s := range slots {
		if s.kind == opSlotLogSwap {
			kind = entKindOpSnap
			break
		}
	}
	per, _, _ := opEntryShape(kind)
	chainLen := (len(slots) + per - 1) / per
	if chainLen == 0 {
		chainLen = 1
	}
	extra := make([]int, 0, chainLen-1)
	for i := 1; i < chainLen; i++ {
		e := m.claim(ctx, worker+i)
		extra = append(extra, e)
		m.commit(ctx, e, kind, fileSlot, offset, length, fileSize,
			slots[i*per:min((i+1)*per, len(slots))], group, i, chainLen, epoch)
	}
	// The first entry persists last: it completes the chain, making it the
	// commit point.
	m.commit(ctx, entry, kind, fileSlot, offset, length, fileSize,
		slots[:min(per, len(slots))], group, 0, chainLen, epoch)
	return extra
}

// commit persists one entry of an operation's chain in op-entry encoding
// kind (entKindOp or entKindOpSnap): header + slots + checksum, flushing
// only the first 64 bytes when the slots fit the encoding's short-flush
// limit.
func (m *metaLog) commit(ctx *sim.Ctx, i, kind, fileSlot int, offset, length, fileSize int64,
	slots []opSlot, group uint32, chainIdx, chainLen int, epoch uint8) {
	per, stride, short := opEntryShape(kind)
	if len(slots) > per {
		panic(fmt.Sprintf("core: %d slots exceed the %d per entry", len(slots), per))
	}
	var buf [entrySize]byte
	binary.LittleEndian.PutUint64(buf[entLen:], uint64(length))
	binary.LittleEndian.PutUint64(buf[entSlot:], uint64(fileSlot)|uint64(kind)<<56)
	binary.LittleEndian.PutUint64(buf[entOffset:], uint64(offset))
	binary.LittleEndian.PutUint64(buf[entSize:], uint64(fileSize))
	meta := uint64(len(slots)) | uint64(chainIdx)<<8 | uint64(chainLen)<<16 |
		uint64(epoch)<<24 | uint64(group)<<32
	binary.LittleEndian.PutUint64(buf[entMeta:], meta)
	for k, s := range slots {
		at := entData + k*stride
		if kind == entKindOp {
			if s.kind != opSlotWord {
				panic("core: a log swap in a narrow op entry")
			}
			binary.LittleEndian.PutUint64(buf[at:],
				uint64(uint32(s.recIdx))|uint64(s.old)<<32|uint64(s.new)<<48)
			continue
		}
		binary.LittleEndian.PutUint64(buf[at:], uint64(uint32(s.recIdx))|uint64(s.kind)<<32)
		payload := uint64(s.old) | uint64(s.new)<<16
		if s.kind == opSlotLogSwap {
			payload = uint64(s.logOff)
		}
		binary.LittleEndian.PutUint64(buf[at+8:], payload)
	}
	n := entrySize
	if len(slots) <= short {
		n = 64
	}
	binary.LittleEndian.PutUint64(buf[entCksum:], entryChecksum(buf[:n]))
	m.dev.WriteNT(ctx, buf[:n], m.off(i))
	m.dev.Fence(ctx)
}

// commitSnapshotMark persists a snapshot lifecycle entry (entKindSnapCreate
// or entKindSnapDrop): the snapshot sequence number rides in the offset
// field and the frozen file size in the size field. A create entry is the
// snapshot's commit point and persistent existence — it is NOT retired until
// the snapshot is dropped, so it permanently occupies one metadata-log slot.
func (m *metaLog) commitSnapshotMark(ctx *sim.Ctx, i, kind, fileSlot int, snapID uint64, fileSize int64, epoch uint8) {
	var buf [entrySize]byte
	binary.LittleEndian.PutUint64(buf[entLen:], 1)
	binary.LittleEndian.PutUint64(buf[entSlot:], uint64(fileSlot)|uint64(kind)<<56)
	binary.LittleEndian.PutUint64(buf[entOffset:], snapID)
	binary.LittleEndian.PutUint64(buf[entSize:], uint64(fileSize))
	binary.LittleEndian.PutUint64(buf[entMeta:], uint64(epoch)<<24)
	binary.LittleEndian.PutUint64(buf[entCksum:], entryChecksum(buf[:64]))
	m.dev.WriteNT(ctx, buf[:64], m.off(i))
	m.dev.Fence(ctx)
}

// retire marks the entry outdated ("the length in the log will be set to 0")
// and releases the claim.
func (m *metaLog) retire(ctx *sim.Ctx, i int) {
	// Kill the checksum before the length. Zeroing only the length leaves a
	// checksum-valid corpse in the slot: when the slot is reused, a torn
	// re-commit persists some 8-byte-aligned prefix of the new entry over the
	// old bytes, and a prefix that stops before the checksum field revives the
	// length word while the header fields (file slot, offset, size) often
	// match the old entry byte for byte — resurrecting the retired entry
	// bit-identically, with its stale undo/redo words, for recovery to replay
	// over state that later operations have long since moved past. With the
	// checksum zeroed first, a torn prefix short of the new checksum fails
	// validation, and one past it fails over the stale slot data.
	m.dev.Store8(ctx, m.off(i)+entCksum, 0)
	m.dev.Store8(ctx, m.off(i)+entLen, 0)
	m.claims[i].Store(false)
}

// entryChecksum hashes the entry with the checksum field zeroed.
func entryChecksum(b []byte) uint64 {
	var tmp [entrySize]byte
	copy(tmp[:], b)
	for i := entCksum; i < entCksum+8; i++ {
		tmp[i] = 0
	}
	return uint64(crc32.ChecksumIEEE(tmp[:len(b)]))
}

// logEntry is a decoded metadata-log entry.
type logEntry struct {
	kind     int
	fileSlot int
	offset   int64 // snapshot entries: the snapshot sequence number
	length   int64
	fileSize int64
	slots    []opSlot
	group    uint32
	chainIdx int
	chainLen int
	epoch    uint8
}

// ---- checkpoint cell ----
//
// One extra 128-byte cell between the metadata log and the node directory
// persists the cleaner's checkpoint: the epoch below which Mount may skip
// metadata-log replay (everything older has been written back to the
// fallback), plus cumulative pass counters for tools. The cell's ckptDirHW
// word independently tracks the directory high-water mark so recovery can
// bound its record scan; it is written by noteHighWater and deliberately
// excluded from the header checksum.

const (
	ckptEpoch     = 0
	ckptPasses    = 8
	ckptReclaimed = 16
	ckptCksum     = 24
	ckptHdrBytes  = 32
	ckptDirHW     = 56
)

type checkpoint struct {
	epoch     uint64
	passes    uint64
	reclaimed uint64
}

// writeCheckpointCell persists the checkpoint header with one non-temporal
// write and a fence. A torn header fails the CRC and reads as "no
// checkpoint", which only costs recovery speed, never correctness.
func writeCheckpointCell(ctx *sim.Ctx, dev *nvm.Device, off int64, ck checkpoint) {
	var buf [ckptHdrBytes]byte
	binary.LittleEndian.PutUint64(buf[ckptEpoch:], ck.epoch)
	binary.LittleEndian.PutUint64(buf[ckptPasses:], ck.passes)
	binary.LittleEndian.PutUint64(buf[ckptReclaimed:], ck.reclaimed)
	binary.LittleEndian.PutUint64(buf[ckptCksum:], uint64(crc32.ChecksumIEEE(buf[:ckptCksum])))
	dev.WriteNT(ctx, buf[:], off)
	dev.Fence(ctx)
}

// readCheckpointCell decodes the checkpoint header; ok is false when no
// checkpoint was ever taken (epoch 0, or an all-zero cell) or the header is
// torn.
func readCheckpointCell(dev *nvm.Device, off int64) (ck checkpoint, ok bool) {
	var buf [ckptHdrBytes]byte
	for i := 0; i < ckptHdrBytes; i += 8 {
		binary.LittleEndian.PutUint64(buf[i:], dev.Load8(off+int64(i)))
	}
	if binary.LittleEndian.Uint64(buf[ckptCksum:]) != uint64(crc32.ChecksumIEEE(buf[:ckptCksum])) {
		return ck, false
	}
	ck.epoch = binary.LittleEndian.Uint64(buf[ckptEpoch:])
	ck.passes = binary.LittleEndian.Uint64(buf[ckptPasses:])
	ck.reclaimed = binary.LittleEndian.Uint64(buf[ckptReclaimed:])
	return ck, ck.epoch > 0
}

// decodeEntry validates and decodes a metadata log entry read from the
// device; ok is false for retired or torn entries.
func decodeEntry(b []byte) (e logEntry, ok bool) {
	e.length = int64(binary.LittleEndian.Uint64(b[entLen:]))
	if e.length == 0 {
		return e, false
	}
	slotWord := binary.LittleEndian.Uint64(b[entSlot:])
	e.kind = int(slotWord >> 56)
	meta := binary.LittleEndian.Uint64(b[entMeta:])
	count := int(meta & 0xFF)
	var n int
	switch e.kind {
	case entKindOp, entKindOpSnap:
		per, _, short := opEntryShape(e.kind)
		if count > per {
			return e, false
		}
		n = entrySize
		if count <= short {
			n = 64
		}
	case entKindSnapCreate, entKindSnapDrop:
		if count != 0 {
			return e, false
		}
		n = 64
	case entKindCursor:
		// Area cursors carry no slots: the area id rides in the file-slot
		// field and the claim high-water in the offset field.
		if count != 0 {
			return e, false
		}
		n = 64
	default:
		return e, false
	}
	if entryChecksum(b[:n]) != binary.LittleEndian.Uint64(b[entCksum:]) {
		return e, false
	}
	e.fileSlot = int(slotWord & (1<<56 - 1))
	e.offset = int64(binary.LittleEndian.Uint64(b[entOffset:]))
	e.fileSize = int64(binary.LittleEndian.Uint64(b[entSize:]))
	e.chainIdx = int(meta >> 8 & 0xFF)
	e.chainLen = int(meta >> 16 & 0xFF)
	e.epoch = uint8(meta >> 24)
	e.group = uint32(meta >> 32)
	_, stride, _ := opEntryShape(e.kind)
	for k := 0; k < count; k++ {
		at := entData + k*stride
		w := binary.LittleEndian.Uint64(b[at:])
		s := opSlot{recIdx: int64(uint32(w))}
		if e.kind == entKindOp {
			s.old, s.new = uint16(w>>32), uint16(w>>48)
		} else {
			p := binary.LittleEndian.Uint64(b[at+8:])
			s.kind = int(w >> 32 & 0xFF)
			if s.kind == opSlotLogSwap {
				s.logOff = int64(p)
			} else {
				s.old, s.new = uint16(p), uint16(p>>16)
			}
		}
		e.slots = append(e.slots, s)
	}
	return e, true
}
