package core

import (
	"bytes"
	"reflect"
	"testing"

	"mgsp/internal/nvm"
	"mgsp/internal/sim"
)

// fuzzSeedEntries commits one entry of every kind/width through the real
// metaLog encoders and returns the raw bytes, so the fuzzer starts from
// valid corpus entries rather than having to forge a CRC.
func fuzzSeedEntries() [][]byte {
	dev := nvm.New(1<<20, sim.ZeroCosts())
	ctx := sim.NewCtx(0, 1)
	m := newMetaLog(dev, 0, 16)

	m.commit(ctx, 0, entKindOp, 3, 4096, 8192, 1<<20,
		[]opSlot{{recIdx: 7, old: 0x00ff, new: 0xff00}}, 9, 0, 1, 2) // 64-byte op
	m.commit(ctx, 1, entKindOp, 5, 0, 64, 1<<16, []opSlot{
		{recIdx: 1, old: 1, new: 3}, {recIdx: 2, old: 0, new: 1}, {recIdx: 3, old: 7, new: 0xf},
		{recIdx: 4, old: 0, new: 0x10}, {recIdx: 5, old: 2, new: 6},
	}, 12, 1, 2, 0) // 128-byte op chain member
	m.commit(ctx, 2, entKindOpSnap, 4, 512, 1024, 1<<18,
		[]opSlot{{recIdx: 11, kind: opSlotWord, old: 1, new: 3}}, 0, 0, 1, 1) // 64-byte snap-op
	m.commit(ctx, 3, entKindOpSnap, 4, 0, 4096, 1<<18, []opSlot{
		{recIdx: 11, kind: opSlotWord, old: 1, new: 3},
		{recIdx: 12, kind: opSlotLogSwap, logOff: 1 << 14},
	}, 7, 0, 1, 1) // 128-byte snap-op with a log swap
	m.commitSnapshotMark(ctx, 4, entKindSnapCreate, 2, 9, 1<<12, 1)
	m.commitSnapshotMark(ctx, 5, entKindSnapDrop, 2, 9, 0, 1)

	out := make([][]byte, 0, 6)
	for i := 0; i < 6; i++ {
		buf := make([]byte, entrySize)
		dev.Read(ctx, buf, m.off(i))
		out = append(out, buf)
	}
	return out
}

// coveredBytes reports how many leading bytes of a decoded entry are under
// its checksum — the short-flush width commit actually persisted.
func coveredBytes(e logEntry) int {
	switch e.kind {
	case entKindOp, entKindOpSnap:
		if _, _, short := opEntryShape(e.kind); len(e.slots) <= short {
			return 64
		}
	case entKindSnapCreate, entKindSnapDrop, entKindCursor:
		return 64
	}
	return entrySize
}

// FuzzDecodeEntry drives decodeEntry with arbitrary 128-byte records and
// checks the crash-safety contract of the metadata log:
//
//   - decode never panics, whatever the bytes (a torn or scribbled entry is
//     data, not a crash);
//   - any single-bit flip inside the checksummed prefix of a valid entry is
//     rejected — a corrupted entry must read as "retired", never replay;
//   - flips past the checksummed prefix (bytes the short flush never wrote)
//     leave the decode bit-identical.
func FuzzDecodeEntry(f *testing.F) {
	for _, seed := range fuzzSeedEntries() {
		f.Add(seed)
	}
	f.Add(make([]byte, entrySize))
	f.Add(bytes.Repeat([]byte{0xff}, entrySize))

	f.Fuzz(func(t *testing.T, data []byte) {
		buf := make([]byte, entrySize)
		copy(buf, data)
		e, ok := decodeEntry(buf)
		if !ok {
			return
		}
		n := coveredBytes(e)
		flipped := make([]byte, entrySize)
		for bit := 0; bit < n*8; bit++ {
			copy(flipped, buf)
			flipped[bit/8] ^= 1 << (bit % 8)
			if fe, fok := decodeEntry(flipped); fok {
				t.Fatalf("bit flip at %d (covered %d bytes) accepted: %+v", bit, n, fe)
			}
		}
		for bit := n * 8; bit < entrySize*8; bit++ {
			copy(flipped, buf)
			flipped[bit/8] ^= 1 << (bit % 8)
			fe, fok := decodeEntry(flipped)
			if !fok || !reflect.DeepEqual(fe, e) {
				t.Fatalf("flip at uncovered bit %d changed the decode (ok=%v)", bit, fok)
			}
		}
	})
}

// fuzzOpSlots turns fuzz bytes into a canonical op-slot list, six bytes a
// slot (at most 64 slots): a word flip carries only old/new, a log swap only
// its log offset — exactly what the decoder reports back. Record indices
// stay below 1<<16, so no encoded slot word can match opEntryPoison.
func fuzzOpSlots(data []byte) []opSlot {
	var slots []opSlot
	for len(data) >= 6 && len(slots) < 64 {
		b := data[:6]
		data = data[6:]
		s := opSlot{recIdx: int64(b[1]) | int64(b[2])<<8}
		if b[0]&1 != 0 {
			s.kind = opSlotLogSwap
			s.logOff = (int64(b[3]) | int64(b[4])<<8 | int64(b[5])<<16) << 12
		} else {
			s.old = uint16(b[3]) | uint16(b[0]>>1)<<8
			s.new = uint16(b[4]) | uint16(b[5])<<8
		}
		slots = append(slots, s)
	}
	return slots
}

// opEntryPoison pre-fills every log slot past its first 64 bytes, so an
// entry that persisted only its first 64 bytes still shows the poison there.
const opEntryPoison = 0xA5

// FuzzOpEntryRoundTrip commits an arbitrary list of word-flip and log-swap
// slots through the one chain committer (metaLog.commitOp), then decodes
// every entry of the chain and reassembles it:
//
//   - the reassembled slots equal the input;
//   - every entry is entKindOp exactly when no slot swaps a log;
//   - the chain splits at entrySlots narrow or wideEntrySlots wide slots;
//   - an entry persists only its first 64 bytes exactly when it holds at
//     most two narrow or one wide slot.
func FuzzOpEntryRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 7, 0, 1, 2, 0})
	f.Add(bytes.Repeat([]byte{2, 9, 1, 3, 4, 5}, 3))
	f.Add(bytes.Repeat([]byte{4, 1, 0, 0, 0xff, 0xff}, 11))
	f.Add([]byte{1, 3, 0, 1, 0, 0})
	f.Add(bytes.Repeat([]byte{0, 5, 0, 1, 2, 3, 1, 5, 0, 9, 0, 0}, 6))

	f.Fuzz(func(t *testing.T, data []byte) {
		slots := fuzzOpSlots(data)
		dev := nvm.New(1<<20, sim.ZeroCosts())
		ctx := sim.NewCtx(0, 1)
		m := newMetaLog(dev, 0, metaAreas*metaAreaSlots)
		poison := bytes.Repeat([]byte{opEntryPoison}, entrySize-64)
		for i := 0; i < m.entries; i++ {
			dev.WriteNT(ctx, poison, m.off(i)+64)
		}
		dev.Fence(ctx)

		kind := entKindOp
		for _, s := range slots {
			if s.kind == opSlotLogSwap {
				kind = entKindOpSnap
			}
		}
		per, _, short := opEntryShape(kind)
		chainLen := max(1, (len(slots)+per-1)/per)

		entry := m.claim(ctx, 0)
		extra := m.commitOp(ctx, entry, 0, 3, 4096, int64(len(data))+1, 1<<20, slots, 77, 5)
		if len(extra)+1 != chainLen {
			t.Fatalf("%d slots of kind %d: chain of %d entries, want %d", len(slots), kind, len(extra)+1, chainLen)
		}
		var got []opSlot
		for ci, i := range append([]int{entry}, extra...) {
			raw := dev.Inspect(m.off(i), entrySize)
			e, ok := decodeEntry(raw)
			if !ok {
				t.Fatalf("chain entry %d does not decode", ci)
			}
			if e.kind != kind || e.chainIdx != ci || e.chainLen != chainLen || e.group != 77 || e.epoch != 5 {
				t.Fatalf("chain entry %d: kind %d idx %d/%d group %d epoch %d", ci, e.kind, e.chainIdx, e.chainLen, e.group, e.epoch)
			}
			if want := min(per, len(slots)-ci*per); len(e.slots) != want {
				t.Fatalf("chain entry %d holds %d slots, want %d", ci, len(e.slots), want)
			}
			if isShort := bytes.Equal(raw[64:], poison); isShort != (len(e.slots) <= short) {
				t.Fatalf("chain entry %d (%d slots, kind %d): short flush %v", ci, len(e.slots), kind, isShort)
			}
			got = append(got, e.slots...)
		}
		if len(got) != len(slots) || (len(got) > 0 && !reflect.DeepEqual(got, slots)) {
			t.Fatalf("round trip:\n got %+v\nwant %+v", got, slots)
		}
	})
}

// fuzzSeedCursors persists per-worker area cursors through the real
// writeCursor encoder and returns the raw 64-byte-significant entries (padded
// to entrySize), so the cursor fuzzer starts from checksum-valid corpus.
func fuzzSeedCursors() [][]byte {
	dev := nvm.New(1<<20, sim.ZeroCosts())
	ctx := sim.NewCtx(0, 1)
	m := newMetaLog(dev, 0, metaAreas*metaAreaSlots)

	out := make([][]byte, 0, 3)
	for _, c := range []struct{ a, hw int }{{0, 1}, {3, metaAreaOpSlots}, {metaAreas - 1, 7}} {
		m.writeCursor(ctx, c.a, c.hw)
		buf := make([]byte, entrySize)
		dev.Read(ctx, buf, m.off(c.a*metaAreaSlots))
		out = append(out, buf)
	}
	return out
}

// FuzzDecodeCursor drives the per-worker area-cursor decode path
// (decodeEntry + cursorBound) with arbitrary bytes. The cursor is an upper
// bound only — recovery falls back to a full-area scan when it is missing —
// but an ACCEPTED cursor is load-bearing for the bounded scan, so the
// contract is strict:
//
//   - decode never panics, whatever the bytes;
//   - cursorBound only accepts entries of kind entKindCursor whose area id
//     matches and whose high-water lies in [1, metaAreaOpSlots] — a
//     checksummed-but-foreign entry (wrong area, scribbled offset) must not
//     bound another area's scan;
//   - any single-bit flip inside the checksummed 64-byte prefix of a valid
//     cursor is rejected, so a torn cursor write degrades to the full scan
//     instead of truncating it.
func FuzzDecodeCursor(f *testing.F) {
	for _, seed := range fuzzSeedCursors() {
		f.Add(seed)
	}
	f.Add(make([]byte, entrySize))
	f.Add(bytes.Repeat([]byte{0xff}, entrySize))

	f.Fuzz(func(t *testing.T, data []byte) {
		buf := make([]byte, entrySize)
		copy(buf, data)
		e, ok := decodeEntry(buf)
		if !ok {
			for a := 0; a < metaAreas; a++ {
				if hw, bok := cursorBound(e, a); bok {
					t.Fatalf("cursorBound accepted an invalid decode (area %d, hw %d)", a, hw)
				}
			}
			return
		}
		accepted := 0
		for a := 0; a < metaAreas; a++ {
			hw, bok := cursorBound(e, a)
			if !bok {
				continue
			}
			accepted++
			if e.kind != entKindCursor {
				t.Fatalf("cursorBound accepted kind %d as a cursor", e.kind)
			}
			if e.fileSlot != a {
				t.Fatalf("cursorBound bound area %d with area %d's cursor", a, e.fileSlot)
			}
			if hw < 1 || hw > metaAreaOpSlots {
				t.Fatalf("cursorBound returned out-of-range high-water %d", hw)
			}
		}
		if accepted > 1 {
			t.Fatalf("cursor accepted by %d distinct areas", accepted)
		}
		if e.kind != entKindCursor {
			return
		}
		flipped := make([]byte, entrySize)
		for bit := 0; bit < 64*8; bit++ {
			copy(flipped, buf)
			flipped[bit/8] ^= 1 << (bit % 8)
			if fe, fok := decodeEntry(flipped); fok {
				t.Fatalf("cursor bit flip at %d accepted: %+v", bit, fe)
			}
		}
	})
}
