package core

import (
	"errors"

	"mgsp/internal/nvm"
	"mgsp/internal/pmfile"
	"mgsp/internal/sim"
)

// CorruptDirectoryRecord deliberately damages an MGSP image so that fsck
// integration tests can assert Mount refuses it. It picks an in-use
// directory record, plants a committed single-entry metadata-log chain that
// flips that record's bitmap word, and then clears the record's tag — the
// state a lost directory store would leave behind. Mount must fail with
// "metadata entry references unknown record" rather than replay a flip into
// a record it cannot identify. It returns the index of the corrupted record.
//
// The image must be quiescent (no mounted FS using the device).
func CorruptDirectoryRecord(dev *nvm.Device, opts Options) (int64, error) {
	if err := opts.validate(); err != nil {
		return -1, err
	}
	ctx := sim.NewCtx(0, 0)
	prov, err := pmfile.Recover(ctx, dev, MetaBytes(dev.Size()))
	if err != nil {
		return -1, err
	}
	fs := mkFS(prov, opts)

	// Victim: the first live (non-pin) record of an existing file.
	victim := int64(-1)
	slot := -1
	for idx := int64(0); idx < fs.dir.cap; idx++ {
		tag := dev.Load8(fs.dir.off(idx) + recTag)
		if tag&tagInUse == 0 || tag&tagSnap != 0 {
			continue
		}
		s, _, _ := unpackTag(tag)
		for _, pf := range prov.Files() {
			if pf.Slot() == s {
				victim, slot = idx, s
				break
			}
		}
		if victim >= 0 {
			break
		}
	}
	if victim < 0 {
		return -1, errors.New("core: no in-use directory record to corrupt")
	}

	// A free metadata-log entry to plant the orphaned chain in.
	entry := -1
	var ebuf [entrySize]byte
	for i := 0; i < fs.mlog.entries; i++ {
		dev.Read(ctx, ebuf[:], fs.mlog.off(i))
		if _, ok := decodeEntry(ebuf[:]); !ok {
			entry = i
			break
		}
	}
	if entry < 0 {
		return -1, errors.New("core: metadata log full; cannot plant entry")
	}

	epoch := uint8(0)
	if ck, ok := readCheckpointCell(dev, fs.ckptOff); ok {
		epoch = uint8(ck.epoch) // not pre-checkpoint, so replay cannot skip it
	}
	fs.mlog.commit(ctx, entry, entKindOp, slot, 0, 8, 8,
		[]opSlot{{recIdx: victim, old: 0, new: 1}}, 0, 0, 1, epoch)
	dev.Store8(ctx, fs.dir.off(victim)+recTag, 0)
	dev.Fence(ctx)
	return victim, nil
}
