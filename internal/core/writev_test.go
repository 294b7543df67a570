package core

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"mgsp/internal/nvm"
	"mgsp/internal/sim"
)

func TestWriteMultiBasic(t *testing.T) {
	fs, ctx := newTestFS(smallTreeOpts())
	h, _ := fs.Create(ctx, "f")
	hh := h.(*handle)
	base := bytes.Repeat([]byte{0x10}, 64*1024)
	h.WriteAt(ctx, base, 0)

	err := hh.WriteMulti(ctx, []Update{
		{Off: 100, Data: bytes.Repeat([]byte{0xA1}, 300)},
		{Off: 9000, Data: bytes.Repeat([]byte{0xA2}, 5000)},
		{Off: 40000, Data: bytes.Repeat([]byte{0xA3}, 4096)},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte{}, base...)
	copy(want[100:], bytes.Repeat([]byte{0xA1}, 300))
	copy(want[9000:], bytes.Repeat([]byte{0xA2}, 5000))
	copy(want[40000:], bytes.Repeat([]byte{0xA3}, 4096))
	got := make([]byte, len(base))
	h.ReadAt(ctx, got, 0)
	if !bytes.Equal(got, want) {
		t.Fatal("multi-write content mismatch")
	}
}

func TestWriteMultiSameLeaf(t *testing.T) {
	fs, ctx := newTestFS(DefaultOptions())
	h, _ := fs.Create(ctx, "f")
	hh := h.(*handle)
	h.WriteAt(ctx, bytes.Repeat([]byte{0x55}, 8192), 0)

	// Three updates inside one 4K leaf, two sharing a 512B unit.
	err := hh.WriteMulti(ctx, []Update{
		{Off: 10, Data: bytes.Repeat([]byte{1}, 50)},
		{Off: 100, Data: bytes.Repeat([]byte{2}, 50)}, // same unit as the first
		{Off: 3000, Data: bytes.Repeat([]byte{3}, 500)},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{0x55}, 8192)
	copy(want[10:], bytes.Repeat([]byte{1}, 50))
	copy(want[100:], bytes.Repeat([]byte{2}, 50))
	copy(want[3000:], bytes.Repeat([]byte{3}, 500))
	got := make([]byte, 8192)
	h.ReadAt(ctx, got, 0)
	if !bytes.Equal(got, want) {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("byte %d: got %#x want %#x", i, got[i], want[i])
			}
		}
	}
}

func TestWriteMultiOverlapRejected(t *testing.T) {
	fs, ctx := newTestFS(DefaultOptions())
	h, _ := fs.Create(ctx, "f")
	hh := h.(*handle)
	err := hh.WriteMulti(ctx, []Update{
		{Off: 0, Data: make([]byte, 100)},
		{Off: 50, Data: make([]byte, 100)},
	})
	if err == nil {
		t.Fatal("overlapping updates accepted")
	}
}

// TestWriteMultiEmptyUpdates: empty updates are skipped before the extent
// and overlap checks, so they neither grow the file nor collide with the
// update around them, and a call with nothing to write changes nothing.
func TestWriteMultiEmptyUpdates(t *testing.T) {
	fs, ctx := newTestFS(DefaultOptions())
	h, _ := fs.Create(ctx, "f")
	hh := h.(*handle)
	want := bytes.Repeat([]byte{0x42}, 4096)
	h.WriteAt(ctx, want, 0)
	writes := fs.Stats().Writes.Load()

	if err := hh.WriteMulti(ctx, []Update{{Off: 1 << 20, Data: nil}}); err != nil {
		t.Fatalf("all-empty WriteMulti: %v", err)
	}
	if n, err := h.WriteAt(ctx, nil, 1<<20); n != 0 || err != nil {
		t.Fatalf("empty WriteAt = %d, %v", n, err)
	}
	if got := fs.Stats().Writes.Load(); got != writes {
		t.Fatalf("empty calls counted as %d writes", got-writes)
	}
	if err := hh.WriteMulti(ctx, []Update{{Off: 0, Data: []byte{7}}, {Off: 2 << 20, Data: nil}}); err != nil {
		t.Fatalf("WriteMulti with a trailing empty update: %v", err)
	}
	want[0] = 7
	if err := hh.WriteMulti(ctx, []Update{
		{Off: 100, Data: bytes.Repeat([]byte{9}, 100)},
		{Off: 150, Data: nil},
	}); err != nil {
		t.Fatalf("empty update inside another: %v", err)
	}
	copy(want[100:], bytes.Repeat([]byte{9}, 100))
	if h.Size() != int64(len(want)) {
		t.Fatalf("size = %d, want %d", h.Size(), len(want))
	}
	got := make([]byte, len(want))
	h.ReadAt(ctx, got, 0)
	if !bytes.Equal(got, want) {
		t.Fatal("content mismatch")
	}
}

// TestWriteMultiOverflowRejected: an update whose end lies past
// math.MaxInt64 fails the whole call, and nothing of it is applied.
func TestWriteMultiOverflowRejected(t *testing.T) {
	fs, ctx := newTestFS(DefaultOptions())
	h, _ := fs.Create(ctx, "f")
	hh := h.(*handle)
	want := bytes.Repeat([]byte{0x42}, 4096)
	h.WriteAt(ctx, want, 0)
	for _, ups := range [][]Update{
		{{Off: math.MaxInt64 - 10, Data: make([]byte, 100)}},
		{{Off: 0, Data: []byte{1}}, {Off: math.MaxInt64 - 10, Data: make([]byte, 100)}},
	} {
		if err := hh.WriteMulti(ctx, ups); err == nil {
			t.Fatalf("WriteMulti(%d updates) accepted an overflowing update", len(ups))
		}
	}
	if h.Size() != int64(len(want)) {
		t.Fatalf("size = %d, want %d", h.Size(), len(want))
	}
	got := make([]byte, len(want))
	h.ReadAt(ctx, got, 0)
	if !bytes.Equal(got, want) {
		t.Fatal("content changed by a rejected write")
	}
}

// TestWriteMultiCrashAtomicity: all ranges commit together or not at all —
// the transaction-level atomicity the paper leaves as future work.
func TestWriteMultiCrashAtomicity(t *testing.T) {
	opts := smallTreeOpts()
	for fail := int64(1); ; fail += 2 {
		dev := nvm.New(64<<20, sim.ZeroCosts())
		fs := MustNew(dev, opts)
		ctx := sim.NewCtx(0, fail)
		h, _ := fs.Create(ctx, "f")
		hh := h.(*handle)
		h.WriteAt(ctx, bytes.Repeat([]byte{0xEE}, 128*1024), 0)

		updates := []Update{
			{Off: 500, Data: bytes.Repeat([]byte{1}, 2000)},
			{Off: 30000, Data: bytes.Repeat([]byte{2}, 8192)},
			{Off: 100000, Data: bytes.Repeat([]byte{3}, 700)},
		}
		dev.ArmCrash(fail, fail)
		hh.WriteMulti(ctx, updates)
		if !dev.Crashed() {
			if fail == 1 {
				t.Fatal("sweep never crashed")
			}
			return
		}
		dev.Recover()
		fs2, err := Mount(ctx, dev, opts)
		if err != nil {
			t.Fatalf("fail=%d: %v", fail, err)
		}
		f2, _ := fs2.Open(ctx, "f")
		got := make([]byte, 128*1024)
		f2.ReadAt(ctx, got, 0)

		before := bytes.Repeat([]byte{0xEE}, 128*1024)
		after := append([]byte{}, before...)
		for _, u := range updates {
			copy(after[u.Off:], u.Data)
		}
		if !bytes.Equal(got, before) && !bytes.Equal(got, after) {
			t.Fatalf("fail=%d: multi-write was not atomic", fail)
		}
	}
}

// TestWriteMultiRandomizedDifferential: random disjoint update batches
// match a reference model.
func TestWriteMultiRandomizedDifferential(t *testing.T) {
	fs, ctx := newTestFS(smallTreeOpts())
	h, _ := fs.Create(ctx, "f")
	hh := h.(*handle)
	const size = 256 * 1024
	ref := make([]byte, size)
	h.WriteAt(ctx, ref, 0)
	rng := rand.New(rand.NewSource(99))

	for round := 0; round < 40; round++ {
		// Build 1-5 disjoint updates by slicing the file into lanes.
		k := rng.Intn(5) + 1
		lane := int64(size / 5)
		var ups []Update
		for i := 0; i < k; i++ {
			off := int64(i)*lane + rng.Int63n(lane/2)
			n := rng.Intn(int(lane/2)) + 1
			data := bytes.Repeat([]byte{byte(round*7 + i + 1)}, n)
			ups = append(ups, Update{Off: off, Data: data})
			copy(ref[off:], data)
		}
		if err := hh.WriteMulti(ctx, ups); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	got := make([]byte, size)
	h.ReadAt(ctx, got, 0)
	if !bytes.Equal(got, ref) {
		t.Fatal("differential mismatch after WriteMulti rounds")
	}
}
