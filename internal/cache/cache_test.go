package cache

import (
	"bytes"
	"sync"
	"testing"
)

const bs = 4096

func filled(b byte) []byte {
	buf := make([]byte, bs)
	for i := range buf {
		buf[i] = b
	}
	return buf
}

func TestReadMissThenInstallHit(t *testing.T) {
	p := New(64, bs)
	dst := make([]byte, bs)
	if p.Read(0, 3, dst, 0) {
		t.Fatal("read of empty pool must miss")
	}
	p.Install(0, 3, filled(0xAB), false)
	if !p.Read(0, 3, dst, 0) {
		t.Fatal("read after install must hit")
	}
	if !bytes.Equal(dst, filled(0xAB)) {
		t.Fatal("hit returned wrong content")
	}
	st := p.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", st.Hits, st.Misses)
	}
}

func TestReadPartialOffset(t *testing.T) {
	p := New(64, bs)
	buf := filled(0)
	copy(buf[100:], []byte("hello"))
	p.Install(7, 0, buf, false)
	dst := make([]byte, 5)
	if !p.Read(7, 0, dst, 100) {
		t.Fatal("expected hit")
	}
	if string(dst) != "hello" {
		t.Fatalf("got %q", dst)
	}
}

func TestKeyIsolation(t *testing.T) {
	p := New(64, bs)
	p.Install(1, 5, filled(0x11), false)
	dst := make([]byte, bs)
	if p.Read(2, 5, dst, 0) {
		t.Fatal("different slot must miss")
	}
	if p.Read(1, 6, dst, 0) {
		t.Fatal("different block must miss")
	}
}

func TestPatchVisibleAndCoW(t *testing.T) {
	p := New(64, bs)
	p.Install(0, 0, filled(0x00), false)
	dst := make([]byte, bs)
	p.Read(0, 0, dst, 0) // a reader's copy of the pre-patch content
	before := dst

	if !p.Patch(0, 0, 10, []byte{0xFF, 0xFF}, false) {
		t.Fatal("patch of present frame must succeed")
	}
	after := make([]byte, bs)
	p.Read(0, 0, after, 0)
	if after[10] != 0xFF || after[11] != 0xFF || after[9] != 0 {
		t.Fatal("patch content wrong")
	}
	// Read copies out under the set mutex: the earlier copy is the
	// reader's own and must be untouched by the in-place patch.
	if before[10] != 0 {
		t.Fatal("patch reached a reader's copy")
	}
	if p.Patch(9, 9, 0, []byte{1}, false) {
		t.Fatal("patch of absent frame must fail")
	}
	two := []byte{0xEE, 0xEE}
	if n := testing.AllocsPerRun(100, func() { p.Patch(0, 0, 10, two, false) }); n != 0 {
		t.Fatalf("Patch allocated %v times per call, want 0", n)
	}
}

// TestClockEvictionSecondChance pins the clock policy on one set: a full set
// evicts the first frame whose reference bit is already clear, and a frame
// read since the last sweep survives one more lap.
func TestClockEvictionSecondChance(t *testing.T) {
	p := New(1, bs) // one set, `ways` frames
	if p.Frames() != ways {
		t.Fatalf("Frames=%d, want %d", p.Frames(), ways)
	}
	for b := int64(0); b < ways; b++ {
		p.Install(0, b, filled(byte(b)), false)
	}
	// Every frame is referenced: the first lap clears all bits, the second
	// evicts block 0 under the hand.
	p.Install(0, 100, filled(0x64), false)
	dst := make([]byte, bs)
	p.Read(0, 1, dst, 0) // re-reference block 1
	// The hand now stands on block 1: referenced, so it is spared and block 2
	// goes instead.
	p.Install(0, 101, filled(0x65), false)
	for _, c := range []struct {
		block int64
		want  bool
	}{{0, false}, {1, true}, {2, false}, {100, true}, {101, true}} {
		if got := p.Read(0, c.block, dst, 0); got != c.want {
			t.Errorf("block %d: hit=%v, want %v", c.block, got, c.want)
		}
	}
	if ev := p.Stats().Evictions; ev != 2 {
		t.Fatalf("evictions=%d, want 2", ev)
	}
}

// TestOptimisticReadHammer races readers against patchers: under -race this
// validates that every frame access holds the set mutex, and the uniformity
// check validates that no reader ever observes a torn (half-patched) block
// or misses a resident frame.
func TestOptimisticReadHammer(t *testing.T) {
	p := New(8, bs)
	p.Install(0, 0, filled(0x00), false)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make([]byte, bs)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if !p.Read(0, 0, dst, 0) {
					t.Error("frame vanished")
					return
				}
				first := dst[0]
				for i := range dst {
					if dst[i] != first {
						t.Errorf("torn read: dst[0]=%#x dst[%d]=%#x", first, i, dst[i])
						return
					}
				}
			}
		}()
	}
	for v := byte(1); v <= 200; v++ {
		if !p.Patch(0, 0, 0, filled(v), false) {
			t.Fatal("patch failed")
		}
	}
	close(stop)
	wg.Wait()
}
