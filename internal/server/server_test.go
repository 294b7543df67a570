package server_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"mgsp/internal/core"
	"mgsp/internal/obs"
	"mgsp/internal/server"
	"mgsp/internal/server/client"
	"mgsp/internal/sim"
)

// pipeClient wires a client to srv over an in-process net.Pipe.
func pipeClient(t *testing.T, srv *server.Server, tenant string) *client.Client {
	t.Helper()
	cc, sc := net.Pipe()
	go srv.ServeConn(sc)
	c, err := client.New(cc, tenant)
	if err != nil {
		t.Fatalf("handshake: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func newServer(t *testing.T, cfg server.Config) *server.Server {
	t.Helper()
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func TestEndToEnd(t *testing.T) {
	srv := newServer(t, server.Config{})
	c := pipeClient(t, srv, "acme")

	f, err := c.Open("db", true)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	want := bytes.Repeat([]byte{0xAB}, 1000)
	if _, err := f.WriteAt(want, 4096); err != nil {
		t.Fatalf("write: %v", err)
	}
	got := make([]byte, 1000)
	if n, err := f.ReadAt(got, 4096); err != nil || n != 1000 {
		t.Fatalf("read: n=%d err=%v", n, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("read back wrong bytes")
	}
	if err := f.Fsync(); err != nil {
		t.Fatalf("fsync: %v", err)
	}

	// Snapshot isolates the frozen image from later writes (server-side the
	// snapshot machinery is core's; here we just prove the plumbing).
	sid, err := f.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if _, err := f.WriteAt(bytes.Repeat([]byte{0xCD}, 1000), 4096); err != nil {
		t.Fatalf("overwrite: %v", err)
	}
	if err := f.DropSnapshot(sid); err != nil {
		t.Fatalf("drop: %v", err)
	}
	if err := f.DropSnapshot(sid); err != server.ErrNotExist {
		t.Fatalf("double drop: %v, want ErrNotExist", err)
	}

	raw, err := c.Stat()
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	snap, err := obs.ParseSnapshot(raw)
	if err != nil {
		t.Fatalf("stat payload: %v", err)
	}
	if snap.Values["server.writes_acked"] < 2 {
		t.Fatalf("writes_acked = %g, want >= 2", snap.Values["server.writes_acked"])
	}
	if _, ok := snap.Values["shard0.core.meta_entries"]; !ok {
		t.Fatal("merged snapshot is missing shard0.core.* metrics")
	}
	if _, ok := snap.Values["tenant.acme.ops"]; !ok {
		t.Fatal("merged snapshot is missing tenant counters")
	}

	if err := f.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

func TestOpenMissingWithoutCreate(t *testing.T) {
	srv := newServer(t, server.Config{})
	c := pipeClient(t, srv, "acme")
	if _, err := c.Open("nope", false); err != server.ErrNotExist {
		t.Fatalf("open missing: %v, want ErrNotExist", err)
	}
}

func TestTenantIsolation(t *testing.T) {
	srv := newServer(t, server.Config{})
	a := pipeClient(t, srv, "alice")
	b := pipeClient(t, srv, "bob")

	fa, err := a.Open("x", true)
	if err != nil {
		t.Fatalf("alice open: %v", err)
	}
	if _, err := fa.WriteAt([]byte("alice-data"), 0); err != nil {
		t.Fatalf("alice write: %v", err)
	}
	// Bob's "x" is a different file: it does not exist in his namespace.
	if _, err := b.Open("x", false); err != server.ErrNotExist {
		t.Fatalf("bob open of alice's file: %v, want ErrNotExist", err)
	}
	fb, err := b.Open("x", true)
	if err != nil {
		t.Fatalf("bob create: %v", err)
	}
	buf := make([]byte, 10)
	if n, _ := fb.ReadAt(buf, 0); n != 0 {
		t.Fatalf("bob read %d bytes of alice's data", n)
	}
}

func TestClosedTenantListRejectsUnknown(t *testing.T) {
	srv := newServer(t, server.Config{
		Tenants: map[string]server.Quota{"known": {}},
	})
	cc, sc := net.Pipe()
	go srv.ServeConn(sc)
	if _, err := client.New(cc, "stranger"); err != server.ErrNoTenant {
		t.Fatalf("unknown tenant HELLO: %v, want ErrNoTenant", err)
	}
	cc.Close()
	c := pipeClient(t, srv, "known")
	if _, err := c.Open("f", true); err != nil {
		t.Fatalf("known tenant open: %v", err)
	}
}

func TestQuotas(t *testing.T) {
	srv := newServer(t, server.Config{
		DefaultQuota: server.Quota{MaxBytes: 8192, MaxFiles: 1},
	})
	c := pipeClient(t, srv, "t")

	f, err := c.Open("a", true)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := c.Open("b", true); err != server.ErrQuota {
		t.Fatalf("second open: %v, want ErrQuota (MaxFiles=1)", err)
	}
	if _, err := f.WriteAt(make([]byte, 4096), 0); err != nil {
		t.Fatalf("write within quota: %v", err)
	}
	if _, err := f.WriteAt(make([]byte, 4096), 100000); err != server.ErrQuota {
		t.Fatalf("write past MaxBytes: %v, want ErrQuota", err)
	}
	// Overwrites grow nothing and stay admitted at the cap.
	if _, err := f.WriteAt(make([]byte, 4096), 0); err != nil {
		t.Fatalf("overwrite at quota: %v", err)
	}
	// Closing a file returns its MaxFiles slot.
	if err := f.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := c.Open("b", true); err != nil {
		t.Fatalf("open after close: %v", err)
	}
}

// TestGroupCommitCoalesces is ISSUE 6's acceptance scenario: 16 concurrent
// clients issue 256B–1KiB writes against one shard; the batcher must
// coalesce them (mean WriteMulti batch size > 1) and amortize the metadata
// log (meta entries per acked write < 1).
func TestGroupCommitCoalesces(t *testing.T) {
	srv := newServer(t, server.Config{
		Shards:    1,
		BatchWait: 2 * time.Millisecond,
	})

	const clients = 16
	const writesEach = 32
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		c := pipeClient(t, srv, "load")
		f, err := c.Open("hot", true)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		wg.Add(1)
		go func(i int, f *client.File) {
			defer wg.Done()
			for j := 0; j < writesEach; j++ {
				size := 256 + (i*67+j*131)%769 // 256..1024
				data := bytes.Repeat([]byte{byte(i)}, size)
				// Disjoint 4 KiB-aligned slots per client keep the batch
				// conflict-free, the best case for coalescing.
				off := int64(i*writesEach+j) * 4096
				if _, err := f.WriteAt(data, off); err != nil {
					t.Errorf("client %d write %d: %v", i, j, err)
					return
				}
			}
		}(i, f)
	}
	wg.Wait()

	snap := srv.Snapshot()
	acked := snap.Values["server.writes_acked"]
	if want := float64(clients * writesEach); acked != want {
		t.Fatalf("writes_acked = %g, want %g", acked, want)
	}
	bs, ok := snap.Hists["server.batch_size"]
	if !ok {
		t.Fatal("no server.batch_size histogram")
	}
	if bs.Mean <= 1 {
		t.Fatalf("mean batch size = %.2f, want > 1 (no coalescing happened)", bs.Mean)
	}
	metaPerAck := snap.Values["shard0.core.meta_entries"] / acked
	if metaPerAck >= 1 {
		t.Fatalf("meta entries per acked write = %.2f, want < 1", metaPerAck)
	}
	t.Logf("mean batch size %.2f, meta entries per acked write %.2f", bs.Mean, metaPerAck)
}

// TestOverflowingWriteRejectedAtAdmission: a WRITE whose end lies past
// math.MaxInt64 gets StatusBadRequest before it is enqueued, so it never
// joins a group commit and cannot fail the well-formed writes racing it.
func TestOverflowingWriteRejectedAtAdmission(t *testing.T) {
	srv := newServer(t, server.Config{Shards: 1, BatchWait: 2 * time.Millisecond})
	c := pipeClient(t, srv, "t")
	f, err := c.Open("f", true)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	const good = 4
	var wg sync.WaitGroup
	for i := 0; i < good; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := f.WriteAt(bytes.Repeat([]byte{byte(i + 1)}, 100), int64(i)*4096); err != nil {
				t.Errorf("well-formed write %d: %v", i, err)
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := f.WriteAt(make([]byte, 100), math.MaxInt64-10); !errors.Is(err, server.ErrBadRequest) {
			t.Errorf("overflowing write: %v, want ErrBadRequest", err)
		}
	}()
	wg.Wait()
	for i := 0; i < good; i++ {
		got := make([]byte, 100)
		if _, err := f.ReadAt(got, int64(i)*4096); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !bytes.Equal(got, bytes.Repeat([]byte{byte(i + 1)}, 100)) {
			t.Fatalf("write %d not applied", i)
		}
	}
}

// TestOverlappingWritesSplitSubBatches drives same-offset writes through
// the batcher: WriteMulti rejects overlapping updates, so correctness here
// proves the planner's sub-batch split, and the last writer's data must
// win (commit order preserves submission order).
func TestOverlappingWritesSplitSubBatches(t *testing.T) {
	srv := newServer(t, server.Config{BatchWait: 2 * time.Millisecond})
	c := pipeClient(t, srv, "t")
	f, err := c.Open("clash", true)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	const writers = 8
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			data := bytes.Repeat([]byte{byte('A' + i)}, 512)
			for j := 0; j < 16; j++ {
				if _, err := f.WriteAt(data, 0); err != nil {
					t.Errorf("writer %d: %v", i, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	got := make([]byte, 512)
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatalf("read: %v", err)
	}
	first := got[0]
	if first < 'A' || first >= 'A'+writers {
		t.Fatalf("byte 0 = %q, not any writer's pattern", first)
	}
	for i, b := range got {
		if b != first {
			t.Fatalf("torn block: byte %d is %q, byte 0 is %q", i, b, first)
		}
	}
}

func TestBackpressureSheds(t *testing.T) {
	srv := newServer(t, server.Config{
		// A threshold of 1 log block trips as soon as anything is logged —
		// the induced-stall case without needing a real stalled cleaner.
		ShedLogBlocks: 1,
	})
	c := pipeClient(t, srv, "t")
	f, err := c.Open("f", true)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := f.WriteAt(make([]byte, 512), 0); err != nil {
		t.Fatalf("first write: %v", err)
	}
	var shed bool
	for i := 0; i < 50; i++ {
		if _, err := f.WriteAt(make([]byte, 512), int64(i)*4096); err == server.ErrBusy {
			shed = true
			break
		} else if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if !shed {
		t.Fatal("no write was shed despite ShedLogBlocks=1")
	}
	if srv.Snapshot().Values["server.shed"] < 1 {
		t.Fatal("server.shed did not count the refusal")
	}
}

func TestStatOverHTTPHandler(t *testing.T) {
	srv := newServer(t, server.Config{})
	c := pipeClient(t, srv, "t")
	f, err := c.Open("f", true)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := f.WriteAt([]byte("x"), 0); err != nil {
		t.Fatalf("write: %v", err)
	}
	// The Handler is exercised end-to-end (HTTP listener and all) by
	// cmd/mgspd's serve-smoke; here pin the snapshot contract it serves.
	snap := srv.Snapshot()
	if snap.Schema != obs.SnapshotSchema {
		t.Fatalf("schema %q", snap.Schema)
	}
	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if _, err := obs.ParseSnapshot(buf.Bytes()); err != nil {
		t.Fatalf("round trip: %v", err)
	}
}

func TestCleanShutdownFailsLateOps(t *testing.T) {
	srv, err := server.New(server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	c := pipeClient(t, srv, "t")
	f, err := c.Open("f", true)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := f.WriteAt([]byte("pre-shutdown"), 0); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := f.WriteAt([]byte("post-shutdown"), 0); err == nil {
		t.Fatal("write after Close succeeded")
	}
	// Closing twice is a no-op, not a hang or panic.
	if err := srv.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func TestSaveImageAfterClose(t *testing.T) {
	srv, err := server.New(server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	c := pipeClient(t, srv, "t")
	f, err := c.Open("f", true)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := f.WriteAt(bytes.Repeat([]byte{7}, 8192), 0); err != nil {
		t.Fatalf("write: %v", err)
	}
	srv.Close()
	var img bytes.Buffer
	if err := srv.SaveImage(0, &img); err != nil {
		t.Fatalf("save: %v", err)
	}
	if img.Len() == 0 {
		t.Fatal("empty image")
	}
	if err := srv.SaveImage(5, &img); err == nil {
		t.Fatal("save of bogus shard index succeeded")
	}
}

func TestManyTenantsManyShards(t *testing.T) {
	srv := newServer(t, server.Config{Shards: 4})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		c := pipeClient(t, srv, fmt.Sprintf("tenant%d", i))
		wg.Add(1)
		go func(i int, c *client.Client) {
			defer wg.Done()
			for j := 0; j < 4; j++ {
				f, err := c.Open(fmt.Sprintf("f%d", j), true)
				if err != nil {
					t.Errorf("tenant %d open %d: %v", i, j, err)
					return
				}
				if _, err := f.WriteAt([]byte("hello"), int64(j)*100); err != nil {
					t.Errorf("tenant %d write %d: %v", i, j, err)
					return
				}
				if err := f.Close(); err != nil {
					t.Errorf("tenant %d close %d: %v", i, j, err)
					return
				}
			}
		}(i, c)
	}
	wg.Wait()
	snap := srv.Snapshot()
	if snap.Values["server.tenants"] != 8 {
		t.Fatalf("server.tenants = %g, want 8", snap.Values["server.tenants"])
	}
}

// TestPostCutCommitNotAcked: a write whose group commit runs after the power
// cut completes only on the volatile overlay, so mgspd must reply
// StatusCrashed rather than ack it, and recovery must not find its bytes.
func TestPostCutCommitNotAcked(t *testing.T) {
	srv := newServer(t, server.Config{Shards: 1})
	c := pipeClient(t, srv, "t")
	f, err := c.Open("f", true)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	before := bytes.Repeat([]byte{1}, 4096)
	if _, err := f.WriteAt(before, 0); err != nil {
		t.Fatalf("pre-cut write: %v", err)
	}

	// Cut power under the server with a media op that rewrites a word to
	// its own value: the tear leaves the durable image as it was.
	dev := srv.Device(0)
	ctx := sim.NewCtx(99, 1)
	last := dev.Size() - 8
	dev.ArmCrash(0, 1)
	dev.Store8(ctx, last, dev.Load8(last))
	if !dev.Crashed() {
		t.Fatal("armed Store8 did not cut power")
	}

	if _, err := f.WriteAt(bytes.Repeat([]byte{2}, 4096), 0); !errors.Is(err, server.ErrCrashed) {
		t.Fatalf("post-cut write: err = %v, want ErrCrashed", err)
	}
	srv.Close()

	dev.Recover()
	rctx := sim.NewCtx(100, 1)
	fs, err := core.Mount(rctx, dev, srv.FSOptions())
	if err != nil {
		t.Fatalf("mount: %v", err)
	}
	h, err := fs.Open(rctx, "t/f")
	if err != nil {
		t.Fatalf("open after recovery: %v", err)
	}
	got := make([]byte, len(before))
	if _, err := h.ReadAt(rctx, got, 0); err != nil {
		t.Fatalf("read after recovery: %v", err)
	}
	if !bytes.Equal(got, before) {
		t.Fatalf("recovered bytes %#x..., want the pre-cut write %#x...", got[:8], before[:8])
	}
}

// TestCloseBehindWriteWaitsForIt: requests on one connection run
// concurrently, so a CLOSE pipelined behind a WRITE on the same handle may
// run first, and the write then finds no handle (StatusBadRequest). What it
// must never do is close the file under a write that already looked the
// handle up: each request pins its file, so such a write commits and is
// acked, and the last release runs the write-back afterwards.
func TestCloseBehindWriteWaitsForIt(t *testing.T) {
	srv := newServer(t, server.Config{DevSize: 4 << 20, BatchWait: -1})
	cc, sc := net.Pipe()
	go srv.ServeConn(sc)
	defer cc.Close()
	roundTrip := func(reqs ...[]byte) map[uint32][]byte {
		t.Helper()
		for _, r := range reqs {
			if err := server.WriteFrame(cc, r); err != nil {
				t.Fatal(err)
			}
		}
		got := make(map[uint32][]byte)
		for range reqs {
			p, err := server.ReadFrame(cc)
			if err != nil {
				t.Fatal(err)
			}
			op, id, status, body, err := server.ParseResponseHeader(p)
			lost := op == server.OpWrite && status == server.StatusBadRequest
			if err != nil || status != server.StatusOK && !lost {
				t.Fatalf("reply to op %d (id %d): status %d %q, err %v", op, id, status, body, err)
			}
			got[id] = body
		}
		return got
	}
	roundTrip(request(server.OpHello, 0, uint8(1), "t"))
	for i := uint64(0); i < 100; i++ {
		open := roundTrip(request(server.OpOpen, 1, uint8(server.OpenCreate), uint8(1), "f"))
		h := binary.LittleEndian.Uint32(open[1])
		roundTrip(request(server.OpWrite, 2, h, i*4096, "payload"), request(server.OpClose, 3, h))
	}
}
