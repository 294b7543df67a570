package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mgsp/internal/core"
	"mgsp/internal/nvm"
	"mgsp/internal/sim"
	"mgsp/internal/vfs"
)

// Config configures a Server. The zero value serves: one shard, a 64 MiB
// device per shard, default MGSP options, open tenant enrollment with no
// quotas, and backpressure disabled (threshold 0).
type Config struct {
	// Shards is the number of independent MGSP file systems (each its own
	// simulated device and group-commit batcher). Files hash to shards by
	// tenant-scoped name. Default 1.
	Shards int
	// DevSize is each shard's device size in bytes. Default 64 MiB.
	DevSize int64
	// FSOpts are the MGSP options for every shard; the zero value means
	// core.DefaultOptions(). Set CleanerInterval so a cleaner reclaims the
	// log blocks backpressure watches.
	FSOpts core.Options
	// Seed derives each shard's and connection's sim context seed.
	Seed int64

	// BatchWait is how long the batcher lingers after the first write of a
	// batch, collecting more to coalesce. 0 means the 200µs default;
	// negative disables lingering (commit whatever is already queued).
	BatchWait time.Duration
	// MaxBatchOps caps writes per batch. Default 64.
	MaxBatchOps int
	// QueueCap is each shard's write-queue depth; enqueueing past it blocks
	// the submitting connection (natural backpressure). Default 256.
	QueueCap int

	// ShedLogBlocks is the backpressure threshold; 0 disables it. A write
	// arriving while the shard's live shadow-log footprint (FS.LogBlocks,
	// read at admission) is at or above it is refused with StatusBusy.
	ShedLogBlocks int64

	// Tenants closes the tenant list to these names and quotas; nil means
	// any HELLO enrolls its tenant with DefaultQuota.
	Tenants      map[string]Quota
	DefaultQuota Quota

	// CommitHook, when set, observes every attempted group commit (the
	// torture harness's view into batch membership). Called from batcher
	// goroutines, after the attempt, before the acks.
	CommitHook func(CommitRecord)
}

func (c *Config) shards() int {
	if c.Shards <= 0 {
		return 1
	}
	return c.Shards
}

func (c *Config) devSize() int64 {
	if c.DevSize <= 0 {
		return 64 << 20
	}
	return c.DevSize
}

func (c *Config) batchWait() time.Duration {
	if c.BatchWait == 0 {
		return 200 * time.Microsecond
	}
	if c.BatchWait < 0 {
		return 0
	}
	return c.BatchWait
}

func (c *Config) maxBatchOps() int {
	if c.MaxBatchOps <= 0 {
		return 64
	}
	return c.MaxBatchOps
}

func (c *Config) queueCap() int {
	if c.QueueCap <= 0 {
		return 256
	}
	return c.QueueCap
}

// Server is a multi-tenant MGSP server. Build with New, feed it listeners
// via Serve or individual connections via ServeConn, stop with Close.
type Server struct {
	cfg     Config
	shards  []*shard
	tenants *tenantSet

	workerSeq atomic.Int64 // per-request sim context ids
	draining  atomic.Bool
	crashed   atomic.Bool

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}

	wg     sync.WaitGroup // batcher goroutines
	connWg sync.WaitGroup // connection goroutines (and their handlers)

	obs serverObs
}

// New builds and starts a server (its batchers run immediately).
func New(cfg Config) (*Server, error) {
	if cfg.FSOpts == (core.Options{}) {
		cfg.FSOpts = core.DefaultOptions()
	}
	s := &Server{
		cfg:       cfg,
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[net.Conn]struct{}),
	}
	s.initObs()
	s.tenants = newTenantSet(cfg.Tenants, cfg.DefaultQuota, s.obs.reg)
	for i := 0; i < cfg.shards(); i++ {
		s.shards = append(s.shards, s.newShard(i))
	}
	for _, sh := range s.shards {
		s.wg.Add(1)
		go sh.run()
	}
	return s, nil
}

// shardFor hashes a tenant-scoped file name to its shard.
func (s *Server) shardFor(key string) *shard {
	h := fnv.New32a()
	io.WriteString(h, key)
	return s.shards[int(h.Sum32())%len(s.shards)]
}

func (s *Server) newCtx() *sim.Ctx {
	seq := s.workerSeq.Add(1)
	return sim.NewCtx(connWorkerBase+int(seq), s.cfg.Seed^(seq<<20))
}

func (s *Server) dead() bool { return s.crashed.Load() || s.draining.Load() }

func (s *Server) deadErr() error {
	if s.crashed.Load() {
		return ErrCrashed
	}
	return ErrShutdown
}

func (s *Server) noteCrash() {
	if s.crashed.CompareAndSwap(false, true) {
		s.obs.cCrashed.Add(1)
	}
}

func (s *Server) hook(rec CommitRecord) {
	if s.cfg.CommitHook != nil {
		s.cfg.CommitHook(rec)
	}
}

// Serve accepts connections on l until the listener closes (Close does).
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	s.listeners[l] = struct{}{}
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			return err
		}
		s.connWg.Add(1)
		go func() {
			defer s.connWg.Done()
			s.serveConn(conn)
		}()
	}
}

// ServeConn serves one connection synchronously (net.Pipe in tests and
// in-process benches) until the peer closes it or the server shuts down.
func (s *Server) ServeConn(nc net.Conn) {
	s.connWg.Add(1)
	defer s.connWg.Done()
	s.serveConn(nc)
}

func (s *Server) serveConn(nc net.Conn) {
	s.mu.Lock()
	s.conns[nc] = struct{}{}
	s.mu.Unlock()
	s.obs.gConns.Add(1)

	c := &conn{srv: s, nc: nc, handles: make(map[uint32]*srvFile)}
	c.loop()
	c.teardown()

	s.mu.Lock()
	delete(s.conns, nc)
	s.mu.Unlock()
	s.obs.gConns.Add(-1)
	nc.Close()
}

// Close drains the server: stop accepting, sever connections, let queued
// writes commit, close every file (write-back), and stop the batchers. The
// shard devices stay readable afterwards (SaveImage, Audit).
func (s *Server) Close() error {
	if !s.draining.CompareAndSwap(false, true) {
		return nil
	}
	s.mu.Lock()
	for l := range s.listeners {
		l.Close()
	}
	for nc := range s.conns {
		nc.Close()
	}
	s.mu.Unlock()
	s.connWg.Wait() // no handler can touch a queue past this point
	for _, sh := range s.shards {
		close(sh.queue)
	}
	s.wg.Wait()
	if !s.crashed.Load() {
		ctx := s.newCtx()
		for _, sh := range s.shards {
			sh.closeAll(ctx)
		}
	}
	return nil
}

// SaveImage writes shard i's durable device image to w (mgspfsck -load
// reads it back). Call after Close for a clean, written-back image.
func (s *Server) SaveImage(i int, w io.Writer) error {
	if i < 0 || i >= len(s.shards) {
		return fmt.Errorf("server: no shard %d", i)
	}
	return s.shards[i].dev.Save(w)
}

// Shards returns the shard count.
func (s *Server) Shards() int { return len(s.shards) }

// Device exposes shard i's simulated device. The torture harness arms
// crashes and remounts through it; production callers have no business
// here.
func (s *Server) Device(i int) *nvm.Device { return s.shards[i].dev }

// FSOptions returns the MGSP options the shards were built with (what a
// post-crash Mount of a shard device must use).
func (s *Server) FSOptions() core.Options { return s.cfg.FSOpts }

// admitWrite is the backpressure gate, consulted before a write enqueues:
// at or over ShedLogBlocks the write is refused, and the client sees ErrBusy
// and owns the retry.
func (s *Server) admitWrite(sh *shard, t *tenant) error {
	if c := s.cfg.ShedLogBlocks; c > 0 && sh.fs.LogBlocks() >= c {
		s.obs.cShed.Add(1)
		t.shed.Add(1)
		return ErrBusy
	}
	return nil
}

// conn is one client connection's server-side state.
type conn struct {
	srv *Server
	nc  net.Conn
	wmu sync.Mutex // response frames interleave from handler goroutines

	ten *tenant

	hmu        sync.Mutex
	handles    map[uint32]*srvFile
	nextHandle uint32

	handlers sync.WaitGroup
}

func (c *conn) loop() {
	for {
		frame, err := ReadFrame(c.nc)
		if err != nil {
			return
		}
		op, id, body, err := ParseRequestHeader(frame)
		if err != nil {
			c.reply(op, id, StatusBadRequest, nil)
			return
		}
		if op == OpHello {
			c.hello(id, body)
			continue
		}
		if c.ten == nil {
			c.reply(op, id, StatusNoTenant, nil)
			continue
		}
		// Each request gets its own goroutine so one blocked write (group
		// commit in flight, or a full shard queue) does not head-of-line
		// block the connection's reads.
		c.handlers.Add(1)
		go func() {
			defer c.handlers.Done()
			c.handle(op, id, body)
		}()
	}
}

func (c *conn) teardown() {
	c.handlers.Wait()
	c.hmu.Lock()
	files := make([]*srvFile, 0, len(c.handles))
	for _, sf := range c.handles {
		files = append(files, sf)
	}
	c.handles = make(map[uint32]*srvFile)
	c.hmu.Unlock()
	for _, sf := range files {
		sf.release()
		c.ten.releaseFile()
	}
}

func (c *conn) reply(op byte, id uint32, status byte, body []byte) {
	frame := AppendResponseHeader(make([]byte, 0, 6+len(body)), op, id, status)
	frame = append(frame, body...)
	c.wmu.Lock()
	WriteFrame(c.nc, frame) // a dead conn fails here; teardown handles it
	c.wmu.Unlock()
}

// replyErr acks err: a sentinel maps to its status code, anything else goes
// out as StatusErr with the message as body.
func (c *conn) replyErr(op byte, id uint32, err error) {
	status := StatusOf(err)
	var body []byte
	if status == StatusErr {
		body = []byte(err.Error())
	}
	c.reply(op, id, status, body)
}

func (c *conn) hello(id uint32, body []byte) {
	if c.ten != nil {
		c.reply(OpHello, id, StatusBadRequest, []byte("already bound"))
		return
	}
	if len(body) < 1 || len(body) != 1+int(body[0]) || body[0] == 0 {
		c.reply(OpHello, id, StatusBadRequest, nil)
		return
	}
	t, err := c.srv.tenants.get(string(body[1:]))
	if err != nil {
		c.replyErr(OpHello, id, err)
		return
	}
	c.ten = t
	c.reply(OpHello, id, StatusOK, nil)
}

// lookup returns the file behind handle h pinned with a reference of its
// own, or nil. The caller releases it when its request is done, so a CLOSE
// racing the request cannot close the file, and run its write-back, under
// the request's I/O.
func (c *conn) lookup(h uint32) *srvFile {
	c.hmu.Lock()
	defer c.hmu.Unlock()
	sf := c.handles[h]
	if sf != nil {
		sf.sh.mu.Lock()
		sf.refs++
		sf.sh.mu.Unlock()
	}
	return sf
}

func (c *conn) handle(op byte, id uint32, body []byte) {
	if !c.ten.enter() {
		c.reply(op, id, StatusQuota, nil)
		return
	}
	defer c.ten.leave()
	c.srv.obs.cOps.Add(1)
	switch op {
	case OpOpen:
		c.handleOpen(id, body)
	case OpRead:
		c.handleRead(id, body)
	case OpWrite:
		c.handleWrite(id, body)
	case OpFsync:
		c.handleFsync(id, body)
	case OpSnapshot:
		c.handleSnapshot(id, body)
	case OpDrop:
		c.handleDrop(id, body)
	case OpStat:
		c.handleStat(id)
	case OpClose:
		c.handleClose(id, body)
	default:
		c.reply(op, id, StatusBadRequest, nil)
	}
}

// pmfile slot names hold 56 bytes; the tenant-scoped key must fit.
const maxKeyLen = 56

func (c *conn) handleOpen(id uint32, body []byte) {
	if len(body) < 2 || len(body) != 2+int(body[1]) || body[1] == 0 {
		c.reply(OpOpen, id, StatusBadRequest, nil)
		return
	}
	create := body[0]&OpenCreate != 0
	name := string(body[2:])
	key := c.ten.name + "/" + name
	if len(key) > maxKeyLen {
		c.replyErr(OpOpen, id, fmt.Errorf("tenant-scoped name %q exceeds %d bytes", key, maxKeyLen))
		return
	}
	if c.srv.dead() {
		c.replyErr(OpOpen, id, c.srv.deadErr())
		return
	}
	if !c.ten.reserveFile() {
		c.reply(OpOpen, id, StatusQuota, nil)
		return
	}
	sf, err := c.srv.shardFor(key).openFile(c.srv.newCtx(), key, create)
	if err != nil {
		c.ten.releaseFile()
		c.replyErr(OpOpen, id, err)
		return
	}
	c.hmu.Lock()
	c.nextHandle++
	h := c.nextHandle
	c.handles[h] = sf
	c.hmu.Unlock()
	resp := binary.LittleEndian.AppendUint32(make([]byte, 0, 12), h)
	resp = binary.LittleEndian.AppendUint64(resp, uint64(sf.vf.Size()))
	c.reply(OpOpen, id, StatusOK, resp)
}

func (c *conn) handleRead(id uint32, body []byte) {
	if len(body) != 16 {
		c.reply(OpRead, id, StatusBadRequest, nil)
		return
	}
	sf := c.lookup(binary.LittleEndian.Uint32(body[0:4]))
	defer sf.release()
	off := int64(binary.LittleEndian.Uint64(body[4:12]))
	n := binary.LittleEndian.Uint32(body[12:16])
	if sf == nil || off < 0 || n > MaxData {
		c.reply(OpRead, id, StatusBadRequest, nil)
		return
	}
	if c.srv.crashed.Load() {
		c.reply(OpRead, id, StatusCrashed, nil)
		return
	}
	buf := make([]byte, n)
	got, err := sf.vf.ReadAt(c.srv.newCtx(), buf, off)
	if c.srv.crashed.Load() || sf.sh.dev.Crashed() {
		c.srv.noteCrash()
		c.reply(OpRead, id, StatusCrashed, nil)
		return
	}
	if err != nil {
		c.replyErr(OpRead, id, err)
		return
	}
	c.ten.bytesRead.Add(int64(got))
	c.reply(OpRead, id, StatusOK, buf[:got])
}

func (c *conn) handleWrite(id uint32, body []byte) {
	if len(body) < 12 {
		c.reply(OpWrite, id, StatusBadRequest, nil)
		return
	}
	sf := c.lookup(binary.LittleEndian.Uint32(body[0:4]))
	defer sf.release()
	off := int64(binary.LittleEndian.Uint64(body[4:12]))
	data := body[12:]
	// A range no file can hold is refused here, before the enqueue: core
	// rejects it, and inside a group commit that rejection would fail every
	// write coalesced with it.
	if sf == nil || len(data) == 0 || len(data) > MaxData || vfs.CheckWrite(off, len(data)) != nil {
		c.reply(OpWrite, id, StatusBadRequest, nil)
		return
	}
	if c.srv.dead() {
		c.replyErr(OpWrite, id, c.srv.deadErr())
		return
	}
	if err := c.srv.admitWrite(sf.sh, c.ten); err != nil {
		c.replyErr(OpWrite, id, err)
		return
	}
	growth := off + int64(len(data)) - sf.vf.Size()
	if growth < 0 {
		growth = 0
	}
	if !c.ten.reserveBytes(growth) {
		c.reply(OpWrite, id, StatusQuota, nil)
		return
	}
	op := &writeOp{sf: sf, ten: c.ten, off: off, data: data, growth: growth,
		done: make(chan error, 1)}
	sf.sh.queue <- op
	if err := <-op.done; err != nil {
		c.replyErr(OpWrite, id, err)
		return
	}
	c.reply(OpWrite, id, StatusOK, nil)
}

func (c *conn) handleFsync(id uint32, body []byte) {
	sf := c.handleArg(OpFsync, id, body)
	if sf == nil {
		return
	}
	defer sf.release()
	err := sf.vf.Fsync(c.srv.newCtx())
	if sf.sh.dev.Crashed() {
		c.srv.noteCrash()
		c.reply(OpFsync, id, StatusCrashed, nil)
		return
	}
	if err != nil {
		c.replyErr(OpFsync, id, err)
		return
	}
	c.reply(OpFsync, id, StatusOK, nil)
}

func (c *conn) handleSnapshot(id uint32, body []byte) {
	sf := c.handleArg(OpSnapshot, id, body)
	if sf == nil {
		return
	}
	defer sf.release()
	if c.srv.dead() {
		c.replyErr(OpSnapshot, id, c.srv.deadErr())
		return
	}
	sid, err := sf.sh.fs.Snapshot(c.srv.newCtx(), sf.key)
	if sf.sh.dev.Crashed() {
		c.srv.noteCrash()
		c.reply(OpSnapshot, id, StatusCrashed, nil)
		return
	}
	if err != nil {
		c.replyErr(OpSnapshot, id, mapCoreErr(err))
		return
	}
	c.reply(OpSnapshot, id, StatusOK,
		binary.LittleEndian.AppendUint64(make([]byte, 0, 8), uint64(sid)))
}

func (c *conn) handleDrop(id uint32, body []byte) {
	if len(body) != 12 {
		c.reply(OpDrop, id, StatusBadRequest, nil)
		return
	}
	sf := c.lookup(binary.LittleEndian.Uint32(body[0:4]))
	defer sf.release()
	if sf == nil {
		c.reply(OpDrop, id, StatusBadRequest, nil)
		return
	}
	snapID := core.SnapID(binary.LittleEndian.Uint64(body[4:12]))
	if c.srv.dead() {
		c.replyErr(OpDrop, id, c.srv.deadErr())
		return
	}
	err := sf.sh.fs.DropSnapshot(c.srv.newCtx(), sf.key, snapID)
	if sf.sh.dev.Crashed() {
		c.srv.noteCrash()
		c.reply(OpDrop, id, StatusCrashed, nil)
		return
	}
	if err != nil {
		c.replyErr(OpDrop, id, mapCoreErr(err))
		return
	}
	c.reply(OpDrop, id, StatusOK, nil)
}

func (c *conn) handleStat(id uint32) {
	var buf writeBuffer
	if err := c.srv.Snapshot().WriteJSON(&buf); err != nil {
		c.replyErr(OpStat, id, err)
		return
	}
	c.reply(OpStat, id, StatusOK, buf)
}

func (c *conn) handleClose(id uint32, body []byte) {
	if len(body) != 4 {
		c.reply(OpClose, id, StatusBadRequest, nil)
		return
	}
	h := binary.LittleEndian.Uint32(body[0:4])
	c.hmu.Lock()
	sf := c.handles[h]
	delete(c.handles, h)
	c.hmu.Unlock()
	if sf == nil {
		c.reply(OpClose, id, StatusBadRequest, nil)
		return
	}
	sf.release()
	c.ten.releaseFile()
	c.reply(OpClose, id, StatusOK, nil)
}

// handleArg parses the common u32-handle-only request body and looks the
// handle up, pinned like lookup's.
func (c *conn) handleArg(op byte, id uint32, body []byte) *srvFile {
	if len(body) != 4 {
		c.reply(op, id, StatusBadRequest, nil)
		return nil
	}
	sf := c.lookup(binary.LittleEndian.Uint32(body[0:4]))
	if sf == nil {
		c.reply(op, id, StatusBadRequest, nil)
		return nil
	}
	return sf
}

// mapCoreErr folds core/vfs errors into the protocol's sentinels.
func mapCoreErr(err error) error {
	switch {
	case errors.Is(err, vfs.ErrNotExist), errors.Is(err, core.ErrSnapshotNotFound):
		return ErrNotExist
	case errors.Is(err, core.ErrHasSnapshots), errors.Is(err, core.ErrSnapshotBusy):
		return ErrHasSnapshot
	}
	return err
}

// writeBuffer is an append-only io.Writer (bytes.Buffer without the copy on
// handing the bytes to reply).
type writeBuffer []byte

func (b *writeBuffer) Write(p []byte) (int, error) {
	*b = append(*b, p...)
	return len(p), nil
}
