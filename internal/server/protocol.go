// Package server is mgspd: a multi-tenant network front end over sharded
// namespaces of MGSP files. Clients speak a length-prefixed binary protocol
// (OPEN/READ/WRITE/FSYNC/SNAPSHOT/DROP/STAT/CLOSE, preceded by one HELLO
// that binds the connection to a tenant); writes are coalesced per shard
// into WriteMulti group commits so concurrent small writes share one
// metadata-log flush (Snapshot-style msync batching), and admission control
// sheds new writes when the shard's shadow-log footprint says reclamation is
// falling behind — the log never fills to ENOSPC under overload.
//
// The package splits as:
//
//	protocol.go   wire format (shared with internal/server/client)
//	server.go     listener, connections, tenant binding, dispatch
//	tenant.go     per-tenant quotas and counters
//	shard.go      one MGSP file system + its group-commit batch loop
//	batch.go      conflict-aware batch planning (disjoint WriteMulti runs)
//	obs.go        server registry, merged snapshots, HTTP side handler
//
// See DESIGN.md §12 for the framing grammar, the batching state machine,
// and the backpressure threshold.
package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Protocol limits. MaxData bounds one READ/WRITE payload; MaxFrame bounds
// any frame (data plus headers) so a corrupt length prefix cannot balloon
// an allocation.
const (
	MaxData  = 1 << 20
	MaxFrame = MaxData + 256
	MaxName  = 255
)

// Opcodes. A response echoes its request's opcode with RespBit set.
const (
	OpHello    = 1 // bind the connection to a tenant; must be first
	OpOpen     = 2 // open (or create) a file -> handle
	OpRead     = 3 // read [off, off+len) of a handle
	OpWrite    = 4 // failure-atomic write; acked after durability
	OpFsync    = 5 // persistence fence (MGSP writes are already durable)
	OpSnapshot = 6 // instant snapshot of a handle's file -> snapshot id
	OpDrop     = 7 // drop a snapshot by id
	OpStat     = 8 // merged obs snapshot as JSON
	OpClose    = 9 // close a handle

	// RespBit marks a frame as a response to the request whose opcode is in
	// the low bits.
	RespBit = 0x80
)

// OpenCreate is the OPEN flag selecting create-or-truncate semantics
// (otherwise the file must exist).
const OpenCreate = 1

// Status codes carried in every response.
const (
	StatusOK          = 0
	StatusNotExist    = 1 // no such file / snapshot
	StatusBusy        = 2 // shed by admission control; retry later
	StatusQuota       = 3 // tenant quota exceeded
	StatusBadRequest  = 4 // malformed frame or unknown handle
	StatusCrashed     = 5 // backing device failed; server is dead
	StatusNoTenant    = 6 // op before HELLO, or unknown tenant
	StatusHasSnapshot = 7 // op forbidden while snapshots are live
	StatusShutdown    = 8 // server is draining; no new ops
	StatusErr         = 9 // other server-side error (message in body)
)

// Errors the status codes decode to on the client side.
var (
	ErrNotExist    = errors.New("mgspd: file does not exist")
	ErrBusy        = errors.New("mgspd: busy (shed by admission control)")
	ErrQuota       = errors.New("mgspd: tenant quota exceeded")
	ErrBadRequest  = errors.New("mgspd: bad request")
	ErrCrashed     = errors.New("mgspd: server device crashed")
	ErrNoTenant    = errors.New("mgspd: no tenant bound (send HELLO first)")
	ErrHasSnapshot = errors.New("mgspd: file has live snapshots")
	ErrShutdown    = errors.New("mgspd: server shutting down")
)

// StatusErrors maps wire status codes to sentinel errors (StatusErr carries
// its message in the response body instead).
var StatusErrors = map[byte]error{
	StatusNotExist:    ErrNotExist,
	StatusBusy:        ErrBusy,
	StatusQuota:       ErrQuota,
	StatusBadRequest:  ErrBadRequest,
	StatusCrashed:     ErrCrashed,
	StatusNoTenant:    ErrNoTenant,
	StatusHasSnapshot: ErrHasSnapshot,
	StatusShutdown:    ErrShutdown,
}

// StatusOf maps a server-side error to its wire status.
func StatusOf(err error) byte {
	switch {
	case err == nil:
		return StatusOK
	case errors.Is(err, ErrNotExist):
		return StatusNotExist
	case errors.Is(err, ErrBusy):
		return StatusBusy
	case errors.Is(err, ErrQuota):
		return StatusQuota
	case errors.Is(err, ErrBadRequest):
		return StatusBadRequest
	case errors.Is(err, ErrCrashed):
		return StatusCrashed
	case errors.Is(err, ErrNoTenant):
		return StatusNoTenant
	case errors.Is(err, ErrHasSnapshot):
		return StatusHasSnapshot
	case errors.Is(err, ErrShutdown):
		return StatusShutdown
	}
	return StatusErr
}

// WriteFrame writes one length-prefixed frame: u32 little-endian payload
// length, then the payload. Callers serialize concurrent writers.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("server: frame of %d bytes exceeds MaxFrame", len(payload))
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one frame into a fresh buffer, rejecting oversized length
// prefixes before allocating.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, fmt.Errorf("server: frame length %d exceeds MaxFrame", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// Request framing: u8 opcode | u32 request id | body. The body grammar per
// opcode (all integers little-endian):
//
//	HELLO     u8 tenantLen | tenant
//	OPEN      u8 flags | u8 nameLen | name
//	READ      u32 handle | u64 off | u32 len
//	WRITE     u32 handle | u64 off | data...
//	FSYNC     u32 handle
//	SNAPSHOT  u32 handle
//	DROP      u32 handle | u64 snapID
//	STAT      (empty)
//	CLOSE     u32 handle
//
// Response framing: u8 opcode|RespBit | u32 request id | u8 status | body:
//
//	OPEN      u32 handle | u64 size
//	READ      data...
//	SNAPSHOT  u64 snapID
//	STAT      obs snapshot JSON (mgsp-obs/v1)
//	StatusErr error message text (any opcode)

// AppendRequestHeader appends the request header for (op, id).
func AppendRequestHeader(b []byte, op byte, id uint32) []byte {
	b = append(b, op)
	return binary.LittleEndian.AppendUint32(b, id)
}

// AppendResponseHeader appends the response header for (op, id, status).
func AppendResponseHeader(b []byte, op byte, id uint32, status byte) []byte {
	b = append(b, op|RespBit)
	b = binary.LittleEndian.AppendUint32(b, id)
	return append(b, status)
}

// ParseRequestHeader splits a request payload into opcode, id, and body.
func ParseRequestHeader(p []byte) (op byte, id uint32, body []byte, err error) {
	if len(p) < 5 {
		return 0, 0, nil, fmt.Errorf("server: short request header (%d bytes)", len(p))
	}
	return p[0], binary.LittleEndian.Uint32(p[1:5]), p[5:], nil
}

// ParseResponseHeader splits a response payload into opcode (RespBit
// cleared), id, status, and body.
func ParseResponseHeader(p []byte) (op byte, id uint32, status byte, body []byte, err error) {
	if len(p) < 6 {
		return 0, 0, 0, nil, fmt.Errorf("server: short response header (%d bytes)", len(p))
	}
	if p[0]&RespBit == 0 {
		return 0, 0, 0, nil, fmt.Errorf("server: response frame without RespBit (op %d)", p[0])
	}
	return p[0] &^ RespBit, binary.LittleEndian.Uint32(p[1:5]), p[5], p[6:], nil
}
