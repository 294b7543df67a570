package server_test

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"mgsp/internal/server"
)

// maxFuzzFrames bounds the request frames one FuzzServeConn input carries.
const maxFuzzFrames = 64

// fuzzFrames splits a fuzz input into request payloads: each is one length
// byte followed by that many bytes, the last one cut short where the input
// ends.
func fuzzFrames(data []byte) [][]byte {
	var frames [][]byte
	for len(data) > 0 && len(frames) < maxFuzzFrames {
		n := min(int(data[0]), len(data)-1)
		frames = append(frames, data[1:1+n])
		data = data[1+n:]
	}
	return frames
}

// fuzzInput joins request payloads into one FuzzServeConn input.
func fuzzInput(frames ...[]byte) []byte {
	var b []byte
	for _, f := range frames {
		b = append(append(b, byte(len(f))), f...)
	}
	return b
}

// request builds one request payload: header, then the body fields.
func request(op byte, id uint32, fields ...any) []byte {
	b := server.AppendRequestHeader(nil, op, id)
	for _, f := range fields {
		switch v := f.(type) {
		case uint8:
			b = append(b, v)
		case uint32:
			b = binary.LittleEndian.AppendUint32(b, v)
		case uint64:
			b = binary.LittleEndian.AppendUint64(b, v)
		case string:
			b = append(b, v...)
		}
	}
	return b
}

// FuzzServeConn drives one mgspd connection with arbitrary request frames
// after a valid HELLO. The server must not panic, every reply must parse as
// a response header, and Close must return.
func FuzzServeConn(f *testing.F) {
	open := request(server.OpOpen, 1, uint8(server.OpenCreate), uint8(1), "f")
	all := [][]byte{
		request(server.OpHello, 2, uint8(1), "u"),
		open,
		request(server.OpRead, 3, uint32(1), uint64(0), uint32(512)),
		request(server.OpWrite, 4, uint32(1), uint64(4096), "payload"),
		request(server.OpFsync, 5, uint32(1)),
		request(server.OpSnapshot, 6, uint32(1)),
		request(server.OpDrop, 7, uint32(1), uint64(1)),
		request(server.OpStat, 8),
		request(server.OpClose, 9, uint32(1)),
		request(0x7f, 10),
	}
	for _, r := range all {
		f.Add(fuzzInput(open, r))
		for cut := 1; cut < len(r); cut += 4 {
			f.Add(fuzzInput(open, r[:cut]))
		}
	}
	f.Add(fuzzInput(all...))
	f.Fuzz(func(t *testing.T, data []byte) {
		srv, err := server.New(server.Config{DevSize: 4 << 20, BatchWait: -1})
		if err != nil {
			t.Fatal(err)
		}
		cc, sc := net.Pipe()
		go srv.ServeConn(sc)
		replies := make(chan error, 1)
		go func() {
			for {
				p, err := server.ReadFrame(cc)
				if err != nil {
					replies <- nil
					return
				}
				if _, _, _, _, err := server.ParseResponseHeader(p); err != nil {
					replies <- err
					return
				}
			}
		}()
		frames := append([][]byte{request(server.OpHello, 0, uint8(1), "t")}, fuzzFrames(data)...)
		for _, fr := range frames {
			if err := server.WriteFrame(cc, fr); err != nil {
				if !errors.Is(err, io.ErrClosedPipe) {
					t.Fatalf("sending a frame: %v", err)
				}
				break
			}
		}
		closed := make(chan error, 1)
		go func() { closed <- srv.Close() }()
		select {
		case err := <-closed:
			if err != nil {
				t.Fatalf("Close: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("Server.Close did not return")
		}
		cc.Close()
		if err := <-replies; err != nil {
			t.Fatalf("unparsable reply: %v", err)
		}
	})
}
