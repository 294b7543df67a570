// crash-recovery sweeps crash points through a burst of MGSP writes and
// verifies operation-level atomicity at every single one: after each crash
// and remount, the file must reflect a clean operation boundary — committed
// writes present, the interrupted write invisible, never a torn mix.
package main

import (
	"bytes"
	"fmt"
	"log"

	"mgsp"
)

const fileSize = 256 * 1024

func main() {
	checked, crashes := 0, 0
	for fail := int64(1); ; fail += 3 {
		dev := mgsp.NewDevice(16<<20, mgsp.ZeroCosts())
		fs, err := mgsp.New(dev, mgsp.DefaultOptions())
		if err != nil {
			log.Fatal(err)
		}
		ctx := mgsp.NewCtx(0, fail)
		f, err := fs.Create(ctx, "f")
		if err != nil {
			log.Fatal(err)
		}
		f.WriteAt(ctx, make([]byte, fileSize), 0)

		// Scripted op sequence (deterministic per fail point).
		type op struct {
			off int64
			n   int
			pat byte
		}
		var script []op
		for i := 0; i < 30; i++ {
			script = append(script, op{
				off: int64(i*7919) % (fileSize - 40000),
				n:   1 + (i*2711)%32768,
				pat: byte(i + 1),
			})
		}

		dev.ArmCrash(fail, fail)
		completed := -1
		for i, o := range script {
			f.WriteAt(ctx, bytes.Repeat([]byte{o.pat}, o.n), o.off)
			if dev.Crashed() {
				break // the cut landed in this op: it stays in flight
			}
			completed = i
		}
		if !dev.Crashed() {
			fmt.Printf("swept %d crash points (%d verified boundaries): all atomic\n", crashes, checked)
			return
		}
		crashes++
		dev.Recover()

		rctx := mgsp.NewCtx(1, fail)
		fs2, err := mgsp.Mount(rctx, dev, mgsp.DefaultOptions())
		if err != nil {
			log.Fatalf("fail=%d: mount: %v", fail, err)
		}
		f2, err := fs2.Open(rctx, "f")
		if err != nil {
			log.Fatalf("fail=%d: %v", fail, err)
		}
		got := make([]byte, fileSize)
		f2.ReadAt(rctx, got, 0)

		// Acceptable states: ops 0..completed, optionally plus the next op
		// (committed just before the crash).
		ref := make([]byte, fileSize)
		apply := func(k int) {
			o := script[k]
			for j := 0; j < o.n; j++ {
				ref[o.off+int64(j)] = o.pat
			}
		}
		for i := 0; i <= completed; i++ {
			apply(i)
		}
		ok := bytes.Equal(got, ref)
		if !ok && completed+1 < len(script) {
			apply(completed + 1)
			ok = bytes.Equal(got, ref)
		}
		if !ok {
			log.Fatalf("fail=%d: recovered state is not an operation boundary", fail)
		}
		checked++
	}
}
