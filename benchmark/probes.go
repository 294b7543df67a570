package main

import (
	"io"
	"net"
	"time"

	"mgsp/internal/alloc"
	"mgsp/internal/cache"
	"mgsp/internal/nvm"
	"mgsp/internal/sim"
)

// Probes call one layer's public API directly, in isolation, so a change to
// that layer shows even where a workload spends little time in it.

const probeIters = 100000

// perCall times n calls of f and returns wall ns per call.
func perCall(n int, f func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(time.Since(t0)) / float64(n)
}

// probeSim books the primitives every modelled lock and media op goes
// through, rotating over the workload's worker count and booking its write
// size worth of bandwidth.
func probeSim(m map[string]float64, workers, writeSize int) {
	ctxs := newCtxs(workers, 1)
	costs := sim.DefaultCosts()
	dur := costs.WriteCost(writeSize) - costs.NVMWriteLat
	tl := sim.NewTimeline(costs.Channels)
	m["sim.timeline_reserve_wall_ns"] = perCall(probeIters, func(i int) {
		tl.Reserve(ctxs[i%workers], dur)
	})
	var mu sim.Mutex
	m["sim.mutex_pair_wall_ns"] = perCall(probeIters, func(i int) {
		ctx := ctxs[i%workers]
		mu.Lock(ctx)
		ctx.Advance(100)
		mu.Unlock(ctx)
	})
	var rw sim.RWMutex
	m["sim.rwmutex_pair_wall_ns"] = perCall(probeIters, func(i int) {
		ctx := ctxs[i%workers]
		if i%4 == 0 {
			rw.Lock(ctx)
			ctx.Advance(100)
			rw.Unlock(ctx)
			return
		}
		rw.RLock(ctx)
		ctx.Advance(100)
		rw.RUnlock(ctx)
	})
}

// probeNVM persists a metadata-entry-sized and a leaf-sized record, each
// followed by its fence.
func probeNVM(m map[string]float64) {
	const region = 8 << 20
	dev := nvm.New(region, sim.DefaultCosts())
	ctx := sim.NewCtx(0, 1)
	persist := func(size int) (wallNS, virtNS float64) {
		buf := make([]byte, size)
		v0 := ctx.Now()
		wallNS = perCall(probeIters, func(i int) {
			dev.WriteNT(ctx, buf, int64(i%(region/size))*int64(size))
			dev.Fence(ctx)
		})
		return wallNS, float64(ctx.Now()-v0) / probeIters
	}
	m["nvm.writent_128_wall_ns"], m["nvm.writent_128_virt_ns"] = persist(128)
	m["nvm.writent_4k_wall_ns"], _ = persist(4096)
}

func probeAlloc(m map[string]float64) {
	costs := sim.DefaultCosts()
	a := alloc.New(0, 64<<20, blockSize, &costs)
	ctx := sim.NewCtx(0, 1)
	m["alloc.pair_wall_ns"] = perCall(probeIters, func(int) {
		if off, err := a.Alloc(ctx); err == nil {
			a.Free(ctx, off, 1)
		}
	})
	m["alloc.pair_virt_ns"] = float64(ctx.Now()) / probeIters
}

// probeCache times the three things core asks of the frame pool: a read
// hit, an install (with eviction once the pool is full) and a patch.
func probeCache(m map[string]float64) {
	const frames = 2048
	p := cache.New(frames, blockSize)
	for b := 0; b < frames/2; b++ {
		p.Install(0, int64(b), make([]byte, blockSize), false)
	}
	dst := make([]byte, blockSize)
	m["cache.read_hit_wall_ns"] = perCall(probeIters, func(i int) {
		p.Read(0, int64(i%(frames/2)), dst, 0)
	})
	part := make([]byte, 512)
	m["cache.patch_wall_ns"] = perCall(probeIters, func(i int) {
		p.Patch(0, int64(i%(frames/2)), 512, part, false)
	})
	// Install owns its buffer; allocate them outside the timed loop.
	const installs = 4 * frames
	bufs := make([][]byte, installs)
	for i := range bufs {
		bufs[i] = make([]byte, blockSize)
	}
	m["cache.install_wall_ns"] = perCall(installs, func(i int) {
		p.Install(1, int64(i), bufs[i], false)
	})
}

// probeLoopback measures a request/reply over the same kind of socket the
// server workloads use, with frames of their mean size and nothing behind
// them: what the kernel's TCP loopback costs, to subtract from an ack.
func probeLoopback(m map[string]float64) error {
	const frame, trips = 700, 3000
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	echoed := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			echoed <- err
			return
		}
		defer c.Close()
		buf := make([]byte, frame)
		for {
			if _, err := io.ReadFull(c, buf); err != nil {
				echoed <- nil // the client hung up: done
				return
			}
			if _, err := c.Write(buf); err != nil {
				echoed <- err
				return
			}
		}
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	rtt := newSamples(trips)
	buf := make([]byte, frame)
	for i := 0; i < trips; i++ {
		t0 := time.Now()
		if _, err := c.Write(buf); err != nil {
			c.Close()
			return err
		}
		if _, err := io.ReadFull(c, buf); err != nil {
			c.Close()
			return err
		}
		rtt.add(int64(time.Since(t0)))
	}
	c.Close()
	if err := <-echoed; err != nil {
		return err
	}
	m["server.loopback_rtt_p50_us"] = rtt.quantiles(0.5)[0] / 1e3
	return nil
}

func runProbes(m map[string]float64, workers, writeSize int) error {
	probeSim(m, workers, writeSize)
	probeNVM(m)
	probeAlloc(m)
	probeCache(m)
	return probeLoopback(m)
}
