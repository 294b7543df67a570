package obs

import "sync/atomic"

// CounterShards is the number of independent cells in a ShardedCounter.
// Power of two so the worker hash reduces with a mask.
const CounterShards = 16

// counterCell is one shard of a ShardedCounter, padded out to a cache line
// so two shards never share one (the whole point is to stop hot counters
// from bouncing a single line between every core).
type counterCell struct {
	v atomic.Int64
	_ [56]byte
}

// ShardedCounter is a monotonically increasing counter split across
// per-worker cache-line-padded cells. A plain Counter is one atomic add —
// cheap in isolation, but at 16–64 workers every op slams the same cache
// line and the "free" instrumentation becomes a coherence hotspot on
// exactly the counters the hot path touches (writes, reads, byte tallies).
// Add takes the worker ID so each worker lands on a stable cell; Load sums
// the cells, which is fine for metrics that are read rarely (snapshots,
// validation) and written constantly.
//
// The zero value is ready to use. Load is not a point-in-time linearizable
// sum — concurrent adders may or may not be included — which matches the
// guarantees of every other counter in this package.
type ShardedCounter struct {
	cells [CounterShards]counterCell
}

// shardOf mixes sparse worker IDs (foreground 0..N-1, cleaner 1<<20,
// harness setup IDs) into a cell index. Same finalizer as
// sim.WorkerHash, inlined to keep obs dependency-free.
func shardOf(worker int) int {
	h := uint32(worker)
	h ^= h >> 16
	h ^= h >> 8
	h *= 0x9E3779B1
	return int(h) & (CounterShards - 1)
}

// Add increments the worker's cell by d.
func (c *ShardedCounter) Add(worker int, d int64) {
	c.cells[shardOf(worker)].v.Add(d)
}

// Load returns the sum across all cells.
func (c *ShardedCounter) Load() int64 {
	var sum int64
	for i := range c.cells {
		sum += c.cells[i].v.Load()
	}
	return sum
}

// Store resets the counter to v (benchmark phase boundaries): cell 0 gets
// the value, every other cell is zeroed.
func (c *ShardedCounter) Store(v int64) {
	c.cells[0].v.Store(v)
	for i := 1; i < len(c.cells); i++ {
		c.cells[i].v.Store(0)
	}
}
