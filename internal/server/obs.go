package server

import (
	"net/http"
	"sync/atomic"

	"mgsp/internal/obs"
)

// serverObs is the server's own registry: the front-end metrics the per-
// shard FS registries cannot see (batching efficacy, admission decisions,
// connection and tenant traffic).
type serverObs struct {
	reg *obs.Registry

	// hBatchSize is the coalescing scorecard: ops per successful WriteMulti
	// group commit. Mean > 1 under concurrent writers is the whole point of
	// the batcher (acceptance criterion for ISSUE 6).
	hBatchSize *obs.Histogram

	cGroupCommits *obs.Counter // successful WriteMulti commits
	cWritesAcked  *obs.Counter // client writes acked durable
	cOps          *obs.Counter // requests served (post-HELLO)
	cShed         *obs.Counter // writes refused by backpressure
	cCrashed      *obs.Counter // 0 or 1: the device died
	gConns        atomic.Int64 // live connections
}

func (s *Server) initObs() {
	r := obs.NewRegistry()
	s.obs = serverObs{
		reg:           r,
		hBatchSize:    r.Histogram("server.batch_size"),
		cGroupCommits: r.Counter("server.group_commits"),
		cWritesAcked:  r.Counter("server.writes_acked"),
		cOps:          r.Counter("server.ops"),
		cShed:         r.Counter("server.shed"),
		cCrashed:      r.Counter("server.crashed"),
	}
	r.RegisterFunc("server.conns", func() float64 { return float64(s.obs.gConns.Load()) })
	r.RegisterFunc("server.queue_depth", func() float64 {
		var n int
		for _, sh := range s.shards {
			n += len(sh.queue)
		}
		return float64(n)
	})
	r.RegisterFunc("server.shards", func() float64 { return float64(len(s.shards)) })
}

// Snapshot merges the server registry with every shard FS's registry
// (prefixed "shard<i>.") into one mgsp-obs/v1 snapshot — the single
// document STAT returns and the side-port HTTP handler serves, so mgspstat
// sees batching, backpressure, tenants, core counters, and cleaner gauges
// in one fetch.
func (s *Server) Snapshot() *obs.Snapshot {
	out := s.obs.reg.Snapshot()
	for _, sh := range s.shards {
		sh.mergeObs(out)
	}
	return out
}

// Handler serves the merged snapshot over HTTP (/metrics, /metrics.json):
// the side-port endpoint mgspd exposes for `mgspstat fetch`.
func (s *Server) Handler() http.Handler {
	return obs.Handler(func() *obs.Snapshot { return s.Snapshot() }, nil)
}
