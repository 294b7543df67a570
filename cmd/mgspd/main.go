// Command mgspd serves sharded, multi-tenant MGSP namespaces over the
// length-prefixed binary protocol (see internal/server and DESIGN.md §12),
// group-committing concurrent client writes and shedding load when the
// cleaner falls behind.
//
//	mgspd                              serve on :7670, obs on :7671
//	mgspd -addr :9000 -obs :9001       explicit ports (use :0 for ephemeral)
//	mgspd -addr-file a -obs-addr-file b
//	                                   write the bound addresses to files
//	                                   (scripts using :0 read them back)
//	mgspd -shards 4 -dev-size 268435456
//	                                   4 shards of 256 MiB each
//	mgspd -cleaner-interval 1000000 -shed-log-blocks 4096
//	                                   enable the cleaner and backpressure
//	mgspd -img-dir /tmp/imgs           save shard images there on shutdown
//	                                   (mgspfsck -load reads them)
//
// The obs side port serves /metrics (Prometheus) and /metrics.json
// (mgsp-obs/v1) — `mgspstat -url http://host:PORT` works against it.
// SIGINT/SIGTERM drain cleanly: queued writes commit, files close
// (write-back), then images are saved.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"mgsp/internal/core"
	"mgsp/internal/server"
)

func main() {
	addr := flag.String("addr", ":7670", "protocol listen address")
	obsAddr := flag.String("obs", ":7671", "obs HTTP listen address (empty disables)")
	addrFile := flag.String("addr-file", "", "write the bound protocol address to this file")
	obsAddrFile := flag.String("obs-addr-file", "", "write the bound obs address to this file")
	shards := flag.Int("shards", 1, "number of shards (one MGSP file system each)")
	devSize := flag.Int64("dev-size", 64<<20, "per-shard device size in bytes")
	seed := flag.Int64("seed", 1, "simulation seed")
	batchWait := flag.Duration("batch-wait", 0, "group-commit linger (0 = 200µs default)")
	maxBatch := flag.Int("max-batch", 0, "max writes per group commit (0 = 64 default)")
	cleanerInterval := flag.Int64("cleaner-interval", 0, "cleaner pass interval in virtual ns (0 = off)")
	cleanerBudget := flag.Int64("cleaner-budget", 0, "blocks reclaimed per cleaner pass (0 = unbounded)")
	shedLog := flag.Int64("shed-log-blocks", 0, "shed writes when shard log blocks reach this (0 = off)")
	quotaBytes := flag.Int64("quota-bytes", 0, "per-tenant byte quota (0 = unlimited)")
	quotaFiles := flag.Int64("quota-files", 0, "per-tenant open-file quota (0 = unlimited)")
	quotaInflight := flag.Int64("quota-inflight", 0, "per-tenant in-flight op quota (0 = unlimited)")
	imgDir := flag.String("img-dir", "", "save shard device images here on shutdown")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "mgspd: unexpected arguments; see -h")
		os.Exit(2)
	}

	opts := core.DefaultOptions()
	opts.CleanerInterval = *cleanerInterval
	opts.CleanerBudget = *cleanerBudget

	srv, err := server.New(server.Config{
		Shards:        *shards,
		DevSize:       *devSize,
		FSOpts:        opts,
		Seed:          *seed,
		BatchWait:     *batchWait,
		MaxBatchOps:   *maxBatch,
		ShedLogBlocks: *shedLog,
		DefaultQuota: server.Quota{
			MaxBytes:    *quotaBytes,
			MaxFiles:    *quotaFiles,
			MaxInFlight: *quotaInflight,
		},
	})
	if err != nil {
		fatal(err)
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	if err := publishAddr(*addrFile, l.Addr().String()); err != nil {
		fatal(err)
	}
	fmt.Printf("mgspd: serving on %s (%d shard(s), %d MiB each)\n",
		l.Addr(), *shards, *devSize>>20)

	var obsL net.Listener
	if *obsAddr != "" {
		if obsL, err = net.Listen("tcp", *obsAddr); err != nil {
			fatal(err)
		}
		if err := publishAddr(*obsAddrFile, obsL.Addr().String()); err != nil {
			fatal(err)
		}
		fmt.Printf("mgspd: obs on http://%s/metrics.json\n", obsL.Addr())
		go http.Serve(obsL, srv.Handler())
	}

	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Printf("mgspd: %v, draining\n", s)
	case err := <-done:
		if err != nil {
			fatal(err)
		}
	}

	if err := srv.Close(); err != nil {
		fatal(err)
	}
	if obsL != nil {
		obsL.Close()
	}
	if *imgDir != "" {
		for i := 0; i < srv.Shards(); i++ {
			path := filepath.Join(*imgDir, fmt.Sprintf("shard%d.img", i))
			f, err := os.Create(path)
			if err != nil {
				fatal(err)
			}
			if err := srv.SaveImage(i, f); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("mgspd: saved %s\n", path)
		}
	}
	fmt.Println("mgspd: bye")
}

// publishAddr writes the bound address for scripts that listened on :0.
func publishAddr(path, addr string) error {
	if path == "" {
		return nil
	}
	return os.WriteFile(path, []byte(addr+"\n"), 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mgspd:", err)
	os.Exit(1)
}
