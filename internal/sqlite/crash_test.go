package sqlite

import (
	"fmt"
	"testing"

	"mgsp/internal/core"
	"mgsp/internal/nvm"
	"mgsp/internal/sim"
)

// TestWALCrashSweep sweeps fail points through a sequence of committed
// transactions on MGSP-backed WAL-mode SQLite and asserts ACID behaviour:
// after recovery the database contains a prefix of the committed
// transactions (each all-or-nothing) and never a torn row.
func TestWALCrashSweep(t *testing.T) {
	const rows = 40
	for fail := int64(50); ; fail += 211 {
		dev := nvm.New(128<<20, sim.ZeroCosts())
		fs := core.MustNew(dev, core.DefaultOptions())
		ctx := sim.NewCtx(0, fail)
		db, err := Open(ctx, fs, "acid.db", WAL)
		if err != nil {
			t.Fatal(err)
		}
		db.CreateTable(ctx, "t")

		committed := -1
		dev.ArmCrash(fail, fail)
		for i := 0; i < rows && !dev.Crashed(); i++ {
			err := db.Exec(ctx, func(tx *Txn) error {
				// Multi-row transaction: all three rows must commit
				// together.
				for j := 0; j < 3; j++ {
					if err := tx.Insert(ctx, "t",
						[]byte(fmt.Sprintf("txn%03d-row%d", i, j)),
						[]byte(fmt.Sprintf("value-%03d-%d", i, j))); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil || dev.Crashed() {
				break
			}
			committed = i
		}
		dev.DisarmCrash()
		if !dev.Crashed() {
			if fail == 50 {
				t.Fatal("sweep never crashed")
			}
			return
		}
		dev.Recover()

		rctx := sim.NewCtx(1, fail)
		fs2, err := core.Mount(rctx, dev, core.DefaultOptions())
		if err != nil {
			t.Fatalf("fail=%d: fs recovery: %v", fail, err)
		}
		db2, err := Open(rctx, fs2, "acid.db", WAL)
		if err != nil {
			t.Fatalf("fail=%d: db recovery: %v", fail, err)
		}
		db2.Exec(rctx, func(tx *Txn) error {
			// Every committed transaction is fully present.
			for i := 0; i <= committed; i++ {
				for j := 0; j < 3; j++ {
					v, err := tx.Get(rctx, "t", []byte(fmt.Sprintf("txn%03d-row%d", i, j)))
					if err != nil || v == nil {
						t.Fatalf("fail=%d: committed txn %d row %d lost (%v)", fail, i, j, err)
					}
					if string(v) != fmt.Sprintf("value-%03d-%d", i, j) {
						t.Fatalf("fail=%d: torn row: %q", fail, v)
					}
				}
			}
			// Transactions are atomic: a later txn is either fully present
			// or fully absent.
			for i := committed + 1; i < rows; i++ {
				present := 0
				for j := 0; j < 3; j++ {
					if v, _ := tx.Get(rctx, "t", []byte(fmt.Sprintf("txn%03d-row%d", i, j))); v != nil {
						present++
					}
				}
				if present != 0 && present != 3 {
					t.Fatalf("fail=%d: txn %d partially visible (%d/3 rows)", fail, i, present)
				}
			}
			return nil
		})
	}
}

// TestOffModeOnMGSPStillPageAtomic: with journal OFF the database relies
// entirely on the file system; MGSP's per-write atomicity keeps individual
// page writes untorn, so the B+tree structure survives page-granular
// crashes (the property the paper's §IV-D OFF-mode comparison leans on).
func TestOffModeOnMGSPPageAtomic(t *testing.T) {
	for fail := int64(100); fail < 2000; fail += 379 {
		dev := nvm.New(128<<20, sim.ZeroCosts())
		fs := core.MustNew(dev, core.DefaultOptions())
		ctx := sim.NewCtx(0, fail)
		db, err := Open(ctx, fs, "off.db", Off)
		if err != nil {
			t.Fatal(err)
		}
		db.CreateTable(ctx, "t")
		dev.ArmCrash(fail, fail)
		for i := 0; i < 60 && !dev.Crashed(); i++ {
			db.Exec(ctx, func(tx *Txn) error {
				return tx.Insert(ctx, "t", []byte(fmt.Sprintf("k%04d", i)), []byte("v"))
			})
		}
		dev.DisarmCrash()
		dev.Recover()
		fs2, err := core.Mount(sim.NewCtx(1, fail), dev, core.DefaultOptions())
		if err != nil {
			t.Fatalf("fail=%d: %v", fail, err)
		}
		rctx := sim.NewCtx(2, fail)
		db2, err := Open(rctx, fs2, "off.db", Off)
		if err != nil {
			// OFF mode makes no multi-page atomicity promise; an unlucky
			// crash between page writes of one commit can leave the tree
			// inconsistent — but the pages themselves must not be torn, so
			// the header must still parse. Opening may legitimately find a
			// half-updated tree; tolerate scan errors but not header
			// corruption.
			t.Fatalf("fail=%d: database header corrupted: %v", fail, err)
		}
		// A full scan must not panic (structure may be stale but not torn).
		db2.Exec(rctx, func(tx *Txn) error {
			return tx.Scan(rctx, "t", nil, nil, func(k, v []byte) bool { return true })
		})
	}
}
