package sqlite

import (
	"fmt"
	"testing"

	"mgsp/internal/core"
	"mgsp/internal/nvm"
	"mgsp/internal/sim"
)

func TestAtomicModeRequiresBatchWrites(t *testing.T) {
	ctx := sim.NewCtx(0, 1)
	if _, err := Open(ctx, newBackingFS(), "a.db", Atomic); err == nil {
		t.Fatal("ATOMIC mode accepted a file system without WriteMulti")
	}
}

func TestAtomicModeCRUD(t *testing.T) {
	dev := nvm.New(128<<20, sim.ZeroCosts())
	fs := core.MustNew(dev, core.DefaultOptions())
	ctx := sim.NewCtx(0, 1)
	db, err := Open(ctx, fs, "a.db", Atomic)
	if err != nil {
		t.Fatal(err)
	}
	db.CreateTable(ctx, "t")
	for i := 0; i < 500; i++ {
		err := db.Exec(ctx, func(tx *Txn) error {
			return tx.Insert(ctx, "t", []byte(fmt.Sprintf("k%05d", i)), []byte(fmt.Sprintf("v%d", i)))
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	db.Exec(ctx, func(tx *Txn) error {
		v, _ := tx.Get(ctx, "t", []byte("k00042"))
		if string(v) != "v42" {
			t.Fatalf("got %q", v)
		}
		return nil
	})
	if err := db.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestAtomicModeCrashSweep: with journal_mode=ATOMIC every transaction rides
// one MGSP WriteMulti, so multi-page transactions are crash-atomic with NO
// database journal at all.
func TestAtomicModeCrashSweep(t *testing.T) {
	const rows = 30
	for fail := int64(60); ; fail += 173 {
		dev := nvm.New(128<<20, sim.ZeroCosts())
		fs := core.MustNew(dev, core.DefaultOptions())
		ctx := sim.NewCtx(0, fail)
		db, err := Open(ctx, fs, "a.db", Atomic)
		if err != nil {
			t.Fatal(err)
		}
		db.CreateTable(ctx, "t")

		committed := -1
		dev.ArmCrash(fail, fail)
		for i := 0; i < rows && !dev.Crashed(); i++ {
			err := db.Exec(ctx, func(tx *Txn) error {
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
			if fail == 60 {
				t.Fatal("sweep never crashed")
			}
			return
		}
		dev.Recover()
		fs2, err := core.Mount(sim.NewCtx(1, fail), dev, core.DefaultOptions())
		if err != nil {
			t.Fatalf("fail=%d: %v", fail, err)
		}
		rctx := sim.NewCtx(2, fail)
		db2, err := Open(rctx, fs2, "a.db", Atomic)
		if err != nil {
			t.Fatalf("fail=%d: reopen: %v", fail, err)
		}
		db2.Exec(rctx, func(tx *Txn) error {
			for i := 0; i <= committed; i++ {
				for j := 0; j < 3; j++ {
					v, _ := tx.Get(rctx, "t", []byte(fmt.Sprintf("txn%03d-row%d", i, j)))
					if string(v) != fmt.Sprintf("value-%03d-%d", i, j) {
						t.Fatalf("fail=%d: committed txn %d row %d wrong: %q", fail, i, j, v)
					}
				}
			}
			for i := committed + 1; i < rows; i++ {
				present := 0
				for j := 0; j < 3; j++ {
					if v, _ := tx.Get(rctx, "t", []byte(fmt.Sprintf("txn%03d-row%d", i, j))); v != nil {
						present++
					}
				}
				if present != 0 && present != 3 {
					t.Fatalf("fail=%d: txn %d torn (%d/3 rows) despite ATOMIC mode", fail, i, present)
				}
			}
			return nil
		})
	}
}
