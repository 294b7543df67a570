package sqlite

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"mgsp/internal/core"
	"mgsp/internal/ext4"
	"mgsp/internal/nvm"
	"mgsp/internal/sim"
	"mgsp/internal/vfs"
)

func newBackingFS() vfs.FS {
	return ext4.New(nvm.New(128<<20, sim.ZeroCosts()), ext4.DAX)
}

func openTestDB(t *testing.T, mode JournalMode) (*DB, *sim.Ctx) {
	t.Helper()
	ctx := sim.NewCtx(0, 1)
	db, err := Open(ctx, newBackingFS(), "test.db", mode)
	if err != nil {
		t.Fatal(err)
	}
	return db, ctx
}

func TestBasicCRUD(t *testing.T) {
	for _, mode := range []JournalMode{WAL, Off} {
		t.Run(mode.String(), func(t *testing.T) {
			db, ctx := openTestDB(t, mode)
			if err := db.CreateTable(ctx, "kv"); err != nil {
				t.Fatal(err)
			}
			err := db.Exec(ctx, func(tx *Txn) error {
				return tx.Insert(ctx, "kv", []byte("alpha"), []byte("1"))
			})
			if err != nil {
				t.Fatal(err)
			}
			db.Exec(ctx, func(tx *Txn) error {
				v, err := tx.Get(ctx, "kv", []byte("alpha"))
				if err != nil || string(v) != "1" {
					t.Fatalf("Get = %q, %v", v, err)
				}
				if v, _ := tx.Get(ctx, "kv", []byte("beta")); v != nil {
					t.Fatal("missing key returned a value")
				}
				return nil
			})
			db.Exec(ctx, func(tx *Txn) error {
				return tx.Insert(ctx, "kv", []byte("alpha"), []byte("2"))
			})
			db.Exec(ctx, func(tx *Txn) error {
				v, _ := tx.Get(ctx, "kv", []byte("alpha"))
				if string(v) != "2" {
					t.Fatalf("updated value = %q", v)
				}
				ok, err := tx.Delete(ctx, "kv", []byte("alpha"))
				if !ok || err != nil {
					t.Fatalf("Delete = %v, %v", ok, err)
				}
				return nil
			})
			db.Exec(ctx, func(tx *Txn) error {
				if v, _ := tx.Get(ctx, "kv", []byte("alpha")); v != nil {
					t.Fatal("deleted key still present")
				}
				return nil
			})
			if err := db.Close(ctx); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestManyInsertsSplitsAndScan(t *testing.T) {
	db, ctx := openTestDB(t, WAL)
	db.CreateTable(ctx, "t")
	const n = 5000
	perm := rand.New(rand.NewSource(5)).Perm(n)
	err := db.Exec(ctx, func(tx *Txn) error {
		for _, i := range perm {
			k := []byte(fmt.Sprintf("key-%06d", i))
			v := bytes.Repeat([]byte{byte(i)}, 50)
			if err := tx.Insert(ctx, "t", k, v); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Full ordered scan.
	var got []string
	db.Exec(ctx, func(tx *Txn) error {
		return tx.Scan(ctx, "t", nil, nil, func(k, v []byte) bool {
			got = append(got, string(k))
			return true
		})
	})
	if len(got) != n {
		t.Fatalf("scan returned %d keys, want %d", len(got), n)
	}
	if !sort.StringsAreSorted(got) {
		t.Fatal("scan not in key order")
	}
	// Point reads across the tree.
	db.Exec(ctx, func(tx *Txn) error {
		for i := 0; i < n; i += 97 {
			k := []byte(fmt.Sprintf("key-%06d", i))
			v, err := tx.Get(ctx, "t", k)
			if err != nil || v == nil {
				t.Fatalf("Get(%s) = %v, %v", k, v, err)
			}
			if v[0] != byte(i) {
				t.Fatalf("Get(%s) wrong value", k)
			}
		}
		return nil
	})
}

func TestRangeScan(t *testing.T) {
	db, ctx := openTestDB(t, Off)
	db.CreateTable(ctx, "t")
	db.Exec(ctx, func(tx *Txn) error {
		for i := 0; i < 100; i++ {
			tx.Insert(ctx, "t", []byte(fmt.Sprintf("%03d", i)), []byte{byte(i)})
		}
		return nil
	})
	var got []string
	db.Exec(ctx, func(tx *Txn) error {
		return tx.Scan(ctx, "t", []byte("010"), []byte("020"), func(k, v []byte) bool {
			got = append(got, string(k))
			return true
		})
	})
	if len(got) != 10 || got[0] != "010" || got[9] != "019" {
		t.Fatalf("range scan = %v", got)
	}
}

func TestRollback(t *testing.T) {
	db, ctx := openTestDB(t, WAL)
	db.CreateTable(ctx, "t")
	db.Exec(ctx, func(tx *Txn) error {
		return tx.Insert(ctx, "t", []byte("stay"), []byte("old"))
	})
	tx := db.Begin(ctx)
	tx.Insert(ctx, "t", []byte("stay"), []byte("new"))
	tx.Insert(ctx, "t", []byte("gone"), []byte("x"))
	tx.Rollback(ctx)

	db.Exec(ctx, func(tx *Txn) error {
		v, _ := tx.Get(ctx, "t", []byte("stay"))
		if string(v) != "old" {
			t.Fatalf("rollback left %q", v)
		}
		if v, _ := tx.Get(ctx, "t", []byte("gone")); v != nil {
			t.Fatal("rolled-back insert visible")
		}
		return nil
	})
}

func TestRollbackAcrossSplits(t *testing.T) {
	db, ctx := openTestDB(t, WAL)
	db.CreateTable(ctx, "t")
	db.Exec(ctx, func(tx *Txn) error {
		for i := 0; i < 50; i++ {
			tx.Insert(ctx, "t", []byte(fmt.Sprintf("base-%04d", i)), bytes.Repeat([]byte{1}, 100))
		}
		return nil
	})
	tx := db.Begin(ctx)
	for i := 0; i < 2000; i++ { // force many splits
		tx.Insert(ctx, "t", []byte(fmt.Sprintf("tmp-%06d", i)), bytes.Repeat([]byte{2}, 100))
	}
	tx.Rollback(ctx)
	count := 0
	db.Exec(ctx, func(tx *Txn) error {
		return tx.Scan(ctx, "t", nil, nil, func(k, v []byte) bool {
			count++
			return true
		})
	})
	if count != 50 {
		t.Fatalf("after rollback: %d rows, want 50", count)
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	for _, mode := range []JournalMode{WAL, Off} {
		t.Run(mode.String(), func(t *testing.T) {
			fs := newBackingFS()
			ctx := sim.NewCtx(0, 1)
			db, err := Open(ctx, fs, "p.db", mode)
			if err != nil {
				t.Fatal(err)
			}
			db.CreateTable(ctx, "t")
			db.Exec(ctx, func(tx *Txn) error {
				for i := 0; i < 500; i++ {
					tx.Insert(ctx, "t", []byte(fmt.Sprintf("k%05d", i)), []byte(fmt.Sprintf("v%d", i)))
				}
				return nil
			})
			if err := db.Close(ctx); err != nil {
				t.Fatal(err)
			}
			db2, err := Open(ctx, fs, "p.db", mode)
			if err != nil {
				t.Fatal(err)
			}
			db2.Exec(ctx, func(tx *Txn) error {
				for i := 0; i < 500; i += 37 {
					v, _ := tx.Get(ctx, "t", []byte(fmt.Sprintf("k%05d", i)))
					if string(v) != fmt.Sprintf("v%d", i) {
						t.Fatalf("row %d lost across reopen: %q", i, v)
					}
				}
				return nil
			})
		})
	}
}

// TestWALCrashRecovery: committed transactions survive a crash (volatile
// state dropped); the uncommitted one disappears.
func TestWALCrashRecovery(t *testing.T) {
	dev := nvm.New(128<<20, sim.ZeroCosts())
	fs := core.MustNew(dev, core.DefaultOptions())
	ctx := sim.NewCtx(0, 1)
	db, err := Open(ctx, fs, "c.db", WAL)
	if err != nil {
		t.Fatal(err)
	}
	db.CreateTable(ctx, "t")
	db.Exec(ctx, func(tx *Txn) error {
		return tx.Insert(ctx, "t", []byte("committed"), []byte("yes"))
	})
	// Uncommitted: begin, insert, crash before commit.
	tx := db.Begin(ctx)
	tx.Insert(ctx, "t", []byte("uncommitted"), []byte("no"))

	// Crash: drop volatile device state and remount everything.
	dev.Recover()
	fs2, err := core.Mount(ctx, dev, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	db2, err := Open(ctx, fs2, "c.db", WAL)
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	db2.Exec(ctx, func(tx *Txn) error { //mgsp:lock-order-ok db2 is a fresh post-crash instance; the lock still held through the abandoned tx belongs to the dead pre-crash db
		v, _ := tx.Get(ctx, "t", []byte("committed"))
		if string(v) != "yes" {
			t.Fatalf("committed row lost: %q", v)
		}
		if v, _ := tx.Get(ctx, "t", []byte("uncommitted")); v != nil {
			t.Fatal("uncommitted row visible after crash")
		}
		return nil
	})
}

// TestWALCheckpoint: exceeding the frame threshold moves data into the
// database file and truncates the WAL.
func TestWALCheckpoint(t *testing.T) {
	db, ctx := openTestDB(t, WAL)
	db.CreateTable(ctx, "t")
	for i := 0; i < checkpointFrames+200; i++ {
		db.Exec(ctx, func(tx *Txn) error {
			return tx.Insert(ctx, "t", []byte(fmt.Sprintf("k%07d", i)), bytes.Repeat([]byte{byte(i)}, 64))
		})
	}
	if db.pager.frames >= checkpointFrames {
		t.Fatalf("WAL never checkpointed: %d frames", db.pager.frames)
	}
	// Data remains fully readable.
	db.Exec(ctx, func(tx *Txn) error {
		v, _ := tx.Get(ctx, "t", []byte("k0000000"))
		if v == nil {
			t.Fatal("row lost across checkpoint")
		}
		return nil
	})
}

// TestBTreeDifferentialProperty: the tree agrees with a map reference under
// random interleaved inserts/deletes/updates.
func TestBTreeDifferentialProperty(t *testing.T) {
	f := func(seed int64) bool {
		db, ctx := openTestDB(t, Off)
		db.CreateTable(ctx, "t")
		rng := rand.New(rand.NewSource(seed))
		ref := make(map[string]string)
		db.Exec(ctx, func(tx *Txn) error {
			for op := 0; op < 400; op++ {
				k := fmt.Sprintf("k%03d", rng.Intn(200))
				switch rng.Intn(3) {
				case 0, 1:
					v := fmt.Sprintf("v%d", rng.Int63())
					tx.Insert(ctx, "t", []byte(k), []byte(v))
					ref[k] = v
				case 2:
					tx.Delete(ctx, "t", []byte(k))
					delete(ref, k)
				}
			}
			return nil
		})
		ok := true
		db.Exec(ctx, func(tx *Txn) error {
			count := 0
			tx.Scan(ctx, "t", nil, nil, func(k, v []byte) bool {
				count++
				if ref[string(k)] != string(v) {
					ok = false
				}
				return true
			})
			if count != len(ref) {
				ok = false
			}
			return nil
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestOversizePayloadRejected(t *testing.T) {
	db, ctx := openTestDB(t, Off)
	db.CreateTable(ctx, "t")
	err := db.Exec(ctx, func(tx *Txn) error {
		return tx.Insert(ctx, "t", []byte("k"), make([]byte, MaxPayload+1))
	})
	if err == nil {
		t.Fatal("oversize payload accepted")
	}
}

func TestMissingTable(t *testing.T) {
	db, ctx := openTestDB(t, Off)
	err := db.Exec(ctx, func(tx *Txn) error {
		return tx.Insert(ctx, "nope", []byte("k"), []byte("v"))
	})
	if err == nil {
		t.Fatal("insert into missing table succeeded")
	}
}
