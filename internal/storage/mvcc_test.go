package storage

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"dhqp/internal/rowset"
	"dhqp/internal/schema"
	"dhqp/internal/sqltypes"
)

func testTableDef(name string) *schema.Table {
	return &schema.Table{
		Catalog: "db",
		Name:    name,
		Columns: []schema.Column{
			{Name: "id", Kind: sqltypes.KindInt},
			{Name: "v", Kind: sqltypes.KindString, Nullable: true},
		},
		PrimaryKey: []int{0},
		Indexes:    []schema.Index{{Name: "pk_" + name, Columns: []int{0}}},
	}
}

func testEngine(t *testing.T) (*Engine, *Table) {
	t.Helper()
	e := NewEngine()
	db := e.CreateDatabase("db")
	tbl, err := db.CreateTable(testTableDef("t"))
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	return e, tbl
}

func trow(id int64, v string) rowset.Row {
	return rowset.Row{sqltypes.NewInt(id), sqltypes.NewString(v)}
}

func mustInsert(t *testing.T, tbl *Table, r rowset.Row) int64 {
	t.Helper()
	bm, err := tbl.Insert(r)
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	return bm
}

// scanRows drains a scan into (bookmark, row) pairs.
func scanRows(t *testing.T, rs rowset.Rowset) map[int64]string {
	t.Helper()
	out := map[int64]string{}
	rows, bms := readRows(rs)
	for i, r := range rows {
		out[bms[i]] = r[1].Display()
	}
	return out
}

// dumpEngine renders the full engine state canonically (schema +
// bookmarked rows), for exact state comparisons across recovery.
func dumpEngine(e *Engine) string {
	var sb strings.Builder
	for _, dbn := range e.Databases() {
		db, _ := e.Database(dbn)
		for _, tn := range db.Tables() {
			t, _ := db.Table(tn)
			fmt.Fprintf(&sb, "%s.%s(", dbn, tn)
			for _, ix := range t.Indexes() {
				fmt.Fprintf(&sb, "%s:%d,", ix.Def().Name, ix.Len())
			}
			sb.WriteString(")[")
			rows, bms := readRows(t.Scan())
			for i, r := range rows {
				fmt.Fprintf(&sb, "%d:", bms[i])
				for _, v := range r {
					sb.WriteString(v.String())
					sb.WriteByte(',')
				}
				sb.WriteByte(';')
			}
			sb.WriteString("]\n")
		}
	}
	return sb.String()
}

func TestSnapshotScanSeesPinnedState(t *testing.T) {
	e, tbl := testEngine(t)
	for i := 0; i < 10; i++ {
		mustInsert(t, tbl, trow(int64(i), "old"))
	}
	snap := e.AcquireSnapshot()
	defer snap.Release()

	if err := tbl.Delete(3); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if err := tbl.Update(5, trow(5, "new")); err != nil {
		t.Fatalf("Update: %v", err)
	}
	mustInsert(t, tbl, trow(100, "later"))

	got := scanRows(t, tbl.ScanAt(snap.CSN()))
	if len(got) != 10 {
		t.Fatalf("snapshot scan: got %d rows, want 10: %v", len(got), got)
	}
	if got[3] != "old" || got[5] != "old" {
		t.Fatalf("snapshot scan leaked newer writes: %v", got)
	}
	if _, ok := got[10]; ok {
		t.Fatalf("snapshot scan sees row inserted after snapshot")
	}

	latest := scanRows(t, tbl.Scan())
	if len(latest) != 10 {
		t.Fatalf("latest scan: got %d rows, want 10", len(latest))
	}
	if latest[5] != "new" {
		t.Fatalf("latest scan missing update: %v", latest)
	}
	if _, ok := latest[3]; ok {
		t.Fatalf("latest scan shows deleted row")
	}
}

func TestSnapshotFetchAndIndexRange(t *testing.T) {
	e, tbl := testEngine(t)
	for i := 0; i < 5; i++ {
		mustInsert(t, tbl, trow(int64(i), "old"))
	}
	snap := e.AcquireSnapshot()
	defer snap.Release()
	if err := tbl.Update(2, trow(2, "new")); err != nil {
		t.Fatalf("Update: %v", err)
	}
	if err := tbl.Delete(4); err != nil {
		t.Fatalf("Delete: %v", err)
	}

	r, err := tbl.FetchAt(2, snap.CSN())
	if err != nil || r[1].Display() != "old" {
		t.Fatalf("FetchAt(2) = %v, %v; want old row", r, err)
	}
	if r, err := tbl.FetchAt(4, snap.CSN()); err != nil {
		t.Fatalf("FetchAt(4) at snapshot should see the row, got err %v (%v)", err, r)
	}
	if _, err := tbl.Fetch(4); err == nil {
		t.Fatalf("Fetch(4) latest should fail after delete")
	}

	ix, _ := tbl.Index("pk_t")
	got := scanRows(t, ix.RangeAt(Bound{}, Bound{}, snap.CSN()))
	if len(got) != 5 || got[2] != "old" {
		t.Fatalf("RangeAt snapshot = %v, want 5 old rows", got)
	}
	latest := scanRows(t, ix.Range(Bound{}, Bound{}))
	if len(latest) != 4 || latest[2] != "new" {
		t.Fatalf("Range latest = %v, want 4 rows with updated value", latest)
	}
}

func TestTxnBufferedCommitAndAbort(t *testing.T) {
	e, tbl := testEngine(t)
	bm := mustInsert(t, tbl, trow(1, "a"))

	tx := e.Begin()
	if err := tx.Insert(tbl, trow(2, "b")); err != nil {
		t.Fatalf("txn insert: %v", err)
	}
	if err := tx.Update(tbl, bm, trow(1, "a2")); err != nil {
		t.Fatalf("txn update: %v", err)
	}
	// Buffered writes are invisible before commit.
	if got := scanRows(t, tbl.Scan()); len(got) != 1 || got[bm] != "a" {
		t.Fatalf("pre-commit state leaked: %v", got)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if got := scanRows(t, tbl.Scan()); len(got) != 2 || got[bm] != "a2" {
		t.Fatalf("post-commit state = %v", got)
	}

	tx2 := e.Begin()
	if err := tx2.Delete(tbl, bm); err != nil {
		t.Fatalf("txn delete: %v", err)
	}
	if err := tx2.Abort(); err != nil {
		t.Fatalf("abort: %v", err)
	}
	if got := scanRows(t, tbl.Scan()); len(got) != 2 {
		t.Fatalf("abort applied writes: %v", got)
	}
}

func TestFirstWriterWins(t *testing.T) {
	e, tbl := testEngine(t)
	bm := mustInsert(t, tbl, trow(1, "a"))

	tx1 := e.Begin()
	tx2 := e.Begin()
	if err := tx1.Update(tbl, bm, trow(1, "tx1")); err != nil {
		t.Fatalf("tx1 update: %v", err)
	}
	if err := tx2.Update(tbl, bm, trow(1, "tx2")); err != nil {
		t.Fatalf("tx2 update: %v", err)
	}
	if err := tx1.Commit(); err != nil {
		t.Fatalf("tx1 commit: %v", err)
	}
	err := tx2.Commit()
	if !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("tx2 commit = %v, want ErrWriteConflict", err)
	}
	if got := scanRows(t, tbl.Scan()); got[bm] != "tx1" {
		t.Fatalf("first writer lost: %v", got)
	}

	// A conflicting autocommit write also loses to a later snapshot txn?
	// No: autocommit writes at latest, so it wins; a txn with an older
	// snapshot then conflicts.
	tx3 := e.Begin()
	if err := tx3.Update(tbl, bm, trow(1, "tx3")); err != nil {
		t.Fatalf("tx3 update: %v", err)
	}
	if err := tbl.Update(bm, trow(1, "auto")); err != nil {
		t.Fatalf("autocommit update: %v", err)
	}
	if err := tx3.Commit(); !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("tx3 commit = %v, want ErrWriteConflict", err)
	}
}

func TestPreparedRowLocksBlockWriters(t *testing.T) {
	e, tbl := testEngine(t)
	bm := mustInsert(t, tbl, trow(1, "a"))

	tx := e.Begin()
	if err := tx.Update(tbl, bm, trow(1, "prep")); err != nil {
		t.Fatalf("txn update: %v", err)
	}
	if err := tx.Prepare(); err != nil {
		t.Fatalf("prepare: %v", err)
	}
	if err := tbl.Update(bm, trow(1, "x")); !errors.Is(err, ErrRowLocked) {
		t.Fatalf("autocommit update on prepared row = %v, want ErrRowLocked", err)
	}
	if err := tbl.Delete(bm); !errors.Is(err, ErrRowLocked) {
		t.Fatalf("autocommit delete on prepared row = %v, want ErrRowLocked", err)
	}
	other := e.Begin()
	if err := other.Update(tbl, bm, trow(1, "y")); err != nil {
		t.Fatalf("other txn buffer: %v", err)
	}
	if err := other.Commit(); !errors.Is(err, ErrRowLocked) {
		t.Fatalf("other txn commit = %v, want ErrRowLocked", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("prepared commit: %v", err)
	}
	if err := tbl.Update(bm, trow(1, "after")); err != nil {
		t.Fatalf("update after lock release: %v", err)
	}
}

// TestConcurrentSnapshotReaders is the tentpole's consistency check: a
// writer commits multi-operation transactions that keep the row count
// invariant while snapshot readers count concurrently; every read must
// see exactly the invariant count, never a half-applied transaction.
func TestConcurrentSnapshotReaders(t *testing.T) {
	e, tbl := testEngine(t)
	const n = 50
	for i := 0; i < n; i++ {
		mustInsert(t, tbl, trow(int64(i), "x"))
	}
	stop := make(chan struct{})
	var writerErr error
	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		next := int64(n)
		victim := int64(0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Delete one row and insert one row in a single transaction:
			// the live count is invariant across every commit boundary.
			tx := e.Begin()
			if err := tx.Delete(tbl, victim); err != nil {
				writerErr = err
				return
			}
			if err := tx.Insert(tbl, trow(next, "x")); err != nil {
				writerErr = err
				return
			}
			if err := tx.Commit(); err != nil {
				writerErr = err
				return
			}
			victim = next // the inserted row's slot, deleted next round
			next++
		}
	}()
	var readerErr error
	var rmu sync.Mutex
	var readerWG sync.WaitGroup
	for g := 0; g < 4; g++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			for i := 0; i < 200; i++ {
				snap := e.AcquireSnapshot()
				rows, _ := readRows(tbl.ScanAt(snap.CSN()))
				count := len(rows)
				snap.Release()
				if count != n {
					rmu.Lock()
					if readerErr == nil {
						readerErr = fmt.Errorf("snapshot read saw %d rows, want %d", count, n)
					}
					rmu.Unlock()
					return
				}
			}
		}()
	}
	readerWG.Wait()
	close(stop)
	writerWG.Wait()
	if writerErr != nil {
		t.Fatalf("writer: %v", writerErr)
	}
	if readerErr != nil {
		t.Fatalf("reader: %v", readerErr)
	}
	if got := tbl.RowCount(); got != n {
		t.Fatalf("final count = %d, want %d", got, n)
	}
}

// TestVersionStableOnFailedMutations is the satellite regression test:
// failed inserts/updates/deletes must not bump the version counter that
// keys the cached columnar image.
func TestVersionStableOnFailedMutations(t *testing.T) {
	_, tbl := testEngine(t)
	mustInsert(t, tbl, trow(1, "a"))
	v := tbl.Version()

	// Arity mismatch.
	if _, err := tbl.Insert(rowset.Row{sqltypes.NewInt(2)}); err == nil {
		t.Fatalf("short insert succeeded")
	}
	// NULL in a non-nullable column.
	if _, err := tbl.Insert(rowset.Row{sqltypes.Null, sqltypes.NewString("x")}); err == nil {
		t.Fatalf("NULL insert succeeded")
	}
	// Uncoercible value.
	if _, err := tbl.Insert(rowset.Row{sqltypes.NewString("not-a-number"), sqltypes.NewString("x")}); err == nil {
		t.Fatalf("bad-kind insert succeeded")
	}
	// Bad bookmarks.
	if err := tbl.Update(99, trow(1, "y")); err == nil {
		t.Fatalf("update of bad bookmark succeeded")
	}
	if err := tbl.Delete(99); err == nil {
		t.Fatalf("delete of bad bookmark succeeded")
	}
	if err := tbl.Update(0, rowset.Row{sqltypes.NewInt(1)}); err == nil {
		t.Fatalf("short update succeeded")
	}
	if got := tbl.Version(); got != v {
		t.Fatalf("version moved on failed mutations: %d -> %d", v, got)
	}

	// And a successful mutation does bump it.
	if err := tbl.Update(0, trow(1, "b")); err != nil {
		t.Fatalf("update: %v", err)
	}
	if got := tbl.Version(); got == v {
		t.Fatalf("version did not move on successful mutation")
	}
}

func TestSnapshotHorizonPrunesUndo(t *testing.T) {
	e, tbl := testEngine(t)
	bm := mustInsert(t, tbl, trow(1, "a"))
	snap := e.AcquireSnapshot()
	for i := 0; i < 10; i++ {
		if err := tbl.Update(bm, trow(1, fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("update: %v", err)
		}
	}
	tbl.mu.RLock()
	pinned := len(tbl.undo) - tbl.undoHead
	tbl.mu.RUnlock()
	if pinned == 0 {
		t.Fatalf("active snapshot should pin undo records")
	}
	snap.Release()
	// The next write with no snapshots drops the dead tail entirely.
	if err := tbl.Update(bm, trow(1, "final")); err != nil {
		t.Fatalf("update: %v", err)
	}
	tbl.mu.RLock()
	left := len(tbl.undo) - tbl.undoHead
	tbl.mu.RUnlock()
	if left != 0 {
		t.Fatalf("undo not pruned after snapshot release: %d records", left)
	}
}
