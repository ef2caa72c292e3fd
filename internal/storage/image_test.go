package storage

import (
	"io"
	"runtime"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"dhqp/internal/rowset"
	"dhqp/internal/sqltypes"
)

// loadItems fills testTable's schema, less its index, with n rows; every
// 10th qty is NULL, so the image's qty column carries a validity bitmap.
func loadItems(t *testing.T, n int) *Table {
	t.Helper()
	def := *testTable(t).Def()
	def.Indexes = nil
	tbl, err := NewEngine().CreateDatabase("testdb").CreateTable(&def)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		r := row(int64(i), "n", int64(i%97))
		if i%10 == 3 {
			r[2] = sqltypes.Null
		}
		if _, err := tbl.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// scanAll reads a whole scan through b and returns the boxed rows.
func scanAll(rs rowset.Rowset, b *rowset.Batch) ([]rowset.Row, error) {
	defer rs.Close()
	var out []rowset.Row
	for {
		err := rs.NextBatch(b)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		for i := 0; i < b.Len(); i++ {
			out = append(out, b.RowAt(i, nil))
		}
	}
}

// merge folds the table's delta into main, as a full write or scan would.
func merge(tbl *Table) {
	tbl.mu.Lock()
	defer tbl.mu.Unlock()
	tbl.mergeLocked()
}

// TestImageScanBorrows is the scan's copy gate: with the delta merged, a
// scan reads main alone, every typed batch column is a window onto main's
// own backing array, and a full batch scan allocates the same at 20 000
// rows as at 200 000.
func TestImageScanBorrows(t *testing.T) {
	allocs := map[int]float64{}
	for _, n := range []int{20_000, 200_000} {
		tbl := loadItems(t, n)
		merge(tbl)
		main := tbl.main
		if main.n != n || tbl.delta.rows.n != 0 {
			t.Fatalf("%d rows: main holds %d after a merge, delta %d", n, main.n, tbl.delta.rows.n)
		}
		rs := tbl.Scan()
		if s := rs.(*tableScan); s.main != main || s.seen != 0 || s.patch.n != 0 || s.drop != nil {
			t.Fatalf("%d rows: a scan of a merged table read more than main", n)
		}
		b := rowset.NewBatch(rowset.DefaultBatchSize)
		for off := 0; ; off += b.NumRows() {
			if err := rs.NextBatch(b); err == io.EOF {
				break
			}
			for j := 0; j < b.Width(); j++ {
				got, src := b.Col(j), &main.cols[j]
				var same bool
				if got.Kind() == sqltypes.KindString {
					same = unsafe.SliceData(got.Strings()) == &src.Strings()[off]
				} else {
					same = unsafe.SliceData(got.Int64s()) == &src.Int64s()[off]
				}
				if !same {
					t.Fatalf("%d rows: batch at %d, column %d does not alias main", n, off, j)
				}
			}
		}
		rs.Close()
		allocs[n] = testing.AllocsPerRun(5, func() {
			rs := tbl.Scan()
			for rs.NextBatch(b) == nil {
			}
			rs.Close()
		})
	}
	if allocs[20_000] != allocs[200_000] {
		t.Errorf("a full batch scan allocates %.0f times at 20 000 rows and %.0f at 200 000", allocs[20_000], allocs[200_000])
	}
}

// TestMergeKeepsNewerMain holds that an older main never replaces a newer
// one: writers and scans that merge run at once, and after every write a
// scan at the latest state still sees it, so no merge installed a main
// built before the write.
func TestMergeKeepsNewerMain(t *testing.T) {
	tbl := loadItems(t, 3000)
	merge(tbl)
	var wg sync.WaitGroup
	for w := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 1500 {
				bm := int64(w*1500 + i)
				want := row(bm, "changed", int64(w))
				if err := tbl.Update(bm, want); err != nil {
					t.Error(err)
					return
				}
				if i%100 == 0 {
					if _, err := scanAll(tbl.Scan(), rowset.NewBatch(512)); err != nil {
						t.Error(err)
					}
				}
				if got, err := tbl.Fetch(bm); err != nil || !slices.Equal(got, want) {
					t.Errorf("bookmark %d reads %v (%v) after its update, want %v", bm, got, err, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	rows, err := scanAll(tbl.Scan(), rowset.NewBatch(512))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3000 {
		t.Fatalf("%d rows after the updates, want 3000", len(rows))
	}
	for _, r := range rows {
		if r[1].Str() != "changed" {
			t.Fatalf("row %v lost its update", r)
		}
	}
}

// TestImageRowScan reads a scan's rows with the bookmark column: the rows
// and the bookmarks, the table's slots skipping deleted ones, are the same
// whether they come from the delta or from main.
func TestImageRowScan(t *testing.T) {
	tbl := loadItems(t, 300)
	for _, bm := range []int64{0, 5, 299} {
		if err := tbl.Delete(bm); err != nil {
			t.Fatal(err)
		}
	}
	tbl.mu.RLock()
	fromDelta := tbl.readLocked(Latest).full()
	tbl.mu.RUnlock()
	if fromDelta.main.n != 0 {
		t.Fatal("300 inserted rows reached main without a scan")
	}
	wantRows, wantBMs := readRows(fromDelta)
	merge(tbl)
	gotRows, gotBMs := readRows(tbl.Scan())
	if !slices.Equal(gotBMs, wantBMs) || len(gotRows) != 297 {
		t.Fatalf("main row scan: %d rows, bookmarks equal %v", len(gotRows), slices.Equal(gotBMs, wantBMs))
	}
	for i := range wantRows {
		if !slices.Equal(gotRows[i], wantRows[i]) {
			t.Fatalf("row %d: main %v, delta %v", i, gotRows[i], wantRows[i])
		}
	}
}

// TestMergeUnderBorrowedScan runs DML — updates, deletes, inserts, and
// scans that read them and merge the delta into a new main — while a scan
// opened before it reads borrowed windows of the old main. The open
// scan's answer does not change (and under -race no write reaches memory
// the scan reads).
func TestMergeUnderBorrowedScan(t *testing.T) {
	tbl := loadItems(t, 5000)
	merge(tbl)
	want := drainTyped(t, tbl)
	rs := tbl.Scan()
	main := rs.(*tableScan).main
	if main != tbl.main {
		t.Fatal("the scan does not read main")
	}
	b := rowset.NewBatch(256)
	var got []rowset.Row
	if err := rs.NextBatch(b); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < b.Len(); i++ {
		got = append(got, b.RowAt(i, nil))
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// 40 rounds of 17 writes pass the scan's bound of 625 entries.
		for i := int64(0); i < 40; i++ {
			for k := int64(0); k < 8; k++ {
				if err := tbl.Update(i*60+k*7, row(i*60+k*7, "changed", -1)); err != nil {
					t.Error(err)
				}
				if _, err := tbl.Insert(row(9000+i*8+k, "new", 0)); err != nil {
					t.Error(err)
				}
			}
			if err := tbl.Delete(i*60 + 1); err != nil {
				t.Error(err)
			}
			if _, err := scanAll(tbl.Scan(), rowset.NewBatch(64)); err != nil {
				t.Error(err)
			}
		}
	}()
	for {
		runtime.Gosched()
		err := rs.NextBatch(b)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < b.Len(); i++ {
			got = append(got, b.RowAt(i, nil))
		}
	}
	wg.Wait()
	if len(got) != len(want) {
		t.Fatalf("the open scan read %d rows, %d before the DML", len(got), len(want))
	}
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("row %d: %v under DML, %v before it", i, got[i], want[i])
		}
	}
	if tbl.main == main {
		t.Fatal("no scan merged the DML into a new main")
	}
}

// TestScanAfterWriteCostFlat holds that a write costs the same at any
// table size, its share of the merges included: over one whole delta epoch
// (the scan's bound of writes, a drained full scan after every 16th, the
// last of which folds the delta into main) the bytes allocated per write
// at 200 000 rows stay within 2x those at 20 000. A scan bound that does
// not grow with main copies main every fixed number of writes: the bound
// min(1 024, main/8) reads 3.0x here.
func TestScanAfterWriteCostFlat(t *testing.T) {
	perWrite := map[int]float64{}
	for _, n := range []int{20_000, 200_000} {
		tbl := loadItems(t, n)
		merge(tbl)
		b := rowset.NewBatch(rowset.DefaultBatchSize)
		epoch, main := n/mergeShare, tbl.main
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 1; i <= epoch; i++ {
			bm := int64(i) * 7919 % int64(n)
			if err := tbl.Update(bm, row(bm, "u", int64(i))); err != nil {
				t.Fatal(err)
			}
			if i%16 == 0 || i == epoch {
				rs := tbl.Scan()
				for rs.NextBatch(b) == nil {
				}
			}
		}
		runtime.ReadMemStats(&after)
		if tbl.main == main {
			t.Fatalf("%d rows: %d writes and their scans merged nothing", n, epoch)
		}
		perWrite[n] = float64(after.TotalAlloc-before.TotalAlloc) / float64(epoch)
	}
	t.Logf("bytes per write over a delta epoch: %.0f at 20 000 rows, %.0f at 200 000 (%.2fx)",
		perWrite[20_000], perWrite[200_000], perWrite[200_000]/perWrite[20_000])
	if perWrite[200_000] > 2*perWrite[20_000] {
		t.Errorf("a write costs %.0f B at 200 000 rows, %.1fx the %.0f B at 20 000; the gate is 2x",
			perWrite[200_000], perWrite[200_000]/perWrite[20_000], perWrite[20_000])
	}
}
