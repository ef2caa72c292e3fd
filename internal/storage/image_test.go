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
		err := rs.(rowset.BatchReader).NextBatch(b)
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

// TestImageScanBorrows is the scan's copy gate: at a version the cached
// image serves, ScanAt copies no slot array, every typed batch column is a
// window onto the image's own backing array, and a full batch scan
// allocates the same at 20 000 rows as at 200 000.
func TestImageScanBorrows(t *testing.T) {
	allocs := map[int]float64{}
	for _, n := range []int{20_000, 200_000} {
		tbl := loadItems(t, n)
		tbl.Scan().(rowset.BatchReader).NextBatch(rowset.NewBatch(1)) // builds the image
		img := tbl.img.Load()
		if img == nil || img.version != tbl.Version() {
			t.Fatalf("%d rows: no image cached at the table's version", n)
		}
		rs := tbl.Scan()
		if s := rs.(*tableScan); s.img != img || s.rows != nil {
			t.Fatalf("%d rows: a scan at the cached version copied the slot array", n)
		}
		b := rowset.NewBatch(rowset.DefaultBatchSize)
		for off := 0; ; off += b.NumRows() {
			if err := rs.(rowset.BatchReader).NextBatch(b); err == io.EOF {
				break
			}
			for j := 0; j < b.Width(); j++ {
				got, src := b.Col(j), &img.cols[j]
				var same bool
				if got.Kind() == sqltypes.KindString {
					same = unsafe.SliceData(got.Strings()) == &src.Strings()[off]
				} else {
					same = unsafe.SliceData(got.Int64s()) == &src.Int64s()[off]
				}
				if !same {
					t.Fatalf("%d rows: batch at %d, column %d does not alias the image", n, off, j)
				}
			}
		}
		rs.Close()
		allocs[n] = testing.AllocsPerRun(5, func() {
			rs := tbl.Scan()
			for rs.(rowset.BatchReader).NextBatch(b) == nil {
			}
			rs.Close()
		})
	}
	if allocs[20_000] != allocs[200_000] {
		t.Errorf("a full batch scan allocates %.0f times at 20 000 rows and %.0f at 200 000", allocs[20_000], allocs[200_000])
	}
}

// TestImageInstallKeepsNewer is the regression for a slow build of an old
// version evicting a newer image: building v+1 and then v leaves v+1
// cached, and the scan that built v still reads v.
func TestImageInstallKeepsNewer(t *testing.T) {
	tbl := loadItems(t, 10)
	v, old := tbl.Version(), slices.Clone(tbl.rows)
	if _, err := tbl.Insert(row(10, "n", 1)); err != nil {
		t.Fatal(err)
	}
	v1, cur := tbl.Version(), slices.Clone(tbl.rows)
	tbl.imageFor(v1, cur)
	if img := tbl.imageFor(v, old); img.version != v || img.n != 10 {
		t.Fatalf("the old build returned version %d with %d rows, want %d with 10", img.version, img.n, v)
	}
	if img := tbl.img.Load(); img.version != v1 {
		t.Fatalf("cached image is version %d after a late build of %d, want %d", img.version, v, v1)
	}
	if s := tbl.Scan().(*tableScan); s.img == nil || s.rows != nil {
		t.Fatal("a scan at the newer version did not read the cached image")
	}
}

// TestImageRowScan reads an image-backed scan row at a time: the rows are
// boxed from the image and the bookmarks are the table's slots, skipping
// deleted ones, exactly as a scan over the slot array reports them.
func TestImageRowScan(t *testing.T) {
	tbl := loadItems(t, 300)
	for _, bm := range []int64{0, 5, 299} {
		if err := tbl.Delete(bm); err != nil {
			t.Fatal(err)
		}
	}
	read := func() (rows []rowset.Row, bms []int64) {
		rs := tbl.Scan()
		defer rs.Close()
		for {
			r, err := rs.Next()
			if err == io.EOF {
				return rows, bms
			}
			if err != nil {
				t.Fatal(err)
			}
			rows, bms = append(rows, r), append(bms, rs.Bookmark())
		}
	}
	wantRows, wantBMs := read() // no image yet: the slot array
	drainTyped(t, tbl)
	if tbl.Scan().(*tableScan).img == nil {
		t.Fatal("no image cached")
	}
	gotRows, gotBMs := read()
	if !slices.Equal(gotBMs, wantBMs) || len(gotRows) != 297 {
		t.Fatalf("image row scan: %d rows, bookmarks equal %v", len(gotRows), slices.Equal(gotBMs, wantBMs))
	}
	for i := range wantRows {
		if !slices.Equal(gotRows[i], wantRows[i]) {
			t.Fatalf("row %d: image %v, slots %v", i, gotRows[i], wantRows[i])
		}
	}
}

// TestDMLReplacesImageUnderBorrowedScan runs DML that replaces the image —
// updates, deletes, inserts, each followed by a scan that builds the new
// version — while a scan opened before it reads borrowed windows of the
// old one. The open scan's answer does not change (and under -race no
// write reaches memory the scan reads).
func TestDMLReplacesImageUnderBorrowedScan(t *testing.T) {
	tbl := loadItems(t, 5000)
	want := drainTyped(t, tbl)
	rs := tbl.Scan()
	if rs.(*tableScan).img == nil {
		t.Fatal("the scan does not read the cached image")
	}
	b := rowset.NewBatch(256)
	var got []rowset.Row
	if err := rs.(rowset.BatchReader).NextBatch(b); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < b.Len(); i++ {
		got = append(got, b.RowAt(i, nil))
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(0); i < 40; i++ {
			if err := tbl.Update(i*7, row(i*7, "changed", -1)); err != nil {
				t.Error(err)
			}
			if err := tbl.Delete(i*7 + 1); err != nil {
				t.Error(err)
			}
			if _, err := tbl.Insert(row(9000+i, "new", 0)); err != nil {
				t.Error(err)
			}
			if _, err := scanAll(tbl.Scan(), rowset.NewBatch(64)); err != nil {
				t.Error(err)
			}
		}
	}()
	for {
		runtime.Gosched()
		err := rs.(rowset.BatchReader).NextBatch(b)
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
	if tbl.img.Load().version != tbl.Version() {
		t.Fatal("the last DML's image is not cached")
	}
}
