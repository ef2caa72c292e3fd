package storage

import (
	"testing"
	"testing/quick"

	"dhqp/internal/rowset"
	"dhqp/internal/schema"
	"dhqp/internal/sqltypes"
)

// readRows drains rs, a read of a table, into its rows and their
// bookmarks — the ordinal one past the table's last column — and closes
// it.
func readRows(rs rowset.Rowset) (rows []rowset.Row, bms []int64) {
	defer rs.Close()
	w := len(rs.Columns())
	all := make([]int, w+1)
	for j := range all {
		all[j] = j
	}
	for b := rowset.NewBatch(0); rs.(rowset.ProjectedBatchReader).NextBatchProjected(b, all) == nil; {
		for i := 0; i < b.Len(); i++ {
			r := b.RowAt(i, nil)
			rows, bms = append(rows, r[:w:w]), append(bms, r[w].Int())
		}
	}
	return rows, bms
}

func testTable(t *testing.T) *Table {
	if t != nil {
		t.Helper()
	}
	e := NewEngine()
	db := e.CreateDatabase("testdb")
	tbl, err := db.CreateTable(&schema.Table{
		Catalog: "testdb",
		Name:    "items",
		Columns: []schema.Column{
			{Name: "id", Kind: sqltypes.KindInt},
			{Name: "name", Kind: sqltypes.KindString, Nullable: true},
			{Name: "qty", Kind: sqltypes.KindInt, Nullable: true},
		},
		PrimaryKey: []int{0},
		Indexes:    []schema.Index{{Name: "ix_qty", Columns: []int{2}}},
	})
	if err != nil {
		panic(err)
	}
	return tbl
}

func row(id int64, name string, qty int64) rowset.Row {
	return rowset.Row{sqltypes.NewInt(id), sqltypes.NewString(name), sqltypes.NewInt(qty)}
}

func TestEngineDatabases(t *testing.T) {
	e := NewEngine()
	e.CreateDatabase("b")
	e.CreateDatabase("a")
	// Idempotent.
	db1 := e.CreateDatabase("a")
	db2 := e.CreateDatabase("A")
	if db1 != db2 {
		t.Error("database lookup should be case-insensitive")
	}
	if got := e.Databases(); len(got) != 2 || got[0] != "a" {
		t.Errorf("Databases = %v", got)
	}
	if _, ok := e.Database("missing"); ok {
		t.Error("missing database found")
	}
}

func TestCreateDropTable(t *testing.T) {
	e := NewEngine()
	db := e.CreateDatabase("d")
	def := &schema.Table{Name: "t", Columns: []schema.Column{{Name: "a", Kind: sqltypes.KindInt}}}
	if _, err := db.CreateTable(def); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable(def); err == nil {
		t.Error("duplicate table accepted")
	}
	if got := db.Tables(); len(got) != 1 || got[0] != "t" {
		t.Errorf("Tables = %v", got)
	}
	if _, ok := db.Table("T"); !ok {
		t.Error("case-insensitive table lookup failed")
	}
	if err := db.DropTable("t"); err != nil {
		t.Fatal(err)
	}
	if err := db.DropTable("t"); err == nil {
		t.Error("double drop accepted")
	}
}

func TestInsertScanFetch(t *testing.T) {
	tbl := testTable(t)
	bm1, err := tbl.Insert(row(1, "ant", 5))
	if err != nil {
		t.Fatal(err)
	}
	bm2, err := tbl.Insert(row(2, "bee", 3))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.RowCount() != 2 {
		t.Errorf("RowCount = %d", tbl.RowCount())
	}
	r, err := tbl.Fetch(bm2)
	if err != nil || r[1].Str() != "bee" {
		t.Fatalf("Fetch: %v %v", r, err)
	}
	sc := tbl.Scan()
	m, err := rowset.ReadAll(sc)
	if err != nil || m.Len() != 2 {
		t.Fatalf("Scan: %v %v", m, err)
	}
	_ = bm1
}

func TestScanBookmarks(t *testing.T) {
	tbl := testTable(t)
	tbl.Insert(row(1, "a", 1))
	tbl.Insert(row(2, "b", 2))
	rows, bms := readRows(tbl.Scan())
	fetched, err := tbl.Fetch(bms[0])
	if err != nil || fetched[0].Int() != rows[0][0].Int() {
		t.Fatalf("bookmark round-trip failed: %v %v", fetched, err)
	}
}

func TestInsertValidation(t *testing.T) {
	tbl := testTable(t)
	if _, err := tbl.Insert(rowset.Row{sqltypes.NewInt(1)}); err == nil {
		t.Error("short row accepted")
	}
	// NOT NULL violation on id.
	if _, err := tbl.Insert(rowset.Row{sqltypes.Null, sqltypes.NewString("x"), sqltypes.NewInt(1)}); err == nil {
		t.Error("NULL in NOT NULL column accepted")
	}
	// NULL in nullable column is fine.
	if _, err := tbl.Insert(rowset.Row{sqltypes.NewInt(1), sqltypes.Null, sqltypes.Null}); err != nil {
		t.Errorf("nullable NULL rejected: %v", err)
	}
	// Coercion: string "5" into int column.
	bm, err := tbl.Insert(rowset.Row{sqltypes.NewString("5"), sqltypes.NewString("x"), sqltypes.NewInt(1)})
	if err != nil {
		t.Fatalf("coercible insert rejected: %v", err)
	}
	r, _ := tbl.Fetch(bm)
	if r[0].Kind() != sqltypes.KindInt || r[0].Int() != 5 {
		t.Errorf("coercion not applied: %v", r[0])
	}
	// Uncoercible.
	if _, err := tbl.Insert(rowset.Row{sqltypes.NewString("abc"), sqltypes.Null, sqltypes.Null}); err == nil {
		t.Error("uncoercible insert accepted")
	}
}

func TestInsertDoesNotAliasCaller(t *testing.T) {
	tbl := testTable(t)
	r := row(1, "a", 1)
	bm, _ := tbl.Insert(r)
	r[1] = sqltypes.NewString("mutated")
	got, _ := tbl.Fetch(bm)
	if got[1].Str() != "a" {
		t.Error("Insert aliased caller's row")
	}
}

func TestDeleteAndTombstones(t *testing.T) {
	tbl := testTable(t)
	bm1, _ := tbl.Insert(row(1, "a", 1))
	tbl.Insert(row(2, "b", 2))
	if err := tbl.Delete(bm1); err != nil {
		t.Fatal(err)
	}
	if tbl.RowCount() != 1 {
		t.Errorf("RowCount after delete = %d", tbl.RowCount())
	}
	if err := tbl.Delete(bm1); err == nil {
		t.Error("double delete accepted")
	}
	if _, err := tbl.Fetch(bm1); err == nil {
		t.Error("fetch of deleted row accepted")
	}
	m, _ := rowset.ReadAll(tbl.Scan())
	if m.Len() != 1 || m.Rows()[0][0].Int() != 2 {
		t.Errorf("scan after delete = %v", m.Rows())
	}
	if err := tbl.Delete(999); err == nil {
		t.Error("bad bookmark accepted")
	}
}

func TestUpdate(t *testing.T) {
	tbl := testTable(t)
	bm, _ := tbl.Insert(row(1, "a", 1))
	if err := tbl.Update(bm, row(1, "z", 9)); err != nil {
		t.Fatal(err)
	}
	r, _ := tbl.Fetch(bm)
	if r[1].Str() != "z" {
		t.Errorf("update not applied: %v", r)
	}
	if err := tbl.Update(999, row(1, "x", 1)); err == nil {
		t.Error("bad bookmark accepted")
	}
	if err := tbl.Update(bm, rowset.Row{sqltypes.NewInt(1)}); err == nil {
		t.Error("short row accepted")
	}
	// Index reflects the update.
	ix, _ := tbl.Index("ix_qty")
	m, _ := rowset.ReadAll(ix.Seek(rowset.Row{sqltypes.NewInt(9)}))
	if m.Len() != 1 {
		t.Errorf("index seek after update found %d rows", m.Len())
	}
	m, _ = rowset.ReadAll(ix.Seek(rowset.Row{sqltypes.NewInt(1)}))
	if m.Len() != 0 {
		t.Errorf("stale index entry remains: %d rows", m.Len())
	}
}

func TestIndexRange(t *testing.T) {
	tbl := testTable(t)
	for i := int64(0); i < 10; i++ {
		tbl.Insert(row(i, "n", i*10))
	}
	ix, ok := tbl.Index("ix_qty")
	if !ok {
		t.Fatal("index missing")
	}
	if ix.Len() != 10 {
		t.Errorf("index Len = %d", ix.Len())
	}
	// qty in [30, 60)
	lo := Bound{Key: rowset.Row{sqltypes.NewInt(30)}, Inclusive: true}
	hi := Bound{Key: rowset.Row{sqltypes.NewInt(60)}, Inclusive: false}
	m, err := rowset.ReadAll(ix.Range(lo, hi))
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 3 {
		t.Fatalf("range returned %d rows", m.Len())
	}
	// In index order.
	prev := int64(-1)
	for _, r := range m.Rows() {
		if r[2].Int() <= prev {
			t.Error("range not in index order")
		}
		prev = r[2].Int()
	}
	// Unbounded scan via index.
	all, _ := rowset.ReadAll(ix.Range(Bound{}, Bound{}))
	if all.Len() != 10 {
		t.Errorf("unbounded range = %d rows", all.Len())
	}
	// Exclusive lower bound.
	m2, _ := rowset.ReadAll(ix.Range(Bound{Key: rowset.Row{sqltypes.NewInt(30)}, Inclusive: false}, Bound{}))
	if m2.Len() != 6 {
		t.Errorf("exclusive lower = %d rows", m2.Len())
	}
}

func TestIndexSeekDuplicates(t *testing.T) {
	tbl := testTable(t)
	tbl.Insert(row(1, "a", 7))
	tbl.Insert(row(2, "b", 7))
	tbl.Insert(row(3, "c", 8))
	ix, _ := tbl.Index("ix_qty")
	m, _ := rowset.ReadAll(ix.Seek(rowset.Row{sqltypes.NewInt(7)}))
	if m.Len() != 2 {
		t.Errorf("seek found %d rows, want 2", m.Len())
	}
}

func TestIndexRangeBookmarksAndDeletes(t *testing.T) {
	tbl := testTable(t)
	bm, _ := tbl.Insert(row(1, "a", 5))
	tbl.Insert(row(2, "b", 5))
	tbl.Delete(bm)
	ix, _ := tbl.Index("ix_qty")
	rows, bms := readRows(ix.Seek(rowset.Row{sqltypes.NewInt(5)}))
	if len(rows) != 1 {
		t.Fatalf("seek read %v, want one row", rows)
	}
	if rows[0][0].Int() != 2 {
		t.Errorf("deleted row surfaced from index: %v", rows[0])
	}
	got, err := tbl.Fetch(bms[0])
	if err != nil || got[0].Int() != 2 {
		t.Errorf("bookmark fetch: %v %v", got, err)
	}
}

func TestAddIndexBackfills(t *testing.T) {
	tbl := testTable(t)
	for i := int64(0); i < 5; i++ {
		tbl.Insert(row(i, "x", i))
	}
	ix, err := tbl.AddIndex(schema.Index{Name: "ix_id", Columns: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 5 {
		t.Errorf("backfill Len = %d", ix.Len())
	}
	if _, err := tbl.AddIndex(schema.Index{Name: "ix_id", Columns: []int{0}}); err == nil {
		t.Error("duplicate index accepted")
	}
	if _, err := tbl.AddIndex(schema.Index{Name: "ix_bad", Columns: []int{9}}); err == nil {
		t.Error("bad ordinal accepted")
	}
}

func TestMultiColumnIndexPrefix(t *testing.T) {
	e := NewEngine()
	db := e.CreateDatabase("d")
	tbl, _ := db.CreateTable(&schema.Table{
		Name: "t",
		Columns: []schema.Column{
			{Name: "a", Kind: sqltypes.KindInt},
			{Name: "b", Kind: sqltypes.KindInt},
		},
		Indexes: []schema.Index{{Name: "ix_ab", Columns: []int{0, 1}}},
	})
	for a := int64(0); a < 3; a++ {
		for b := int64(0); b < 3; b++ {
			tbl.Insert(rowset.Row{sqltypes.NewInt(a), sqltypes.NewInt(b)})
		}
	}
	ix, _ := tbl.Index("ix_ab")
	// Prefix seek on a=1 should return all 3 b values.
	m, _ := rowset.ReadAll(ix.Seek(rowset.Row{sqltypes.NewInt(1)}))
	if m.Len() != 3 {
		t.Errorf("prefix seek = %d rows", m.Len())
	}
	// Full-key seek.
	m2, _ := rowset.ReadAll(ix.Seek(rowset.Row{sqltypes.NewInt(1), sqltypes.NewInt(2)}))
	if m2.Len() != 1 {
		t.Errorf("full seek = %d rows", m2.Len())
	}
}

// Property: after any interleaving of inserts and deletes, an unbounded
// index range returns exactly the live rows in key order.
func TestIndexConsistencyProperty(t *testing.T) {
	f := func(ops []int16) bool {
		tbl := testTable(nil)
		var live []int64
		id := int64(0)
		for _, op := range ops {
			if op >= 0 || len(live) == 0 {
				qty := int64(op) % 50
				bm, err := tbl.Insert(row(id, "r", qty))
				if err != nil {
					return false
				}
				id++
				live = append(live, bm)
			} else {
				i := -int(op) % len(live) // int16(-32768) has no positive int16
				if err := tbl.Delete(live[i]); err != nil {
					return false
				}
				live = append(live[:i], live[i+1:]...)
			}
		}
		ix, _ := tbl.Index("ix_qty")
		m, err := rowset.ReadAll(ix.Range(Bound{}, Bound{}))
		if err != nil {
			return false
		}
		if m.Len() != len(live) {
			return false
		}
		prev := sqltypes.Null
		for _, r := range m.Rows() {
			if sqltypes.Compare(r[2], prev) < 0 {
				return false
			}
			prev = r[2]
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// drainTyped batch-scans the table with typed columns enabled and returns
// the boxed rows, exercising the columnar-image fast path.
func drainTyped(t *testing.T, tbl *Table) []rowset.Row {
	t.Helper()
	// Small batches force unaligned validity copies.
	out, err := scanAll(tbl.Scan(), rowset.NewBatch(4))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestColumnarImageInvalidation(t *testing.T) {
	tbl := testTable(t)
	for i := int64(0); i < 10; i++ {
		if _, err := tbl.Insert(row(i, "n", i*10)); err != nil {
			t.Fatal(err)
		}
	}
	got := drainTyped(t, tbl)
	if len(got) != 10 {
		t.Fatalf("typed scan rows = %d, want 10", len(got))
	}

	// DML between scans must invalidate the cached image.
	if _, err := tbl.Insert(rowset.Row{sqltypes.NewInt(100), sqltypes.Null, sqltypes.Null}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Delete(0); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Update(3, row(3, "updated", 999)); err != nil {
		t.Fatal(err)
	}
	got = drainTyped(t, tbl)
	if len(got) != 10 {
		t.Fatalf("typed scan rows after DML = %d, want 10", len(got))
	}
	byID := map[int64]rowset.Row{}
	for _, r := range got {
		byID[r[0].Int()] = r
	}
	if _, ok := byID[0]; ok {
		t.Fatalf("deleted row 0 still visible: %v", got)
	}
	if r := byID[3]; r[1].Str() != "updated" || r[2].Int() != 999 {
		t.Fatalf("update not visible in typed scan: %v", r)
	}
	if r := byID[100]; !r[1].IsNull() || !r[2].IsNull() {
		t.Fatalf("NULLs lost in typed scan: %v", r)
	}

	// A read of the same table with the bookmark column must see
	// identical rows.
	gen, _ := readRows(tbl.Scan())
	if len(gen) != len(got) {
		t.Fatalf("row scan rows = %d, typed = %d", len(gen), len(got))
	}
	for i := range gen {
		for j := range gen[i] {
			if sqltypes.Compare(gen[i][j], got[i][j]) != 0 {
				t.Fatalf("row %d col %d: row read %v != typed %v", i, j, gen[i][j], got[i][j])
			}
		}
	}
}
