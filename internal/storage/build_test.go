package storage

import (
	"fmt"
	"testing"

	"dhqp/internal/rowset"
	"dhqp/internal/schema"
)

// TestBuildsReadEveryLiveRowOnce: an index backfill and the checkpoint a
// WAL attach writes read every live row once, with its bookmark, from a
// table whose main spans four batches and whose unmerged delta holds
// updates that move the key and change the text, deletes, and a row
// rewritten after a held snapshot.
func TestBuildsReadEveryLiveRowOnce(t *testing.T) {
	const n = 3500
	e := NewEngine()
	def := *testTable(t).Def()
	tbl, err := e.CreateDatabase("testdb").CreateTable(&def)
	if err != nil {
		t.Fatal(err)
	}
	model := map[int64]rowset.Row{}
	for i := int64(0); i < n; i++ {
		model[mustInsert(t, tbl, row(i, fmt.Sprintf("n%d", i%7), i%97))] = row(i, fmt.Sprintf("n%d", i%7), i%97)
	}
	merge(tbl)
	write := func(bm int64, r rowset.Row) {
		t.Helper()
		var err error
		if r == nil {
			err = tbl.Delete(bm)
			delete(model, bm)
		} else {
			err = tbl.Update(bm, r)
			model[bm] = r
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for bm := int64(0); bm < n; bm += 50 {
		write(bm, row(bm, "moved", 1000+bm))
	}
	for bm := int64(25); bm < n; bm += 70 {
		write(bm, nil)
	}
	snap := e.AcquireSnapshot()
	defer snap.Release()
	write(17, row(17, "after the snapshot", 5000))
	write(17, row(17, "again", 5001))
	unmerged := func(when string) {
		t.Helper()
		if tbl.main.n != n || tbl.delta.rows.n == 0 {
			t.Fatalf("%s: main holds %d rows and the delta %d entries, want %d and some", when, tbl.main.n, tbl.delta.rows.n, n)
		}
	}
	unmerged("before the builds")

	// The backfill: one entry per live row, under the row's key, in
	// (key, bookmark) order.
	ix, err := tbl.AddIndex(schema.Index{Name: "ix_name_qty", Columns: []int{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(ix.entries) != len(model) {
		t.Fatalf("backfill filed %d entries for %d live rows", len(ix.entries), len(model))
	}
	for k, en := range ix.entries {
		r, ok := model[en.bm]
		if !ok || compareKeys(en.key, ix.keyOf(r)) != 0 {
			t.Fatalf("entry %d: bookmark %d under key %v, the live row is %v (live %v)", k, en.bm, en.key, r, ok)
		}
		if k > 0 && !entryLess(ix.entries[k-1], en) {
			t.Fatalf("entries %d and %d out of order: %v, %v", k-1, k, ix.entries[k-1], en)
		}
	}

	// The checkpoint: a fresh engine recovered from it holds the live rows
	// at their bookmarks, and so does the live table.
	log := NewMemBackend(nil)
	if info, err := e.AttachWAL(log); err != nil || !info.Checkpointed {
		t.Fatalf("attach: %+v, %v", info, err)
	}
	unmerged("after the builds")
	image, err := log.Contents()
	if err != nil {
		t.Fatal(err)
	}
	recovered := NewEngine()
	if _, err := recovered.AttachWAL(NewMemBackend(image)); err != nil {
		t.Fatal(err)
	}
	db, _ := recovered.Database("testdb")
	again, _ := db.Table("items")
	for _, read := range []*Table{again, tbl} {
		rows, bms := readRows(read.Scan())
		if len(rows) != len(model) {
			t.Fatalf("scan read %d rows, the model has %d", len(rows), len(model))
		}
		for i, r := range rows {
			if w, ok := model[bms[i]]; !ok || r.String() != w.String() {
				t.Fatalf("bookmark %d reads %v, the model has %v (live %v)", bms[i], r, w, ok)
			}
		}
	}
	if err := e.DetachWAL(); err != nil {
		t.Fatal(err)
	}
}
