package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"dhqp/internal/rowset"
	"dhqp/internal/schema"
	"dhqp/internal/sqltypes"
)

// The table model: each bookmark's history of committed versions, the
// step that committed each (nil: deleted). A snapshot taken after step k
// sees, per bookmark, its last version from a step at or before k. It
// shares no code with the storage engine: no image, delta, undo tail,
// index or key comparison of the package's own.
type modelVersion struct {
	step int
	row  rowset.Row
}

type tableModel struct {
	hist  map[int64][]modelVersion
	slots int64 // bookmarks handed out so far
	step  int   // last committed step
}

// at returns bookmark bm's row as of step k (nil: none).
func (m *tableModel) at(bm int64, k int) rowset.Row {
	var row rowset.Row
	for _, v := range m.hist[bm] {
		if v.step <= k {
			row = v.row
		}
	}
	return row
}

// commit records one committed transaction's writes as the next step.
func (m *tableModel) commit(writes map[int64]rowset.Row) {
	m.step++
	for bm, r := range writes {
		m.hist[bm] = append(m.hist[bm], modelVersion{m.step, r})
	}
}

// lastWrite is the step that last wrote bm.
func (m *tableModel) lastWrite(bm int64) int {
	h := m.hist[bm]
	if len(h) == 0 {
		return 0
	}
	return h[len(h)-1].step
}

// live lists the bookmarks holding a row as of step k, ascending.
func (m *tableModel) live(k int) []int64 {
	var out []int64
	for bm := range m.hist {
		if m.at(bm, k) != nil {
			out = append(out, bm)
		}
	}
	slices.Sort(out)
	return out
}

// modelKeyLess orders (key, bookmark) pairs as an index does: by the key's
// values, NULL first, then by bookmark.
func modelKeyLess(a, b rowset.Row, abm, bbm int64) bool {
	for i := range a {
		if c := modelCompare(a[i], b[i]); c != 0 {
			return c < 0
		}
	}
	return abm < bbm
}

func modelCompare(a, b sqltypes.Value) int {
	switch {
	case a.IsNull() && b.IsNull():
		return 0
	case a.IsNull():
		return -1
	case b.IsNull():
		return 1
	case a.Int() < b.Int():
		return -1
	case a.Int() > b.Int():
		return 1
	}
	return 0
}

// modelBound is one end of a drawn range over the model's one-column key.
type modelBound struct {
	key       *sqltypes.Value // nil: unbounded
	inclusive bool
}

func (b modelBound) admits(v sqltypes.Value, lower bool) bool {
	if b.key == nil {
		return true
	}
	c := modelCompare(v, *b.key)
	if !lower {
		c = -c
	}
	return c > 0 || (c == 0 && b.inclusive)
}

func (b modelBound) bound() Bound {
	if b.key == nil {
		return Bound{}
	}
	return Bound{Key: rowset.Row{*b.key}, Inclusive: b.inclusive}
}

// modelHarness drives one table and its model through random steps.
type modelHarness struct {
	t     *testing.T
	rng   *rand.Rand
	eng   *Engine
	tbl   *Table
	m     *tableModel
	snaps []heldSnap // older snapshots the harness still reads at
	next  int64      // next id value
}

type heldSnap struct {
	s    Snapshot
	step int
}

func newModelHarness(t *testing.T, seed int64) *modelHarness {
	e := NewEngine()
	tbl, err := e.CreateDatabase("db").CreateTable(&schema.Table{
		Catalog: "db", Name: "m",
		Columns: []schema.Column{
			{Name: "id", Kind: sqltypes.KindInt},
			{Name: "k", Kind: sqltypes.KindInt, Nullable: true},
			{Name: "v", Kind: sqltypes.KindString, Nullable: true},
		},
		Indexes: []schema.Index{{Name: "by_k", Columns: []int{1}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return &modelHarness{t: t, rng: rand.New(rand.NewSource(seed)), eng: e, tbl: tbl,
		m: &tableModel{hist: map[int64][]modelVersion{}}}
}

func (h *modelHarness) newRow() rowset.Row {
	h.next++
	k := sqltypes.NewInt(int64(h.rng.Intn(12)))
	if h.rng.Intn(8) == 0 {
		k = sqltypes.Null
	}
	v := sqltypes.NewString(fmt.Sprintf("v%d", h.rng.Intn(1000)))
	if h.rng.Intn(10) == 0 {
		v = sqltypes.Null
	}
	return rowset.Row{sqltypes.NewInt(h.next), k, v}
}

// pickLive draws a bookmark live at the latest step (false if none).
func (h *modelHarness) pickLive() (int64, bool) {
	live := h.m.live(h.m.step)
	if len(live) == 0 {
		return 0, false
	}
	return live[h.rng.Intn(len(live))], true
}

// autocommit runs one single-row write and mirrors it in the model;
// locked names the bookmarks a prepared transaction holds.
func (h *modelHarness) autocommit(locked map[int64]bool) {
	bm, ok := h.pickLive()
	switch op := h.rng.Intn(3); {
	case op == 0 || !ok:
		r := h.newRow()
		got, err := h.tbl.Insert(r)
		if err != nil || got != h.m.slots {
			h.t.Fatalf("insert: bookmark %d, %v; the model hands out %d", got, err, h.m.slots)
		}
		h.m.slots++
		h.m.commit(map[int64]rowset.Row{got: r})
	case op == 1:
		r := h.newRow()
		err := h.tbl.Update(bm, r)
		h.expect(err, locked[bm], "update", bm)
		if err == nil {
			h.m.commit(map[int64]rowset.Row{bm: r})
		}
	default:
		err := h.tbl.Delete(bm)
		h.expect(err, locked[bm], "delete", bm)
		if err == nil {
			h.m.commit(map[int64]rowset.Row{bm: nil})
		}
	}
}

func (h *modelHarness) expect(err error, locked bool, what string, bm int64) {
	h.t.Helper()
	if locked != errors.Is(err, ErrRowLocked) || (!locked && err != nil) {
		h.t.Fatalf("%s of bookmark %d (locked by a prepared transaction: %v): %v", what, bm, locked, err)
	}
}

// txn buffers one to three writes, lets an autocommit write race it, and
// then commits, aborts, or prepares and decides it; with bulk > 0 it
// commits that many inserts and nothing else.
func (h *modelHarness) txn(bulk int) {
	tx := h.eng.Begin()
	begin := h.m.step
	writes := map[int64]rowset.Row{}
	var inserts []rowset.Row
	for i := 0; i < bulk; i++ {
		inserts = append(inserts, h.newRow())
	}
	if bulk == 0 {
		for n := 1 + h.rng.Intn(3); n > 0; n-- {
			bm, ok := h.pickLive()
			_, taken := writes[bm]
			switch {
			case h.rng.Intn(3) == 0 || !ok || taken:
				inserts = append(inserts, h.newRow())
			case h.rng.Intn(2) == 0:
				r := h.newRow()
				writes[bm] = r
				if err := tx.Update(h.tbl, bm, r); err != nil {
					h.t.Fatal(err)
				}
			default:
				writes[bm] = nil
				if err := tx.Delete(h.tbl, bm); err != nil {
					h.t.Fatal(err)
				}
			}
		}
	}
	for _, r := range inserts {
		if err := tx.Insert(h.tbl, r); err != nil {
			h.t.Fatal(err)
		}
	}
	prepared := bulk == 0 && h.rng.Intn(3) == 0
	if prepared {
		if err := tx.Prepare(); err != nil {
			h.t.Fatalf("prepare: %v", err)
		}
	}
	locked := map[int64]bool{}
	if prepared {
		for bm := range writes {
			locked[bm] = true
		}
	}
	if bulk == 0 && h.rng.Intn(2) == 0 {
		h.autocommit(locked) // may overtake the transaction's snapshot
	}
	conflict := false
	for bm := range writes {
		conflict = conflict || h.m.lastWrite(bm) > begin
	}
	if prepared {
		conflict = false // validated at prepare; the row locks held off the rest
	}
	if bulk == 0 && h.rng.Intn(4) == 0 {
		if err := tx.Abort(); err != nil {
			h.t.Fatal(err)
		}
		return
	}
	err := tx.Commit()
	if conflict != errors.Is(err, ErrWriteConflict) || (!conflict && err != nil) {
		h.t.Fatalf("commit (conflict expected: %v): %v", conflict, err)
	}
	if err != nil {
		return
	}
	for _, r := range inserts {
		writes[h.m.slots] = r
		h.m.slots++
	}
	h.m.commit(writes)
}

// check compares every read path with the model at the latest state and
// at every held snapshot.
func (h *modelHarness) check(where string) {
	h.t.Helper()
	h.checkAt(where, Latest, h.m.step)
	for _, s := range h.snaps {
		h.checkAt(where, s.s.CSN(), s.step)
	}
}

func (h *modelHarness) checkAt(where string, csn uint64, step int) {
	h.t.Helper()
	live := h.m.live(step)
	want := map[int64]string{}
	for _, bm := range live {
		want[bm] = h.m.at(bm, step).String()
	}
	// The full scan with the bookmark column, at the default batch size
	// and at a drawn one.
	got := map[int64]string{}
	rows, bms := readRows(h.tbl.ScanAt(csn))
	for i, r := range rows {
		got[bms[i]] = r.String()
	}
	h.same(where, "ScanAt rows", csn, got, want)
	got = map[int64]string{}
	b := rowset.NewBatch(1 + h.rng.Intn(7))
	brs := h.tbl.ScanAt(csn).(rowset.ProjectedBatchReader)
	for brs.NextBatchProjected(b, []int{0, 1, 2, 3}) == nil {
		for _, i := range b.Indices() {
			r := rowset.Row{b.Col(0).Value(i), b.Col(1).Value(i), b.Col(2).Value(i)}
			got[b.Col(3).Value(i).Int()] = r.String()
		}
	}
	h.same(where, "ScanAt batches", csn, got, want)

	// Bookmark fetches, live and dead.
	for i := 0; i < 4; i++ {
		bm := h.rng.Int63n(h.m.slots + 2)
		r, err := h.tbl.FetchAt(bm, csn)
		if w, ok := want[bm]; ok != (err == nil) || (ok && r.String() != w) {
			h.t.Fatalf("%s: FetchAt(%d, csn %d) = %v, %v; the model has %q (live %v)", where, bm, csn, r, err, w, ok)
		}
	}

	// Index ranges over k, in (k, bookmark) order.
	lo, hi := h.drawBound(), h.drawBound()
	var wantRange []string
	type hit struct {
		key rowset.Row
		bm  int64
	}
	var hits []hit
	for _, bm := range live {
		k := h.m.at(bm, step)[1]
		if lo.admits(k, true) && hi.admits(k, false) {
			hits = append(hits, hit{rowset.Row{k}, bm})
		}
	}
	sort.Slice(hits, func(a, c int) bool { return modelKeyLess(hits[a].key, hits[c].key, hits[a].bm, hits[c].bm) })
	for _, x := range hits {
		wantRange = append(wantRange, fmt.Sprintf("%d:%s", x.bm, want[x.bm]))
	}
	ix, _ := h.tbl.Index("by_k")
	var gotRange []string
	rows, bms = readRows(ix.RangeAt(lo.bound(), hi.bound(), csn))
	for i, r := range rows {
		gotRange = append(gotRange, fmt.Sprintf("%d:%s", bms[i], r.String()))
	}
	if !slices.Equal(gotRange, wantRange) {
		h.t.Fatalf("%s: RangeAt(%v, %v, csn %d):\n got %s\nwant %s", where, lo.bound(), hi.bound(), csn,
			strings.Join(gotRange, " "), strings.Join(wantRange, " "))
	}
}

func (h *modelHarness) drawBound() modelBound {
	switch h.rng.Intn(5) {
	case 0:
		return modelBound{}
	case 1:
		return modelBound{key: &sqltypes.Null, inclusive: h.rng.Intn(2) == 0}
	}
	v := sqltypes.NewInt(int64(h.rng.Intn(14)) - 1)
	return modelBound{key: &v, inclusive: h.rng.Intn(2) == 0}
}

func (h *modelHarness) same(where, what string, csn uint64, got, want map[int64]string) {
	h.t.Helper()
	for bm, w := range want {
		if got[bm] != w {
			h.t.Fatalf("%s: %s at csn %d: bookmark %d reads %q, the model has %q", where, what, csn, bm, got[bm], w)
		}
	}
	for bm, g := range got {
		if _, ok := want[bm]; !ok {
			h.t.Fatalf("%s: %s at csn %d: bookmark %d reads %q, the model has no row", where, what, csn, bm, g)
		}
	}
}

// hold takes a snapshot at the latest step and keeps it; release drops
// the oldest.
func (h *modelHarness) hold() {
	h.snaps = append(h.snaps, heldSnap{h.eng.AcquireSnapshot(), h.m.step})
}

func (h *modelHarness) release() {
	h.snaps[0].s.Release()
	h.snaps = h.snaps[1:]
}

// TestTableAgainstModel drives a table through seeded random autocommit
// writes, committed, aborted and prepared transactions, bulk loads that
// pass the delta's merge bound and the deletes that follow them, while
// holding older snapshots; after every step the full scan (row and batch
// readers), bookmark fetches and index ranges agree with a model of each
// bookmark's committed history, at the latest state and at every held
// snapshot. It opens with a snapshot taken before a merge and reads it
// after the merge; later steps cross merges and undo pruning at random.
func TestTableAgainstModel(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			h := newModelHarness(t, seed)
			for i := 0; i < 40; i++ {
				h.autocommit(nil)
			}
			h.check("load")

			// A snapshot opened before a merge reads its rows after it.
			h.hold()
			for i := 0; i < 30; i++ {
				h.autocommit(nil)
			}
			before := h.tbl.main
			h.txn(mergeRows + 100) // past the write bound: the commit merges
			h.tbl.mu.RLock()
			merged := h.tbl.main != before
			h.tbl.mu.RUnlock()
			if !merged {
				t.Fatal("a commit past the delta's bound did not merge")
			}
			h.check("after a merge")
			h.txnDeleteAll()
			h.check("after the bulk delete")

			for step := 0; step < 400; step++ {
				switch d := h.rng.Intn(20); {
				case d < 10:
					h.autocommit(nil)
				case d < 16:
					h.txn(0)
				case d < 18 && len(h.snaps) < 3:
					h.hold()
				case len(h.snaps) > 0:
					h.release()
				}
				h.check(fmt.Sprintf("step %d", step))
			}
			// Past the undo tail's pruning point while a snapshot holds
			// part of it.
			h.hold()
			h.txn(300)
			h.release()
			h.txnDeleteAll()
			h.check("after pruning")
			for len(h.snaps) > 0 {
				h.release()
			}
			h.check("released")
		})
	}
}

// txnDeleteAll deletes every live row in one transaction.
func (h *modelHarness) txnDeleteAll() {
	tx := h.eng.Begin()
	writes := map[int64]rowset.Row{}
	for _, bm := range h.m.live(h.m.step) {
		writes[bm] = nil
		if err := tx.Delete(h.tbl, bm); err != nil {
			h.t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		h.t.Fatal(err)
	}
	h.m.commit(writes)
}
