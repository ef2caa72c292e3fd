package storage

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"dhqp/internal/rowset"
	"dhqp/internal/schema"
	"dhqp/internal/sqltypes"
)

// seekEngine builds db.t(id, k, v) with a non-unique index on the nullable
// k and a composite one on (k, id), loaded with n rows.
func seekEngine(t *testing.T, n int, rng *rand.Rand) (*Engine, *Table) {
	t.Helper()
	e := NewEngine()
	tbl, err := e.CreateDatabase("db").CreateTable(&schema.Table{
		Catalog: "db", Name: "t",
		Columns: []schema.Column{
			{Name: "id", Kind: sqltypes.KindInt},
			{Name: "k", Kind: sqltypes.KindInt, Nullable: true},
			{Name: "v", Kind: sqltypes.KindInt},
		},
		Indexes: []schema.Index{{Name: "by_k", Columns: []int{1}}, {Name: "by_k_id", Columns: []int{1, 0}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		mustInsert(t, tbl, seekRow(int64(i), rng))
	}
	return e, tbl
}

// seekRow draws a row whose key is one of 16 values or NULL.
func seekRow(id int64, rng *rand.Rand) rowset.Row {
	k := sqltypes.NewInt(int64(rng.Intn(16)))
	if rng.Intn(10) == 0 {
		k = sqltypes.Null
	}
	return rowset.Row{sqltypes.NewInt(id), k, sqltypes.NewInt(int64(rng.Intn(1000)))}
}

// mutate commits random changes — inserts, updates that move the key,
// updates that keep it, deletes, the last as likely as the first so the
// table keeps its size — as one autocommit write or as a two-operation
// transaction. Conflicts with a concurrent mutator are expected and ignored.
func mutate(e *Engine, tbl *Table, nextID *int64, rng *rand.Rand) {
	slots := int64(tbl.slotCount())
	var tx *Txn
	ops := 1
	if rng.Intn(2) == 0 {
		tx, ops = e.Begin(), 2
	}
	taken := int64(-1)
	for ; ops > 0; ops-- {
		bm := rng.Int63n(slots)
		r, err := tbl.Fetch(bm)
		switch draw := rng.Intn(4); {
		case draw == 0:
			*nextID++
			if tx != nil {
				_ = tx.Insert(tbl, seekRow(*nextID, rng))
			} else {
				_, _ = tbl.Insert(seekRow(*nextID, rng))
			}
		case err != nil || bm == taken:
			// a dead slot, or the row this transaction already wrote
		case draw == 1:
			taken = bm
			if tx != nil {
				_ = tx.Delete(tbl, bm)
			} else {
				_ = tbl.Delete(bm)
			}
		default:
			taken = bm
			n := seekRow(r[0].Int(), rng)
			if draw == 2 {
				n[1] = r[1] // same key: the entry stays where it is
			}
			if tx != nil {
				_ = tx.Update(tbl, bm, n)
			} else {
				_ = tbl.Update(bm, n)
			}
		}
	}
	if tx != nil {
		_ = tx.Commit()
	}
}

func (t *Table) slotCount() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.csns)
}

type seekHit struct {
	bm  int64
	row string
}

func drainHits(rs rowset.Rowset) []seekHit {
	var out []seekHit
	rows, bms := readRows(rs)
	for i, r := range rows {
		out = append(out, seekHit{bms[i], r.String()})
	}
	return out
}

// oracleRange is RangeAt spelled out: every row of the snapshot scan whose
// key lies within the bounds, in (key, bookmark) order.
func oracleRange(tbl *Table, ix *Index, lo, hi Bound, csn uint64) []seekHit {
	type cand struct {
		key rowset.Row
		bm  int64
		row rowset.Row
	}
	var cands []cand
	rows, bms := readRows(tbl.ScanAt(csn))
	for i, r := range rows {
		key := ix.keyOf(r)
		if lo.Key != nil {
			if c := compareKeys(key, lo.Key); c < 0 || (c == 0 && !lo.Inclusive) {
				continue
			}
		}
		if hi.Key != nil {
			if c := compareKeys(key, hi.Key); c > 0 || (c == 0 && !hi.Inclusive) {
				continue
			}
		}
		cands = append(cands, cand{key, bms[i], r})
	}
	sort.Slice(cands, func(a, b int) bool {
		if c := compareKeys(cands[a].key, cands[b].key); c != 0 {
			return c < 0
		}
		return cands[a].bm < cands[b].bm
	})
	out := make([]seekHit, len(cands))
	for i, c := range cands {
		out[i] = seekHit{c.bm, c.row.String()}
	}
	return out
}

// randomBound draws an absent bound, a NULL key or a key prefix.
func randomBound(rng *rand.Rand) Bound {
	switch rng.Intn(6) {
	case 0:
		return Bound{}
	case 1:
		return Bound{Key: rowset.Row{sqltypes.Null}, Inclusive: rng.Intn(2) == 0}
	default:
		return Bound{Key: rowset.Row{sqltypes.NewInt(int64(rng.Intn(18)) - 1)}, Inclusive: rng.Intn(2) == 0}
	}
}

func checkSeeks(t *testing.T, tbl *Table, csn uint64, rng *rand.Rand, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		ix := tbl.Indexes()[rng.Intn(2)]
		lo, hi := randomBound(rng), randomBound(rng)
		if rng.Intn(4) == 0 {
			hi = Bound{Key: lo.Key, Inclusive: true} // a seek
			lo.Inclusive = true
		}
		got, want := drainHits(ix.RangeAt(lo, hi, csn)), oracleRange(tbl, ix, lo, hi, csn)
		at := 0
		for at < len(got) && at < len(want) && got[at] == want[at] {
			at++
		}
		if at < len(got) || at < len(want) {
			t.Errorf("%s RangeAt(%v, %v, csn %d): %d rows, scan has %d; first difference at %d\n got %v\nwant %v",
				ix.Def().Name, lo, hi, csn, len(got), len(want), at, got[at:min(at+3, len(got))], want[at:min(at+3, len(want))])
			return
		}
	}
}

// TestRangeAtEqualsFilteredScan is the property the undo-patched seek must
// keep: for any bounds, RangeAt at a snapshot yields what filtering and
// sorting the snapshot scan yields, whatever committed between the
// snapshot and the seek — first with the commits placed deterministically
// after the snapshot, then with a second goroutine committing all along.
func TestRangeAtEqualsFilteredScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	e, tbl := seekEngine(t, 300, rng)
	nextID := int64(1000)
	for round := 0; round < 30; round++ {
		snap := e.AcquireSnapshot()
		checkSeeks(t, tbl, snap.CSN(), rng, 5) // nothing newer yet: the live range
		for i := rng.Intn(12); i >= 0; i-- {
			mutate(e, tbl, &nextID, rng)
		}
		checkSeeks(t, tbl, snap.CSN(), rng, 15)
		checkSeeks(t, tbl, Latest, rng, 5)
		snap.Release()
	}

	var wg sync.WaitGroup
	var done atomic.Bool
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		wrng := rand.New(rand.NewSource(6))
		id := int64(1_000_000)
		for i := 0; i < 400; i++ {
			mutate(e, tbl, &id, wrng)
		}
	}()
	for !done.Load() && !t.Failed() {
		snap := e.AcquireSnapshot()
		checkSeeks(t, tbl, snap.CSN(), rng, 10)
		snap.Release()
	}
	wg.Wait()
}

// checkIndexes asserts the index invariants: entries strictly ascending in
// (key, bookmark) order, exactly one per live row carrying that row's key,
// and Seek on a row's key finding the row.
func checkIndexes(t *testing.T, tbl *Table) {
	t.Helper()
	live := map[int64]rowset.Row{}
	rows, bms := readRows(tbl.Scan())
	for i, r := range rows {
		live[bms[i]] = r
	}
	for _, ix := range tbl.Indexes() {
		if len(ix.entries) != len(live) {
			t.Errorf("%s: %d entries for %d live rows", ix.def.Name, len(ix.entries), len(live))
		}
		for i, e := range ix.entries {
			if i > 0 && !entryLess(ix.entries[i-1], e) {
				t.Errorf("%s: entries %d and %d out of order: %v/%d then %v/%d", ix.def.Name, i-1, i,
					ix.entries[i-1].key, ix.entries[i-1].bm, e.key, e.bm)
			}
			r, ok := live[e.bm]
			if !ok {
				t.Errorf("%s: entry for dead bookmark %d", ix.def.Name, e.bm)
			} else if compareKeys(e.key, ix.keyOf(r)) != 0 {
				t.Errorf("%s: bookmark %d filed under %v, row key is %v", ix.def.Name, e.bm, e.key, ix.keyOf(r))
			}
		}
		for bm, r := range live {
			found := false
			for _, h := range drainHits(ix.Seek(ix.keyOf(r))) {
				found = found || h.bm == bm
			}
			if !found {
				t.Errorf("%s: Seek(%v) misses bookmark %d", ix.def.Name, ix.keyOf(r), bm)
			}
		}
	}
}

// TestIndexesConsistentAfterDMLAndRecovery runs random DML — updates that
// keep the key (entry left in place) and updates that move it (entry
// rewritten) among inserts and deletes — against a logged engine, then
// replays the log into a fresh engine: both must satisfy the index
// invariants and hold the same state.
func TestIndexesConsistentAfterDMLAndRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	e, tbl := seekEngine(t, 0, rng)
	log := NewMemBackend(nil)
	if _, err := e.AttachWAL(log); err != nil {
		t.Fatal(err)
	}
	nextID := int64(0)
	for i := 0; i < 200; i++ {
		nextID++
		mustInsert(t, tbl, seekRow(nextID, rng))
	}
	// One update of each branch by hand, so neither depends on the draw.
	r, _ := tbl.Fetch(0)
	kept := rowset.Row{r[0], r[1], sqltypes.NewInt(-1)}
	if err := tbl.Update(0, kept); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Update(1, rowset.Row{sqltypes.NewInt(2), sqltypes.NewInt(99), sqltypes.NewInt(-2)}); err != nil {
		t.Fatal(err)
	}
	checkIndexes(t, tbl)
	for i := 0; i < 400; i++ {
		mutate(e, tbl, &nextID, rng)
	}
	checkIndexes(t, tbl)
	want := dumpEngine(e)

	fresh := NewEngine()
	if _, err := fresh.AttachWAL(NewMemBackend(log.AllBytes())); err != nil {
		t.Fatalf("recovery: %v", err)
	}
	db, _ := fresh.Database("db")
	recovered, ok := db.Table("t")
	if !ok {
		t.Fatal("recovery lost db.t")
	}
	checkIndexes(t, recovered)
	if got := dumpEngine(fresh); got != want {
		t.Errorf("recovered state differs\n got %s\nwant %s", got, want)
	}
}
