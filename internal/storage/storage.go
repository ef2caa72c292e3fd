// Package storage implements the local storage engine: in-memory tables
// with ordered secondary indexes supporting ISAM-style navigation — full
// scans, key-range scans (seek/set-range) and bookmark-based row fetch —
// exactly the access paths the paper's remote scan / remote range / remote
// fetch rules target (§3.2.2, §4.1.2).
//
// A table keeps each row once: in an immutable columnar main, or in a
// delta, a typed log of the writes since main was built, folded into a new
// main when it grows past a bound (C-Store's read-optimized and writeable
// stores). All three access paths read through one routine that resolves
// a bookmark as of a snapshot: snapshot isolation over per-row commit
// numbers and an undo tail (mvcc.go), a write-ahead log (wal.go, recovery.go)
// and table locks held only for the length of one operation. The paper's
// contribution is the query processor above it; the engine exposes
// realistic access-path cost asymmetries and is shared verbatim by the
// local server and every simulated remote server.
package storage

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"dhqp/internal/rowset"
	"dhqp/internal/schema"
	"dhqp/internal/sqltypes"
)

// Engine is one storage instance: a set of databases each holding tables.
type Engine struct {
	mu  sync.RWMutex
	dbs map[string]*Database
	tm  *TxnManager
}

// NewEngine returns an empty engine.
func NewEngine() *Engine {
	return &Engine{dbs: map[string]*Database{}, tm: newTxnManager()}
}

// CreateDatabase adds a database; it is a no-op if it already exists.
func (e *Engine) CreateDatabase(name string) *Database {
	e.mu.Lock()
	defer e.mu.Unlock()
	if db, ok := e.dbs[lower(name)]; ok {
		return db
	}
	// Best-effort DDL logging: a failure poisons durable writes rather
	// than changing this method's infallible signature.
	_ = e.tm.logDDL(walRecord{kind: recCreateDB, table: name})
	db := &Database{eng: e, name: name, tables: map[string]*Table{}}
	e.dbs[lower(name)] = db
	return db
}

// Database returns the named database.
func (e *Engine) Database(name string) (*Database, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	db, ok := e.dbs[lower(name)]
	return db, ok
}

// Databases lists database names in sorted order.
func (e *Engine) Databases() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]string, 0, len(e.dbs))
	for _, db := range e.dbs {
		out = append(out, db.name)
	}
	sort.Strings(out)
	return out
}

// Database is a namespace of tables.
type Database struct {
	mu     sync.RWMutex
	eng    *Engine
	name   string
	tables map[string]*Table
}

// Name returns the database name.
func (d *Database) Name() string { return d.name }

// tm returns the owning engine's transaction manager (nil-safe for
// directly-constructed test fixtures).
func (d *Database) txns() *TxnManager {
	if d.eng == nil {
		return nil
	}
	return d.eng.tm
}

// CreateTable registers a table from its schema descriptor.
func (d *Database) CreateTable(def *schema.Table) (*Table, error) {
	if err := def.Validate(); err != nil {
		return nil, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	key := lower(def.Name)
	if _, ok := d.tables[key]; ok {
		return nil, fmt.Errorf("storage: table %s already exists in %s", def.Name, d.name)
	}
	if tm := d.txns(); tm != nil && tm.logging.Load() {
		defJSON, err := marshalTableDef(def)
		if err != nil {
			return nil, err
		}
		if err := tm.logDDL(walRecord{kind: recCreateTable, table: d.name, def: defJSON}); err != nil {
			return nil, err
		}
	}
	t := &Table{db: d.name, tm: d.txns(), main: newImage(def.Columns, nil, nil), delta: newDelta(len(def.Columns) + 1)}
	t.def.Store(def)
	for _, ix := range def.Indexes {
		t.indexes = append(t.indexes, &Index{def: ix, table: t})
	}
	d.tables[key] = t
	return t, nil
}

// DropTable removes a table.
func (d *Database) DropTable(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	t, ok := d.tables[lower(name)]
	if !ok {
		return fmt.Errorf("storage: table %s not found in %s", name, d.name)
	}
	if tm := d.txns(); tm != nil {
		if err := tm.logDDL(walRecord{kind: recDropTable, table: t.walName()}); err != nil {
			return err
		}
	}
	delete(d.tables, lower(name))
	return nil
}

// Table returns the named table.
func (d *Database) Table(name string) (*Table, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	t, ok := d.tables[lower(name)]
	return t, ok
}

// Tables lists table names in sorted order.
func (d *Database) Tables() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]string, 0, len(d.tables))
	for _, t := range d.tables {
		out = append(out, t.Def().Name)
	}
	sort.Strings(out)
	return out
}

// Table is a set of rows plus its secondary indexes. A row's bookmark is
// its slot, stable for the life of the table (the remote-fetch path relies
// on it). Each row lives in one place: in main, an immutable columnar image
// of the live rows as of the last merge, or in the delta, which logs every
// write since.
type Table struct {
	mu      sync.RWMutex
	def     atomic.Pointer[schema.Table] // replaced whole by AddIndex
	db      string                       // owning database name (WAL identity, lock order)
	tm      *TxnManager                  // owning engine's transaction manager (nil in bare fixtures)
	main    *tableImage                  // never written: scans read windows onto it, a merge replaces it
	delta   *tableDelta                  // the writes since main was built; a merge replaces it
	csns    []uint64                     // per-slot CSN of the commit that last wrote it; one per slot
	live    int
	version int64 // bumped by every successful Insert/Delete/Update
	indexes []*Index

	// undo[undoHead:] holds before-images of rows overwritten while a
	// snapshot (or an in-flight multi-op commit) could still need them,
	// in ascending CSN order; a read at a snapshot takes a row that newer
	// commits rewrote from the oldest of their records. Guarded by mu.
	undo     []undoRec
	undoHead int

	// locks maps bookmarks write-locked by prepared (in-doubt)
	// transactions to the owning transaction id. Guarded by mu.
	locks map[int64]uint64
}

// The delta's bounds, in entries (one per write). A write folds the delta
// into a new main once it holds max(mergeRows, main): main at least
// doubles, so a bulk load copies each row about twice. A full scan folds
// a non-empty delta once it holds main/mergeShare, so a scan copies out at
// most an eighth as many entries as main has rows. Either way a merge,
// which copies main, comes at most once per main/mergeShare writes: a
// written row costs a bounded number of copies at any table size.
const (
	mergeRows  = 1024
	mergeShare = 8
)

// tableImage is rows in columns: column j of row i is cols[j] element i,
// and the INT column after the table's last holds row i's bookmark. A
// table's main lists its rows in ascending bookmark order.
type tableImage struct {
	n    int
	cols []rowset.Vec
}

// newImage types rows to the table's declared kinds, which Insert coerces
// every stored value to; bms[i] is row i's bookmark.
func newImage(cols []schema.Column, rows []rowset.Row, bms []int64) *tableImage {
	img := &tableImage{n: len(rows), cols: make([]rowset.Vec, len(cols)+1)}
	for j, c := range cols {
		img.cols[j] = rowset.BuildColVec(c.Kind, rows, j)
	}
	bm := &img.cols[len(cols)]
	bm.ResetTyped(sqltypes.KindInt, len(bms))
	copy(bm.Int64s(), bms)
	return img
}

func (img *tableImage) bookmark(i int) int64 { return img.cols[len(img.cols)-1].Int64s()[i] }

// row boxes row i.
func (img *tableImage) row(i int) rowset.Row {
	r := make(rowset.Row, len(img.cols)-1)
	for j := range r {
		r[j] = img.cols[j].Value(i)
	}
	return r
}

// find returns the position of bookmark bm in a main image, or -1. Row i
// holds a bookmark of at least i and at most i plus the slots missing
// below the last row's, so the search spans only those gaps.
func (img *tableImage) find(bm int64) int {
	bms := img.cols[len(img.cols)-1].Int64s()[:img.n]
	if img.n == 0 || bm < 0 || bm > bms[img.n-1] {
		return -1
	}
	lo := max(0, int(bm-bms[img.n-1])+img.n-1)
	i, ok := slices.BinarySearch(bms[lo:min(img.n, int(bm)+1)], bm)
	if !ok {
		return -1
	}
	return lo + i
}

// tableDelta logs the writes since main was built, an entry per write in
// write order: the row written, with its bookmark after the table's last
// column as in main (a delete's entry repeats the row it deleted). Entries
// are only appended, so a read fixes what it sees by their count, and next
// and gone record which of those rows a later write superseded, and when.
// Guarded by the table's mu; a read that outlives its caller's hold takes
// the lock again to copy entries out, since an append may write a
// validity word those entries share.
type tableDelta struct {
	rows  tableImage
	next  []int32      // entry e's successor: the entry that rewrote its slot, e for a delete, current while none
	slots []int32      // slot → its newest entry plus one (0: none since main)
	gone  []int32      // main row p's successor, if marks has p
	marks []uint64     // bit p set: a write superseded main row p (nil until one does)
	one   []rowset.Vec // scratch: the entry being appended
}

// current is the successor of an entry no write has superseded.
const current = math.MaxInt32

var firstRow = []int32{0}

func newDelta(width int) *tableDelta {
	return &tableDelta{rows: tableImage{cols: make([]rowset.Vec, width)}, one: make([]rowset.Vec, width)}
}

// entry returns slot bm's newest entry, if it has one.
func (d *tableDelta) entry(bm int64) (int32, bool) {
	if bm < int64(len(d.slots)) && d.slots[bm] > 0 {
		return d.slots[bm] - 1, true
	}
	return 0, false
}

// append logs row r of slot bm, typed to the declared kinds, as the next
// entry, with successor next.
func (d *tableDelta) append(cols []schema.Column, bm int64, r rowset.Row, next int32) {
	for j, c := range cols {
		d.one[j].ResetTyped(c.Kind, 1)
		d.one[j].SetValue(0, r[j])
	}
	d.one[len(cols)].ResetTyped(sqltypes.KindInt, 1)
	d.one[len(cols)].Int64s()[0] = bm
	for j := range d.rows.cols {
		d.rows.cols[j].Gather(d.rows.n, &d.one[j], firstRow, false)
	}
	if n := int(bm) + 1; n > len(d.slots) {
		d.slots = slices.Grow(d.slots, n-len(d.slots))[:n] // never written past its length: zeros
	}
	d.slots[bm] = int32(d.rows.n) + 1
	d.next = append(d.next, next)
	d.rows.n++
}

// rewrote reports whether a delta entry superseded main row p.
func (d *tableDelta) rewrote(p int) bool {
	return d.marks != nil && d.marks[p>>6]&(1<<(p&63)) != 0
}

// Def returns the schema descriptor.
func (t *Table) Def() *schema.Table { return t.def.Load() }

// RowCount returns the number of live rows.
func (t *Table) RowCount() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.live
}

// walName is the table's log identity, "db.table".
func (t *Table) walName() string { return t.db + "." + t.Def().Name }

// lockName orders tables deterministically for multi-table commits.
func (t *Table) lockName() string { return lower(t.walName()) }

// Version reports the mutation counter. It changes only on successful
// mutations: a failed Insert/Update/Delete (validation, bad bookmark,
// lock conflict, WAL failure) leaves it untouched.
func (t *Table) Version() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.version
}

// validateRow checks arity, nullability and kind coercion, returning the
// cloned, coerced row ready to store. The caller's slice is not mutated.
func (t *Table) validateRow(r rowset.Row) (rowset.Row, error) {
	if len(r) != len(t.Def().Columns) {
		return nil, fmt.Errorf("storage: %s: row has %d values, want %d", t.Def().Name, len(r), len(t.Def().Columns))
	}
	stored := r.Clone()
	for i, c := range t.Def().Columns {
		if stored[i].IsNull() {
			if !c.Nullable {
				return nil, fmt.Errorf("storage: %s.%s: NULL not allowed", t.Def().Name, c.Name)
			}
			continue
		}
		coerced, err := sqltypes.Coerce(stored[i], c.Kind)
		if err != nil {
			return nil, fmt.Errorf("storage: %s.%s: %w", t.Def().Name, c.Name, err)
		}
		stored[i] = coerced
	}
	return stored, nil
}

// Insert validates and appends a row, maintaining indexes, and returns its
// bookmark. The row is logged (and under DurabilityFull fsynced) before it
// becomes visible; a WAL failure leaves the table unchanged.
func (t *Table) Insert(r rowset.Row) (int64, error) {
	stored, err := t.validateRow(r)
	if err != nil {
		return 0, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	bm := int64(len(t.csns))
	if err := t.autocommitLocked(recInsert, bm, stored); err != nil {
		return 0, err
	}
	return bm, nil
}

// Delete removes the row at the given bookmark.
func (t *Table) Delete(bm int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.autocommitLocked(recDelete, bm, nil)
}

// Update replaces the row at the bookmark.
func (t *Table) Update(bm int64, r rowset.Row) error {
	if len(r) != len(t.Def().Columns) {
		return fmt.Errorf("storage: %s: row has %d values, want %d", t.Def().Name, len(r), len(t.Def().Columns))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.autocommitLocked(recUpdate, bm, r.Clone())
}

// autocommitLocked write-ahead-logs a single-operation write (operation
// record + commit record, one fsync under DurabilityFull) and applies it
// at a fresh CSN. Caller holds t.mu; on error nothing has been applied.
func (t *Table) autocommitLocked(kind recKind, bm int64, row rowset.Row) error {
	if kind != recInsert && !t.liveLocked(bm) {
		return fmt.Errorf("storage: %s: bad bookmark %d", t.Def().Name, bm)
	}
	if _, locked := t.locks[bm]; locked {
		return fmt.Errorf("%w: %s bookmark %d", ErrRowLocked, t.Def().Name, bm)
	}
	csn, needUndo := uint64(0), false
	if t.tm != nil {
		if t.tm.logging.Load() {
			err := t.tm.appendLog(func() []walRecord {
				txn := t.tm.autoTxnID()
				return []walRecord{
					{kind: kind, txn: txn, table: t.walName(), bm: bm, row: row},
					{kind: recCommit, txn: txn},
				}
			})
			if err != nil {
				return fmt.Errorf("storage: %s: WAL append: %w", t.Def().Name, err)
			}
		}
		csn, needUndo = t.tm.allocAuto()
	}
	t.applyLocked(kind, bm, row, csn, needUndo)
	return nil
}

// liveLocked reports whether slot bm holds a row. Caller holds t.mu.
func (t *Table) liveLocked(bm int64) bool {
	if e, ok := t.delta.entry(bm); ok {
		return t.delta.next[e] == current
	}
	return t.main.find(bm) >= 0
}

// applyLocked lands a validated insert (at an explicit slot, past the end
// if recovery replays it there), update or delete of slot bm as a delta
// entry at CSN csn, keeping the before-image if needUndo, and folds a full
// delta into main. An update leaves an index entry whose key did not
// change where it is: moving it would cost two shifts of the sorted entry
// slice, on the live path and again on every replayed record. Caller holds
// t.mu for writing.
func (t *Table) applyLocked(kind recKind, bm int64, row rowset.Row, csn uint64, needUndo bool) {
	d, e := t.delta, int32(t.delta.rows.n)
	var old rowset.Row
	if last, ok := d.entry(bm); ok {
		if d.next[last] == current {
			old = d.rows.row(int(last))
		}
		d.next[last] = e
	} else if p := t.main.find(bm); p >= 0 {
		old = t.main.row(p)
		if d.marks == nil {
			d.marks, d.gone = make([]uint64, (t.main.n+63)/64), make([]int32, t.main.n)
		}
		d.marks[p>>6] |= 1 << (p & 63)
		d.gone[p] = e
	}
	next := int32(current)
	switch kind {
	case recInsert:
		for int64(len(t.csns)) <= bm {
			t.csns = append(t.csns, 0)
		}
		t.live++
	case recDelete:
		row, next = nil, e
		t.live--
	}
	t.noteUndoLocked(bm, csn, old, needUndo)
	t.version++
	t.csns[bm] = csn
	if row != nil {
		d.append(t.Def().Columns, bm, row, next)
	} else {
		d.append(t.Def().Columns, bm, old, next)
	}
	for _, ix := range t.indexes {
		if old != nil && (row == nil || !ix.sameKey(old, row)) {
			ix.deleteLocked(old, bm)
		}
		if row != nil && (old == nil || !ix.sameKey(old, row)) {
			ix.insertLocked(row, bm)
		}
	}
	if d.rows.n >= max(mergeRows, t.main.n) {
		t.mergeLocked()
	}
}

// mergeLocked folds the delta into a new main: every live row in bookmark
// order, gathered by position from main and from the delta's newest
// entries. A snapshot reads a row rewritten after it from the undo tail,
// which the merge leaves as it is. Caller holds t.mu for writing.
func (t *Table) mergeLocked() {
	d, main := t.delta, t.main
	ids := make([]int32, 0, t.live)
	for p, bm := 0, 0; p < main.n || bm < len(d.slots); {
		e, ok := d.entry(int64(bm))
		switch {
		case p < main.n && d.rewrote(p):
			p++
		case bm < len(d.slots) && (!ok || d.next[e] != current):
			bm++
		case bm < len(d.slots) && (p == main.n || int64(bm) < main.bookmark(p)):
			ids, bm = append(ids, int32(main.n)+e), bm+1
		default:
			ids, p = append(ids, int32(p)), p+1
		}
	}
	img := &tableImage{n: len(ids), cols: make([]rowset.Vec, len(main.cols))}
	for j := range img.cols {
		img.cols[j].ResetTyped(main.cols[j].Kind(), img.n)
	}
	t.readLocked(Latest).gather(img.cols, nil, ids)
	t.main, t.delta = img, newDelta(len(img.cols))
}

// noteUndoLocked records the before-image of slot bm for snapshot
// reconstruction, or drops the whole undo tail when no snapshot can need
// it anymore. Caller holds t.mu.
func (t *Table) noteUndoLocked(bm int64, csn uint64, old rowset.Row, needUndo bool) {
	if !needUndo {
		// No active snapshot and no in-flight commit existed when this
		// CSN was allocated, so nothing can ever read below it: the
		// entire tail is dead.
		if len(t.undo) > 0 {
			t.undo = t.undo[:0]
			t.undoHead = 0
		}
		return
	}
	t.undo = append(t.undo, undoRec{bm: bm, csn: csn, row: old})
	if len(t.undo)-t.undoHead > 256 && t.tm != nil {
		t.pruneUndoLocked(t.tm.horizon())
	}
}

// pruneUndoLocked discards undo records no snapshot can reach (CSN at or
// below the horizon). Caller holds t.mu.
func (t *Table) pruneUndoLocked(h uint64) {
	for t.undoHead < len(t.undo) && t.undo[t.undoHead].csn <= h {
		t.undoHead++
	}
	if t.undoHead > 64 && t.undoHead*2 >= len(t.undo) {
		n := copy(t.undo, t.undo[t.undoHead:])
		t.undo = t.undo[:n]
		t.undoHead = 0
	}
}

// Fetch returns the row at a bookmark (the IRowsetLocate path).
func (t *Table) Fetch(bm int64) (rowset.Row, error) {
	return t.FetchAt(bm, Latest)
}

// FetchAt returns the row at a bookmark as of snapshot csn.
func (t *Table) FetchAt(bm int64, csn uint64) (rowset.Row, error) {
	rs, err := t.FetchRowsAt([]int64{bm}, csn)
	if err != nil {
		return nil, err
	}
	b := rowset.NewBatch(1)
	if err := rs.NextBatch(b); err != nil {
		return nil, err
	}
	return b.RowAt(0, nil), nil
}

// FetchRowsAt returns the rows at bms, in that order, as of snapshot csn;
// a dead or unknown bookmark fails the fetch.
func (t *Table) FetchRowsAt(bms []int64, csn uint64) (rowset.Rowset, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	s := t.readLocked(csn).list(len(bms))
	for _, bm := range bms {
		if !s.add(bm) {
			return nil, fmt.Errorf("storage: %s: bad bookmark %d", t.Def().Name, bm)
		}
	}
	return s.seal().outlive(&t.mu), nil
}

// Scan returns a full-table rowset snapshot at the latest state. The
// rowset reads each row's bookmark as the ordinal one past the table's
// last column.
func (t *Table) Scan() rowset.Rowset { return t.ScanAt(Latest) }

// ScanAt returns a full-table rowset as of snapshot csn: main's rows in
// place, less those the delta or a commit newer than csn rewrote, then the
// delta's rows in write order, then those a newer commit rewrote as of
// csn. A scan that finds the delta over its bound merges it first.
func (t *Table) ScanAt(csn uint64) rowset.Rowset {
	t.mu.RLock()
	if t.scanMerges() {
		t.mu.RUnlock()
		t.mu.Lock()
		if t.scanMerges() {
			t.mergeLocked()
		}
		t.mu.Unlock()
		t.mu.RLock()
	}
	defer t.mu.RUnlock()
	return t.readLocked(csn).full().outlive(&t.mu)
}

// scanMerges reports whether a full scan folds the delta first. Caller
// holds t.mu.
func (t *Table) scanMerges() bool {
	n := t.delta.rows.n
	return n > 0 && n >= t.main.n/mergeShare
}

// readLocked starts a read of the table as of snapshot csn — the one path
// behind full scans, index ranges, bookmark fetches, merges, checkpoints
// and index backfills. A row is read from the undo tail if a commit newer
// than csn rewrote it (the oldest such record's before-image), else from
// its newest delta entry if it was written since main was built, else from
// main in place. Caller holds t.mu until the read is sealed, and for the
// whole read unless outlive hands the read the lock.
func (t *Table) readLocked(csn uint64) *tableScan {
	s := &tableScan{cols: t.Def().Columns, main: t.main, delta: t.delta, seen: int32(t.delta.rows.n)}
	for i := len(t.undo) - 1; i >= t.undoHead && t.undo[i].csn > csn; i-- {
		if s.past == nil {
			s.past = map[int64]rowset.Row{}
		}
		s.past[t.undo[i].bm] = t.undo[i].row
	}
	return s
}

// tableScan reads a table's rows as of one snapshot: main's in place, the
// delta entries it sees copied out, and a patch image of the rows read
// from the undo tail. A full scan reads main's windows less the rows that
// were rewritten, then the delta's live entries, then the patch; a listed
// read (an index range, a fetch) gathers the rows ids names.
type tableScan struct {
	cols   []schema.Column
	mu     *sync.RWMutex // the table's, taken to read the delta once the caller's hold has ended
	main   *tableImage
	delta  *tableDelta
	past   map[int64]rowset.Row // slot a commit newer than the snapshot rewrote → its row as of the snapshot
	patch  *tableImage          // past's rows
	seen   int32                // the delta entries the read sees: those written before it
	listed bool
	ids    []int32 // listed: a main position, main.n + a delta entry, or ^a patch row; full: scratch
	drop   []int   // full: ascending main positions of past's slots
	at     int     // next row: an index into ids, or a main position, then main.n + a delta entry, then main.n + seen + a patch row
	sel    []int   // scratch
	run    []int32 // scratch

	// Until sealed, under the table lock: the rows read so far from the
	// undo tail, and their bookmarks.
	rows []rowset.Row
	bms  []int64
}

// noRows is the patch of a read that took no row from the undo tail.
var noRows = &tableImage{}

// full makes s a full scan: the slots the undo tail names are dropped from
// main and the delta and read as of the snapshot, in bookmark order.
func (s *tableScan) full() *tableScan {
	bms := make([]int64, 0, len(s.past))
	for bm := range s.past {
		bms = append(bms, bm)
	}
	slices.Sort(bms)
	for _, bm := range bms {
		if p := s.main.find(bm); p >= 0 {
			s.drop = append(s.drop, p)
		}
		if r := s.past[bm]; r != nil {
			s.rows, s.bms = append(s.rows, r), append(s.bms, bm)
		}
	}
	return s.seal()
}

// list makes s a listed read of up to n rows.
func (s *tableScan) list(n int) *tableScan {
	s.listed, s.ids = true, make([]int32, 0, n)
	return s
}

// add lists bookmark bm's row, reporting false if there is none.
func (s *tableScan) add(bm int64) bool {
	if r, ok := s.past[bm]; ok {
		if r == nil {
			return false
		}
		s.ids = append(s.ids, ^int32(len(s.rows)))
		s.rows, s.bms = append(s.rows, r), append(s.bms, bm)
		return true
	}
	id := int32(s.main.find(bm))
	if e, ok := s.delta.entry(bm); ok {
		id = int32(s.main.n) + e
		if s.delta.next[e] != current {
			id = -1
		}
	}
	if id < 0 {
		return false
	}
	s.ids = append(s.ids, id)
	return true
}

// seal types the rows read from the undo tail into the patch.
func (s *tableScan) seal() *tableScan {
	s.patch = noRows
	if len(s.rows) > 0 {
		s.patch = newImage(s.cols, s.rows, s.bms)
	}
	s.rows, s.bms = nil, nil
	return s
}

// outlive hands the read the table's lock mu, which it takes again to
// read the delta after the caller lets go of it.
func (s *tableScan) outlive(mu *sync.RWMutex) *tableScan {
	s.mu = mu
	return s
}

func (s *tableScan) lock() {
	if s.mu != nil {
		s.mu.RLock()
	}
}

func (s *tableScan) unlock() {
	if s.mu != nil {
		s.mu.RUnlock()
	}
}

func (s *tableScan) Columns() []schema.Column { return s.cols }

func (s *tableScan) Close() error { return nil }

// NextBatch implements rowset.Rowset with every column of the table.
func (s *tableScan) NextBatch(b *rowset.Batch) error { return s.NextBatchProjected(b, nil) }

// NextBatchProjected implements rowset.ProjectedBatchReader with the
// columns proj names in its order (nil: all of the table's); the ordinal
// one past the table's last column is the bookmark. A full scan hands out
// read-only windows onto main, no copy, with a selection that skips the
// rows rewritten since, then copies of the delta's live entries, then
// windows onto the patch. A listed read gathers its rows into the batch's
// own columns.
func (s *tableScan) NextBatchProjected(b *rowset.Batch, proj []int) error {
	if s.listed {
		if s.at >= len(s.ids) {
			return errEOF
		}
		ids := s.ids[s.at:min(len(s.ids), s.at+b.CapRows())]
		s.at += len(ids)
		s.fillIDs(b, proj, ids)
		return nil
	}
	for s.at < s.main.n {
		off, k := s.at, min(b.CapRows(), s.main.n-s.at)
		s.at += k
		b.FillCols(s.fill(s.main, proj), proj, off, k)
		if s.keep(b, off, k) {
			return nil
		}
	}
	for end := s.main.n + int(s.seen); s.at < end; {
		s.lock()
		s.ids = s.ids[:0]
		for ; s.at < end && len(s.ids) < b.CapRows(); s.at++ {
			e := s.at - s.main.n
			if s.delta.next[e] < s.seen {
				continue
			}
			if _, ok := s.past[s.delta.rows.bookmark(e)]; !ok {
				s.ids = append(s.ids, int32(s.at))
			}
		}
		s.unlock()
		if len(s.ids) > 0 {
			s.fillIDs(b, proj, s.ids)
			return nil
		}
	}
	off := s.at - s.main.n - int(s.seen)
	if off >= s.patch.n {
		return errEOF
	}
	k := min(b.CapRows(), s.patch.n-off)
	s.at += k
	b.FillCols(s.fill(s.patch, proj), proj, off, k)
	return nil
}

// eachRow calls f with every row s reads, narrowed to the columns proj
// names (nil: all of them), and its bookmark — a batch at a time, each
// batch's rows boxed into one backing array that f may keep. The row
// readers that are not executor scans (index backfill, checkpoint) read
// the table this way.
func (s *tableScan) eachRow(proj []int, f func(r rowset.Row, bm int64)) {
	if proj == nil {
		proj = make([]int, len(s.cols))
		for j := range proj {
			proj[j] = j
		}
	}
	w := len(proj)
	proj = append(slices.Clip(proj), len(s.cols))
	for b := rowset.NewBatch(0); s.NextBatchProjected(b, proj) == nil; {
		vals := make([]sqltypes.Value, b.Len()*(w+1))
		for i := 0; i < b.Len(); i++ {
			r := b.RowAt(i, vals[i*(w+1):(i+1)*(w+1)])
			f(r[:w:w], r[w].Int())
		}
	}
}

// keep selects the rows of main's window [off, off+k), filled into b, that
// the read keeps, and reports whether there are any: it drops past's slots
// and the rows a delta entry it sees rewrote.
func (s *tableScan) keep(b *rowset.Batch, off, k int) bool {
	cut := s.run[:0]
	for ; len(s.drop) > 0 && s.drop[0] < off+k; s.drop = s.drop[1:] {
		cut = append(cut, int32(s.drop[0]))
	}
	if s.seen > 0 {
		s.lock()
		for w := off >> 6; s.delta.marks != nil && w<<6 < off+k; w++ {
			for m := s.delta.marks[w]; m != 0; m &= m - 1 {
				p := w<<6 + bits.TrailingZeros64(m)
				if p >= off && p < off+k && s.delta.gone[p] < s.seen {
					cut = append(cut, int32(p))
				}
			}
		}
		s.unlock()
	}
	if s.run = cut; len(cut) == 0 {
		return true
	}
	slices.Sort(cut)
	all, sel, from := b.Indices(), s.sel[:0], off
	for _, p := range cut {
		if p := int(p); p >= from {
			sel, from = append(sel, all[from-off:p-off]...), p+1
		}
	}
	s.sel = append(sel, all[from-off:]...)
	b.SetSelection(s.sel)
	return len(s.sel) > 0
}

// fillIDs gathers the rows ids names into b's own columns.
func (s *tableScan) fillIDs(b *rowset.Batch, proj []int, ids []int32) {
	b.Reset(len(s.cols))
	if proj != nil {
		b.Reset(len(proj))
	}
	s.lock()
	s.gather(b.Cols(), proj, ids)
	s.unlock()
	b.SetNumRows(len(ids))
}

// fill is the columns of img a fill through proj reads: the bookmark
// column only when proj names it.
func (s *tableScan) fill(img *tableImage, proj []int) []rowset.Vec {
	if proj == nil {
		return img.cols[:len(s.cols)]
	}
	return img.cols
}

// from is the image id names a row of, and the row's position in it.
func (s *tableScan) from(id int32) (*tableImage, int32) {
	switch {
	case id < 0:
		return s.patch, ^id
	case int(id) < s.main.n:
		return s.main, id
	}
	return &s.delta.rows, id - int32(s.main.n)
}

// gather appends the rows ids names to cols, the columns proj names (nil:
// the images' first len(cols)), a run of rows of one image at a time.
// Reading delta entries needs the table's lock.
func (s *tableScan) gather(cols []rowset.Vec, proj []int, ids []int32) {
	for n := 0; n < len(ids); {
		img, _ := s.from(ids[n])
		run := ids[n:]
		for k, id := range run {
			if from, _ := s.from(id); from != img {
				run = run[:k]
				break
			}
		}
		if img != s.main {
			s.run = s.run[:0]
			for _, id := range run {
				_, at := s.from(id)
				s.run = append(s.run, at)
			}
			run = s.run
		}
		for j := range cols {
			src := j
			if proj != nil {
				src = proj[j]
			}
			cols[j].Gather(n, &img.cols[src], run, false)
		}
		n += len(run)
	}
}

// Index returns the named secondary index.
func (t *Table) Index(name string) (*Index, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, ix := range t.indexes {
		if lower(ix.def.Name) == lower(name) {
			return ix, true
		}
	}
	return nil, false
}

// Indexes lists the table's indexes.
func (t *Table) Indexes() []*Index { return t.indexes }

// AddIndex creates and backfills a secondary index.
func (t *Table) AddIndex(def schema.Index) (*Index, error) {
	for _, ord := range def.Columns {
		if ord < 0 || ord >= len(t.Def().Columns) {
			return nil, fmt.Errorf("storage: %s: index ordinal %d out of range", t.Def().Name, ord)
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, ix := range t.indexes {
		if lower(ix.def.Name) == lower(def.Name) {
			return nil, fmt.Errorf("storage: %s: index %s already exists", t.Def().Name, def.Name)
		}
	}
	if t.tm != nil && t.tm.logging.Load() {
		defJSON, err := marshalIndexDef(def)
		if err != nil {
			return nil, err
		}
		if err := t.tm.logDDL(walRecord{kind: recCreateIndex, table: t.walName(), def: defJSON}); err != nil {
			return nil, err
		}
	}
	ix := &Index{def: def, table: t}
	t.readLocked(Latest).full().eachRow(def.Columns, func(key rowset.Row, bm int64) {
		ix.entries = append(ix.entries, indexEntry{key: key, bm: bm})
	})
	sort.Slice(ix.entries, func(a, b int) bool { return entryLess(ix.entries[a], ix.entries[b]) })
	t.indexes = append(t.indexes, ix)
	// The definition is replaced, never edited: a statement compiling
	// against the one it read keeps a consistent copy.
	next := *t.Def()
	next.Indexes = append(slices.Clip(next.Indexes), def)
	t.def.Store(&next)
	return ix, nil
}

func lower(s string) string {
	b := []byte(s)
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	return string(b)
}
