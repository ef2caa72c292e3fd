// Package storage implements the local storage engine: in-memory heap tables
// with ordered secondary indexes supporting ISAM-style navigation — full
// scans, key-range scans (seek/set-range) and bookmark-based row fetch —
// exactly the access paths the paper's remote scan / remote range / remote
// fetch rules target (§3.2.2, §4.1.2).
//
// The engine is deliberately simple (single-version, coarse table locks): the
// paper's contribution is the query processor above it, and the storage
// engine's job here is to expose realistic access-path cost asymmetries and
// to be shared verbatim by the local server and every simulated remote
// server.
package storage

import (
	"fmt"
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
	t := &Table{db: d.name, tm: d.txns()}
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

// Table is a heap of rows plus its secondary indexes. Bookmarks are stable
// row slots; deleted slots hold nil and are skipped by scans (a tombstone
// model that keeps bookmarks valid for the life of the table, which the
// remote-fetch path relies on).
type Table struct {
	mu      sync.RWMutex
	def     atomic.Pointer[schema.Table] // replaced whole by AddIndex
	db      string                       // owning database name (WAL identity, lock order)
	tm      *TxnManager                  // owning engine's transaction manager (nil in bare fixtures)
	rows    []rowset.Row                 // slot = bookmark; nil = deleted
	csns    []uint64                     // per-slot CSN of the commit that last wrote it
	live    int
	version int64 // bumped by every successful Insert/Delete/Update; invalidates img
	indexes []*Index

	// undo[undoHead:] holds before-images of rows overwritten while a
	// snapshot (or an in-flight multi-op commit) could still need them,
	// in ascending CSN order; snapshot scans roll the current image back
	// by replaying the tail in reverse. Guarded by mu.
	undo     []undoRec
	undoHead int

	// locks maps bookmarks write-locked by prepared (in-doubt)
	// transactions to the owning transaction id. Guarded by mu.
	locks map[int64]uint64

	// img caches the table's columnar image — one full-length typed Vec
	// per column — keyed by the version it was built from. An image is
	// immutable once built: batch scans hand out read-only windows onto
	// its vectors, and DML replaces it (by bumping version) rather than
	// writing into it. Atomic: ScanAt probes it under mu, nesting no lock.
	img atomic.Pointer[tableImage]
}

// tableImage is a columnar snapshot of live rows — a table's, or an index
// range's: column j of live row i is cols[j] element i, and the INT column
// after the table's last holds that row's bookmark.
type tableImage struct {
	version int64
	n       int
	cols    []rowset.Vec
}

// newImage builds the image of rows. Without bms, rows is a copied slot
// array: slot i holds bookmark i's row, nil where deleted. With bms, rows
// are live and bms[i] is row i's bookmark. Rows are typed to the table's
// declared kinds, which Insert coerces every stored value to.
func newImage(cols []schema.Column, rows []rowset.Row, bms []int64) *tableImage {
	if bms == nil {
		live := make([]rowset.Row, 0, len(rows))
		for slot, r := range rows {
			if r != nil {
				live = append(live, r)
				bms = append(bms, int64(slot))
			}
		}
		rows = live
	}
	img := &tableImage{n: len(rows), cols: make([]rowset.Vec, len(cols)+1)}
	for j, c := range cols {
		img.cols[j] = rowset.BuildColVec(c.Kind, rows, j)
	}
	bm := &img.cols[len(cols)]
	bm.ResetTyped(sqltypes.KindInt, len(bms))
	copy(bm.Int64s(), bms)
	return img
}

// bookmark returns live row i's bookmark.
func (img *tableImage) bookmark(i int) int64 { return img.cols[len(img.cols)-1].Int64s()[i] }

// imageFor returns the columnar image matching version, building it from
// the scan snapshot when the cached one is stale. snap rows are immutable
// once stored, so the build needs no table lock. The build is cached only
// if no newer image has been installed meanwhile: a slow build of an old
// version must not evict the image current scans read.
func (t *Table) imageFor(version int64, snap []rowset.Row) *tableImage {
	if img := t.img.Load(); img != nil && img.version == version {
		return img
	}
	img := newImage(t.Def().Columns, snap, nil)
	img.version = version
	for cur := t.img.Load(); cur == nil || cur.version < version; cur = t.img.Load() {
		if t.img.CompareAndSwap(cur, img) {
			break
		}
	}
	return img
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
// lock conflict, WAL failure) leaves it — and the cached columnar image
// it keys — untouched.
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

// logAutoLocked write-ahead-logs a single-operation autocommit write
// (operation record + commit record, one fsync under DurabilityFull).
// Caller holds t.mu; on error nothing has been applied.
func (t *Table) logAutoLocked(kind recKind, bm int64, row rowset.Row) error {
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
	return nil
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
	bm := int64(len(t.rows))
	if t.tm != nil {
		if t.tm.logging.Load() {
			if err := t.logAutoLocked(recInsert, bm, stored); err != nil {
				return 0, err
			}
		}
		csn, needUndo := t.tm.allocAuto()
		t.insertAtLocked(bm, stored, csn, needUndo)
	} else {
		t.insertAtLocked(bm, stored, 0, false)
	}
	return bm, nil
}

// Delete removes the row at the given bookmark.
func (t *Table) Delete(bm int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if bm < 0 || bm >= int64(len(t.rows)) || t.rows[bm] == nil {
		return fmt.Errorf("storage: %s: bad bookmark %d", t.Def().Name, bm)
	}
	if _, locked := t.locks[bm]; locked {
		return fmt.Errorf("%w: %s bookmark %d", ErrRowLocked, t.Def().Name, bm)
	}
	if t.tm != nil {
		if t.tm.logging.Load() {
			if err := t.logAutoLocked(recDelete, bm, nil); err != nil {
				return err
			}
		}
		csn, needUndo := t.tm.allocAuto()
		t.deleteLockedMVCC(bm, csn, needUndo)
	} else {
		t.deleteLockedMVCC(bm, 0, false)
	}
	return nil
}

// Update replaces the row at the bookmark.
func (t *Table) Update(bm int64, r rowset.Row) error {
	if len(r) != len(t.Def().Columns) {
		return fmt.Errorf("storage: %s: row has %d values, want %d", t.Def().Name, len(r), len(t.Def().Columns))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if bm < 0 || bm >= int64(len(t.rows)) || t.rows[bm] == nil {
		return fmt.Errorf("storage: %s: bad bookmark %d", t.Def().Name, bm)
	}
	if _, locked := t.locks[bm]; locked {
		return fmt.Errorf("%w: %s bookmark %d", ErrRowLocked, t.Def().Name, bm)
	}
	stored := r.Clone()
	if t.tm != nil {
		if t.tm.logging.Load() {
			if err := t.logAutoLocked(recUpdate, bm, stored); err != nil {
				return err
			}
		}
		csn, needUndo := t.tm.allocAuto()
		t.updateLocked(bm, stored, csn, needUndo)
	} else {
		t.updateLocked(bm, stored, 0, false)
	}
	return nil
}

// insertAtLocked lands a validated row at an explicit slot, extending the
// heap with tombstones if the slot is beyond the end (recovery replays
// bookmark-exact inserts). Caller holds t.mu.
func (t *Table) insertAtLocked(bm int64, stored rowset.Row, csn uint64, needUndo bool) {
	for int64(len(t.rows)) <= bm {
		t.rows = append(t.rows, nil)
		t.csns = append(t.csns, 0)
	}
	t.version++
	t.noteUndoLocked(bm, csn, nil, needUndo)
	t.rows[bm] = stored
	t.csns[bm] = csn
	t.live++
	for _, ix := range t.indexes {
		ix.insertLocked(stored, bm)
	}
}

// updateLocked replaces the row at a valid slot. An index whose key columns
// did not change keeps its entry where it is: moving it would cost two
// shifts of the sorted entry slice per index, on the live path and again on
// every replayed record. Caller holds t.mu.
func (t *Table) updateLocked(bm int64, stored rowset.Row, csn uint64, needUndo bool) {
	t.version++
	old := t.rows[bm]
	t.noteUndoLocked(bm, csn, old, needUndo)
	t.rows[bm] = stored
	t.csns[bm] = csn
	for _, ix := range t.indexes {
		if !ix.sameKey(old, stored) {
			ix.deleteLocked(old, bm)
			ix.insertLocked(stored, bm)
		}
	}
}

// deleteLockedMVCC tombstones the row at a valid slot. Caller holds t.mu.
func (t *Table) deleteLockedMVCC(bm int64, csn uint64, needUndo bool) {
	t.version++
	old := t.rows[bm]
	t.noteUndoLocked(bm, csn, old, needUndo)
	t.rows[bm] = nil
	t.csns[bm] = csn
	t.live--
	for _, ix := range t.indexes {
		ix.deleteLocked(old, bm)
	}
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

// rollbackLocked rewinds the copied rows image to snapshot csn by
// replaying before-images of newer commits, newest first. It reports
// whether anything changed. Caller holds t.mu (read or write).
func (t *Table) rollbackLocked(rows []rowset.Row, csn uint64) bool {
	rolled := false
	for i := len(t.undo) - 1; i >= t.undoHead && t.undo[i].csn > csn; i-- {
		rec := t.undo[i]
		if int(rec.bm) < len(rows) {
			rows[rec.bm] = rec.row
			rolled = true
		}
	}
	return rolled
}

// Fetch returns the row at a bookmark (the IRowsetLocate path).
func (t *Table) Fetch(bm int64) (rowset.Row, error) {
	return t.FetchAt(bm, Latest)
}

// FetchAt returns the row at a bookmark as of snapshot csn.
func (t *Table) FetchAt(bm int64, csn uint64) (rowset.Row, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if bm < 0 || bm >= int64(len(t.rows)) {
		return nil, fmt.Errorf("storage: %s: bad bookmark %d", t.Def().Name, bm)
	}
	row := t.rows[bm]
	if csn != Latest {
		for i := len(t.undo) - 1; i >= t.undoHead && t.undo[i].csn > csn; i-- {
			if t.undo[i].bm == bm {
				row = t.undo[i].row
			}
		}
	}
	if row == nil {
		return nil, fmt.Errorf("storage: %s: bad bookmark %d", t.Def().Name, bm)
	}
	return row, nil
}

// Scan returns a full-table rowset snapshot at the latest state. The
// rowset carries bookmarks.
func (t *Table) Scan() rowset.Bookmarked { return t.ScanAt(Latest) }

// ScanAt returns a full-table rowset as of snapshot csn. When nothing
// newer than csn has committed and the cached columnar image is current,
// the scan reads that image in place and copies nothing. Otherwise it
// copies the slot array, which the first read turns into an image: the
// table's cached one, or — for a snapshot rewound through the undo tail,
// which the cache (holding only the latest version) does not serve — the
// scan's own.
func (t *Table) ScanAt(csn uint64) rowset.Bookmarked {
	t.mu.RLock()
	defer t.mu.RUnlock()
	s := &tableScan{cols: t.Def().Columns, pos: -1}
	current := csn == Latest || len(t.undo) == t.undoHead || t.undo[len(t.undo)-1].csn <= csn
	if img := t.img.Load(); current && img != nil && img.version == t.version {
		s.img = img
		return s
	}
	// Snapshot slot references; rows are immutable once stored.
	s.rows = slices.Clone(t.rows)
	if current || !t.rollbackLocked(s.rows, csn) {
		s.table, s.version = t, t.version
	}
	return s
}

// tableScan reads a columnar image: the table's, or one the first read
// builds from the rows ScanAt or an index range collected.
type tableScan struct {
	cols []schema.Column
	img  *tableImage
	ipos int // live-row cursor into img
	pos  int // bookmark of the row last returned

	// Until the first read: the rows to build img from (see newImage).
	rows    []rowset.Row
	bms     []int64
	table   *Table // set when the image is the table's at version
	version int64
}

func (s *tableScan) Columns() []schema.Column { return s.cols }

// image returns the image the scan reads, building it on first use.
func (s *tableScan) image() *tableImage {
	if s.img == nil {
		if s.table != nil {
			s.img = s.table.imageFor(s.version, s.rows)
		} else {
			s.img = newImage(s.cols, s.rows, s.bms)
		}
		s.rows, s.bms = nil, nil
	}
	return s.img
}

// Next returns the next live row, boxed from the image (the row readers
// are cold).
func (s *tableScan) Next() (rowset.Row, error) {
	img := s.image()
	if s.ipos >= img.n {
		return nil, errEOF
	}
	r := make(rowset.Row, len(s.cols))
	for j := range r {
		r[j] = img.cols[j].Value(s.ipos)
	}
	s.pos = int(img.bookmark(s.ipos))
	s.ipos++
	return r, nil
}

func (s *tableScan) Close() error {
	s.rows, s.bms, s.img = nil, nil, nil
	return nil
}

// NextBatch implements rowset.BatchReader: the vectorized scan path fills
// a whole column batch per call instead of paying an interface call per
// row.
func (s *tableScan) NextBatch(b *rowset.Batch) error { return s.NextBatchProjected(b, nil) }

// NextBatchProjected implements rowset.ProjectedBatchReader: each batch is
// read-only windows onto the image, no copy, of the columns proj names in
// its order (nil: all of the table's). The ordinal one past the table's
// last column is the bookmark.
func (s *tableScan) NextBatchProjected(b *rowset.Batch, proj []int) error {
	img := s.image()
	if s.ipos >= img.n {
		return errEOF
	}
	k := min(b.CapRows(), img.n-s.ipos)
	cols := img.cols
	if proj == nil {
		cols = cols[:len(s.cols)]
	}
	b.FillCols(cols, proj, s.ipos, k)
	s.ipos += k
	s.pos = int(img.bookmark(s.ipos - 1))
	return nil
}

// Bookmark implements rowset.Bookmarked.
func (s *tableScan) Bookmark() int64 { return int64(s.pos) }

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
	for bm, r := range t.rows {
		if r != nil {
			ix.insertLocked(r, int64(bm))
		}
	}
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
