// Multi-version concurrency control: snapshot isolation over the tables.
// Every committed write carries a commit sequence number (CSN); readers
// pin a snapshot CSN and read each row a newer commit rewrote from the
// per-table undo records (Table.readLocked), so concurrent sessions read a
// consistent state while DML commits. Writers follow first-writer-wins: a
// transaction that tries to update or delete a row some other transaction
// committed after its snapshot aborts with ErrWriteConflict.
//
// A read with nothing newer than its snapshot walks no undo record: it reads
// main in place and the delta's rows. Undo records are appended only while
// a snapshot or an in-flight multi-operation commit could still need them,
// are pruned as soon as the GC horizon passes them, and survive merges: a
// snapshot older than main reads the rows rewritten since from them.
package storage

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dhqp/internal/metrics"
	"dhqp/internal/rowset"
)

// Latest is the snapshot CSN sentinel meaning "read the current state".
const Latest = ^uint64(0)

// ErrWriteConflict reports first-writer-wins: the row was modified by a
// transaction that committed after this transaction's snapshot.
var ErrWriteConflict = errors.New("storage: write conflict (row modified since snapshot)")

// ErrRowLocked reports a row write-locked by a prepared (in-doubt)
// transaction awaiting its coordinator's decision.
var ErrRowLocked = errors.New("storage: row locked by a prepared transaction")

// ErrWALBroken poisons the engine after a WAL write or fsync failure:
// durable writes are rejected rather than silently diverging from the log.
var ErrWALBroken = errors.New("storage: WAL failed; durable writes disabled")

// Durability selects how much the commit path pays for persistence.
type Durability int

// Durability levels.
const (
	// DurabilityFull logs every commit and fsyncs before acknowledging it
	// (the default when a WAL is attached).
	DurabilityFull Durability = iota
	// DurabilityAsync logs commits without fsync: the OS may lose a suffix
	// of acknowledged commits on a crash, but recovery still sees a prefix.
	DurabilityAsync
	// DurabilityOff skips logging entirely (the in-memory fast path).
	DurabilityOff
)

// String names the durability level.
func (d Durability) String() string {
	switch d {
	case DurabilityFull:
		return "full"
	case DurabilityAsync:
		return "async"
	default:
		return "off"
	}
}

// undoRec is one superseded row version: the before-image of slot bm as it
// was just before the commit at csn. A nil row means the slot did not exist
// (the commit at csn inserted it).
type undoRec struct {
	bm  int64
	csn uint64
	row rowset.Row
}

// TxnManager owns commit sequencing, snapshot registration, prepared-row
// locks' transaction identity, and the attached WAL. One per Engine.
type TxnManager struct {
	mu      sync.Mutex
	nextCSN uint64          // last allocated CSN
	pending map[uint64]bool // multi-op commits allocated but not yet applied
	snaps   map[uint64]uint64
	nextSnp uint64
	nextTxn uint64

	// commitMu serializes multi-operation commits and prepares (single-row
	// autocommit writes only take the table lock).
	commitMu sync.Mutex

	wal        *WAL
	durability Durability
	walBroken  bool
	// walGate is held shared by every append from choosing the log
	// through writing it (appendLog) and exclusively by DetachWAL and
	// AttachWAL while they swap it: a swap waits for the commits that
	// already hold the log instead of closing the file under them.
	walGate sync.RWMutex

	// logging is the fast-path gate: true iff a WAL is attached, the
	// durability level is not Off, and the WAL has not failed. Autocommit
	// writes check it with one atomic load before touching appendLog.
	logging atomic.Bool

	// indoubt holds transactions recovered in the prepared state, awaiting
	// ResolveInDoubt; their row locks are held until resolution.
	indoubt map[uint64]*Txn

	// ins is the engine's metric instrumentation bundle (nil when
	// uninstrumented); hot paths load it once per operation.
	ins atomic.Pointer[Instrumentation]
}

// updateLoggingLocked recomputes the fast-path logging gate; caller holds
// tm.mu. A broken WAL keeps the gate up on purpose: writes must route
// through appendLog and fail with ErrWALBroken rather than silently landing
// in memory unlogged.
func (tm *TxnManager) updateLoggingLocked() {
	tm.logging.Store(tm.wal != nil && tm.durability != DurabilityOff)
}

// autoTxnID allocates a transaction id for a single-operation autocommit
// write's log group.
func (tm *TxnManager) autoTxnID() uint64 {
	tm.mu.Lock()
	tm.nextTxn++
	id := tm.nextTxn
	tm.mu.Unlock()
	return id
}

// logDDL appends one self-committing DDL record (and fsyncs under
// DurabilityFull). A failure poisons durable writes.
func (tm *TxnManager) logDDL(rec walRecord) error {
	if !tm.logging.Load() {
		return nil
	}
	if err := tm.appendLog(func() []walRecord { return []walRecord{rec} }); err != nil {
		return fmt.Errorf("storage: WAL append: %w", err)
	}
	return nil
}

func newTxnManager() *TxnManager {
	return &TxnManager{
		pending: map[uint64]bool{},
		snaps:   map[uint64]uint64{},
		indoubt: map[uint64]*Txn{},
	}
}

// allocAuto assigns the CSN for a single-table autocommit write. The caller
// holds that table's lock through apply, so the CSN is immediately stable:
// any snapshot acquired at or above it blocks on the table lock until the
// write lands. needUndo reports whether a live snapshot or an in-flight
// multi-op commit could still read below the new CSN.
func (tm *TxnManager) allocAuto() (csn uint64, needUndo bool) {
	tm.mu.Lock()
	tm.nextCSN++
	csn = tm.nextCSN
	needUndo = len(tm.snaps) > 0 || len(tm.pending) > 0
	tm.mu.Unlock()
	return csn, needUndo
}

// allocPending assigns a CSN for a multi-operation commit and registers it
// as in flight: snapshots acquired before complete() stay below it.
func (tm *TxnManager) allocPending() uint64 {
	tm.mu.Lock()
	tm.nextCSN++
	csn := tm.nextCSN
	tm.pending[csn] = true
	tm.mu.Unlock()
	return csn
}

// complete marks a pending commit fully applied.
func (tm *TxnManager) complete(csn uint64) {
	tm.mu.Lock()
	delete(tm.pending, csn)
	tm.mu.Unlock()
}

// stableLocked is the highest CSN all of whose predecessors are fully
// applied; snapshots are taken here. Caller holds tm.mu.
func (tm *TxnManager) stableLocked() uint64 {
	s := tm.nextCSN
	for csn := range tm.pending {
		if csn-1 < s {
			s = csn - 1
		}
	}
	return s
}

// horizon is the GC floor: undo records at or below it can never be read
// by any current or future snapshot.
func (tm *TxnManager) horizon() uint64 {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	h := tm.stableLocked()
	for _, csn := range tm.snaps {
		if csn < h {
			h = csn
		}
	}
	return h
}

// Snapshot is a pinned read position. Readers holding one see exactly the
// state produced by commits at or below CSN. Release it when done — an
// unreleased snapshot pins undo records engine-wide.
type Snapshot struct {
	tm  *TxnManager
	id  uint64
	csn uint64
}

// CSN reports the pinned commit sequence number.
func (s Snapshot) CSN() uint64 { return s.csn }

// Release unpins the snapshot (idempotent; the zero Snapshot is a no-op).
func (s Snapshot) Release() {
	if s.tm == nil {
		return
	}
	s.tm.mu.Lock()
	delete(s.tm.snaps, s.id)
	s.tm.mu.Unlock()
}

// AcquireSnapshot pins the current stable state for reading. Every
// statement of the query engine runs under one, which is what makes a
// multi-table SELECT see one consistent CSN while writers commit.
func (e *Engine) AcquireSnapshot() Snapshot {
	tm := e.tm
	tm.mu.Lock()
	tm.nextSnp++
	id := tm.nextSnp
	csn := tm.stableLocked()
	tm.snaps[id] = csn
	tm.mu.Unlock()
	return Snapshot{tm: tm, id: id, csn: csn}
}

// SetDurability selects the commit durability level (effective only while
// a WAL is attached).
func (e *Engine) SetDurability(d Durability) {
	e.tm.mu.Lock()
	e.tm.durability = d
	e.tm.updateLoggingLocked()
	e.tm.mu.Unlock()
}

// Durability reports the configured durability level.
func (e *Engine) Durability() Durability {
	e.tm.mu.Lock()
	defer e.tm.mu.Unlock()
	return e.tm.durability
}

// appendLog write-ahead-logs the records recs builds (called only when a
// log is attached and durability is not Off), fsyncing under
// DurabilityFull. It holds walGate shared throughout, so the log it chose
// is the log it writes. ErrWALBroken comes back as is; a failed append
// poisons durable writes and comes back as the append's error.
func (tm *TxnManager) appendLog(recs func() []walRecord) error {
	tm.walGate.RLock()
	defer tm.walGate.RUnlock()
	tm.mu.Lock()
	w, broken, sync := tm.wal, tm.walBroken, tm.durability == DurabilityFull
	off := w == nil || tm.durability == DurabilityOff
	tm.mu.Unlock()
	switch {
	case broken:
		return ErrWALBroken
	case off:
		return nil
	}
	if err := w.appendAll(recs(), sync); err != nil {
		tm.breakWAL()
		return err
	}
	return nil
}

// breakWAL poisons durable writes after a log failure.
func (tm *TxnManager) breakWAL() {
	tm.mu.Lock()
	tm.walBroken = true
	tm.updateLoggingLocked()
	tm.mu.Unlock()
}

// --- transactions ------------------------------------------------------

// txnOp is one buffered write. For inserts, bm is assigned at commit.
type txnOp struct {
	kind  recKind // recInsert, recUpdate or recDelete
	table *Table
	bm    int64
	row   rowset.Row
}

// Txn is one storage transaction: buffered writes against a pinned
// snapshot, committed atomically with first-writer-wins conflict
// detection. Reads during the transaction go through the snapshot
// (Txn.SnapshotCSN); buffered writes become visible only at Commit.
type Txn struct {
	eng      *Engine
	id       uint64
	snap     Snapshot
	ops      []txnOp
	prepared bool
	done     bool
}

// Begin starts a transaction pinned at the current stable snapshot.
func (e *Engine) Begin() *Txn {
	e.tm.mu.Lock()
	e.tm.nextTxn++
	id := e.tm.nextTxn
	e.tm.mu.Unlock()
	return &Txn{eng: e, id: id, snap: e.AcquireSnapshot()}
}

// ID reports the transaction identifier (stable across WAL recovery).
func (t *Txn) ID() uint64 { return t.id }

// SnapshotCSN reports the transaction's read snapshot.
func (t *Txn) SnapshotCSN() uint64 { return t.snap.csn }

// Insert buffers a row insert. Validation (arity, nullability, coercion)
// happens now so the statement fails fast; the row lands at Commit.
func (t *Txn) Insert(tbl *Table, r rowset.Row) error {
	if t.done {
		return fmt.Errorf("storage: txn %d already finished", t.id)
	}
	stored, err := tbl.validateRow(r)
	if err != nil {
		return err
	}
	t.ops = append(t.ops, txnOp{kind: recInsert, table: tbl, bm: -1, row: stored})
	return nil
}

// Update buffers a row replacement by bookmark.
func (t *Txn) Update(tbl *Table, bm int64, r rowset.Row) error {
	if t.done {
		return fmt.Errorf("storage: txn %d already finished", t.id)
	}
	if len(r) != len(tbl.Def().Columns) {
		return fmt.Errorf("storage: %s: row has %d values, want %d", tbl.Def().Name, len(r), len(tbl.Def().Columns))
	}
	t.ops = append(t.ops, txnOp{kind: recUpdate, table: tbl, bm: bm, row: r.Clone()})
	return nil
}

// Delete buffers a row deletion by bookmark.
func (t *Txn) Delete(tbl *Table, bm int64) error {
	if t.done {
		return fmt.Errorf("storage: txn %d already finished", t.id)
	}
	t.ops = append(t.ops, txnOp{kind: recDelete, table: tbl, bm: bm})
	return nil
}

// tables returns the distinct tables the transaction touches, in a
// deterministic lock order (by name) so concurrent commits cannot deadlock.
func (t *Txn) tables() []*Table {
	seen := map[*Table]bool{}
	var out []*Table
	for _, op := range t.ops {
		if !seen[op.table] {
			seen[op.table] = true
			out = append(out, op.table)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].lockName() < out[j-1].lockName(); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// validateLocked checks every update/delete against first-writer-wins and
// prepared-row locks. Caller holds every touched table's lock.
func (t *Txn) validateLocked() error {
	for _, op := range t.ops {
		if op.kind == recInsert {
			continue
		}
		tbl := op.table
		if op.bm < 0 || op.bm >= int64(len(tbl.csns)) {
			return fmt.Errorf("storage: %s: bad bookmark %d", tbl.Def().Name, op.bm)
		}
		if owner, locked := tbl.locks[op.bm]; locked && owner != t.id {
			if ins := t.eng.tm.instr(); ins != nil {
				ins.RowLockWaits.Inc()
				ins.Waits.Record(metrics.WaitRowLock, 0)
			}
			return fmt.Errorf("%w: %s bookmark %d", ErrRowLocked, tbl.Def().Name, op.bm)
		}
		if tbl.csns[op.bm] > t.snap.csn {
			if ins := t.eng.tm.instr(); ins != nil {
				ins.WriteConflicts.Inc()
			}
			return fmt.Errorf("%w: %s bookmark %d", ErrWriteConflict, tbl.Def().Name, op.bm)
		}
		if !tbl.liveLocked(op.bm) {
			return fmt.Errorf("storage: %s: bad bookmark %d", tbl.Def().Name, op.bm)
		}
	}
	return nil
}

// lockRowsLocked write-locks every updated/deleted bookmark for a prepared
// transaction; caller holds the table locks and has validated.
func (t *Txn) lockRowsLocked() {
	for _, op := range t.ops {
		if op.kind == recInsert {
			continue
		}
		if op.table.locks == nil {
			op.table.locks = map[int64]uint64{}
		}
		op.table.locks[op.bm] = t.id
	}
}

// unlockRows releases the transaction's prepared-row locks.
func (t *Txn) unlockRows() {
	for _, op := range t.ops {
		if op.kind == recInsert {
			continue
		}
		op.table.mu.Lock()
		if op.table.locks[op.bm] == t.id {
			delete(op.table.locks, op.bm)
		}
		op.table.mu.Unlock()
	}
}

// assignBookmarksLocked precomputes the slot of every buffered insert
// (needed before logging: WAL insert records carry explicit bookmarks so
// recovery is slot-exact). Caller holds the table locks.
func (t *Txn) assignBookmarksLocked() {
	next := map[*Table]int64{}
	for i := range t.ops {
		op := &t.ops[i]
		if op.kind != recInsert {
			continue
		}
		n, ok := next[op.table]
		if !ok {
			n = int64(len(op.table.csns))
		}
		op.bm = n
		next[op.table] = n + 1
	}
}

// Prepare is phase one of two-phase commit: it validates conflicts, locks
// the written rows, and (when durable) logs the operations plus a prepare
// record and fsyncs. After Prepare returns nil the transaction survives a
// crash as in-doubt and can be committed or aborted after recovery.
func (t *Txn) Prepare() error {
	if t.done {
		return fmt.Errorf("storage: txn %d already finished", t.id)
	}
	if t.prepared {
		return nil
	}
	tm := t.eng.tm
	tm.commitMu.Lock()
	defer tm.commitMu.Unlock()
	tables := t.tables()
	for _, tbl := range tables {
		tbl.mu.Lock()
	}
	err := t.validateLocked()
	if err == nil {
		t.lockRowsLocked()
	}
	for i := len(tables) - 1; i >= 0; i-- {
		tables[i].mu.Unlock()
	}
	if err != nil {
		t.finish()
		return err
	}
	t.prepared = true
	err = tm.appendLog(func() []walRecord {
		return append(t.opRecords(true), walRecord{kind: recPrepare, txn: t.id})
	})
	if err != nil {
		t.rollbackPrepare()
		return fmt.Errorf("storage: txn %d prepare: %w", t.id, err)
	}
	return nil
}

// rollbackPrepare undoes a prepare that failed at the logging step.
func (t *Txn) rollbackPrepare() {
	t.unlockRows()
	t.prepared = false
	t.finish()
}

// opRecords renders the buffered operations as WAL records. When forPrepare
// is set, insert bookmarks are still unassigned (-1 in the record); the
// matching commit record carries the assigned slots.
func (t *Txn) opRecords(forPrepare bool) []walRecord {
	recs := make([]walRecord, 0, len(t.ops)+1)
	for _, op := range t.ops {
		r := walRecord{kind: op.kind, txn: t.id, table: op.table.walName(), bm: op.bm, row: op.row}
		if op.kind == recInsert && forPrepare {
			r.bm = -1
		}
		recs = append(recs, r)
	}
	return recs
}

// insertBookmarks lists the assigned slot of every buffered insert in
// operation order (the commit record of a prepared transaction carries
// them for recovery).
func (t *Txn) insertBookmarks() []int64 {
	var bms []int64
	for _, op := range t.ops {
		if op.kind == recInsert {
			bms = append(bms, op.bm)
		}
	}
	return bms
}

// Commit atomically applies the buffered writes: conflict validation (if
// not already prepared), write-ahead logging with fsync, then the in-memory
// apply under every touched table's lock. On any error nothing is applied.
func (t *Txn) Commit() error {
	if t.done {
		return fmt.Errorf("storage: txn %d already finished", t.id)
	}
	tm := t.eng.tm
	ins := tm.instr()
	start := time.Now()
	tm.commitMu.Lock()
	defer tm.commitMu.Unlock()
	tables := t.tables()
	for _, tbl := range tables {
		tbl.mu.Lock()
	}
	if ins != nil {
		// Time spent blocked behind concurrent committers' locks is the
		// row/table-lock wait; the commit's own work is timed separately.
		if d := time.Since(start); d > 0 {
			ins.Waits.Record(metrics.WaitRowLock, d)
		}
		defer ins.CommitSeconds.ObserveSince(start)
	}
	unlock := func() {
		for i := len(tables) - 1; i >= 0; i-- {
			tables[i].mu.Unlock()
		}
	}
	if !t.prepared {
		if err := t.validateLocked(); err != nil {
			unlock()
			t.finish()
			return err
		}
	}
	t.assignBookmarksLocked()
	// Log before apply: if the log fails the table is untouched.
	err := tm.appendLog(func() []walRecord {
		if t.prepared {
			// Operations are already logged; the commit record resolves the
			// in-doubt state and pins the insert slots.
			return []walRecord{{kind: recCommit, txn: t.id, bms: t.insertBookmarks()}}
		}
		return append(t.opRecords(false), walRecord{kind: recCommit, txn: t.id})
	})
	if err != nil {
		unlock()
		t.abortLocked()
		return fmt.Errorf("storage: txn %d commit: %w", t.id, err)
	}
	csn := tm.allocPending()
	for _, op := range t.ops {
		op.table.applyLocked(op.kind, op.bm, op.row, csn, true)
	}
	if t.prepared {
		for _, op := range t.ops {
			if op.kind != recInsert && op.table.locks[op.bm] == t.id {
				delete(op.table.locks, op.bm)
			}
		}
	}
	unlock()
	tm.complete(csn)
	t.finish()
	return nil
}

// Abort discards the buffered writes, releasing any prepared locks and
// logging the abort so recovery does not leave the transaction in doubt.
func (t *Txn) Abort() error {
	if t.done {
		return nil
	}
	return t.abortLocked()
}

func (t *Txn) abortLocked() error {
	if t.prepared {
		t.unlockRows()
		_ = t.eng.tm.appendLog(func() []walRecord { return []walRecord{{kind: recAbort, txn: t.id}} })
	}
	t.finish()
	return nil
}

// finish releases the snapshot and marks the transaction done.
func (t *Txn) finish() {
	if !t.done {
		t.done = true
		t.snap.Release()
	}
}
