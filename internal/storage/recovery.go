// WAL recovery: replaying a log into an empty engine, checkpointing a
// non-empty engine into a fresh log, and resolving in-doubt (prepared but
// undecided) two-phase-commit transactions.
//
// Recovery invariants:
//
//   - A torn or corrupt frame ends the log: everything after it is
//     truncated before any record is applied.
//   - A transaction's effects apply only if its commit record is in the
//     valid prefix (presumed abort: unfinished groups vanish).
//   - A group with a prepare record but no commit/abort is in-doubt: its
//     operations are retained, its target rows are re-locked, and the
//     coordinator (or operator) resolves it with ResolveInDoubt.
//   - Insert records carry explicit bookmarks (assigned at commit for
//     prepared groups, carried on the commit record), so replay is
//     slot-exact regardless of interleaving.
package storage

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"dhqp/internal/rowset"
	"dhqp/internal/schema"
)

// RecoveryInfo summarizes what attaching a WAL did.
type RecoveryInfo struct {
	Txns         int      // committed transactions replayed
	Rows         int      // row operations applied
	Tables       int      // tables created during replay
	InDoubt      []uint64 // prepared transactions awaiting resolution
	TornBytes    int      // bytes truncated from a torn tail
	Checkpointed bool     // a non-empty engine wrote a checkpoint image
}

func marshalTableDef(def *schema.Table) ([]byte, error) {
	return json.Marshal(def)
}

func marshalIndexDef(def schema.Index) ([]byte, error) {
	return json.Marshal(def)
}

// tableCount counts tables across all databases.
func (e *Engine) tableCount() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	n := 0
	for _, db := range e.dbs {
		db.mu.RLock()
		n += len(db.tables)
		db.mu.RUnlock()
	}
	return n
}

// AttachWAL wires a log backend to the engine. An empty engine replays a
// non-empty log to the durable state (returning what was recovered); a
// non-empty engine checkpoints its current image into an empty log so the
// log is self-contained from then on. Attaching a non-empty log to a
// non-empty engine is refused — there is no way to tell whose state wins.
func (e *Engine) AttachWAL(b Backend) (*RecoveryInfo, error) {
	e.tm.mu.Lock()
	attached := e.tm.wal != nil
	e.tm.mu.Unlock()
	if attached {
		return nil, errors.New("storage: WAL already attached")
	}
	data, err := b.Contents()
	if err != nil {
		return nil, err
	}
	recs, valid := decodeLog(data)
	info := &RecoveryInfo{TornBytes: len(data) - valid}
	if info.TornBytes > 0 {
		if err := b.Truncate(int64(valid)); err != nil {
			return nil, err
		}
	}
	w := &WAL{b: b, ins: walInstr{p: &e.tm.ins}}
	switch {
	case e.tableCount() > 0 && len(recs) > 0:
		return nil, errors.New("storage: refusing to attach a non-empty WAL to a non-empty engine")
	case e.tableCount() > 0:
		if err := w.appendAll(e.checkpointRecords(), true); err != nil {
			return nil, fmt.Errorf("storage: checkpoint: %w", err)
		}
		info.Checkpointed = true
	case len(recs) > 0:
		if err := e.replay(recs, info); err != nil {
			return nil, err
		}
		if ins := e.tm.instr(); ins != nil {
			ins.Recoveries.Inc()
			ins.RecoveredTxns.Add(int64(info.Txns))
		}
	}
	// The gate waits out appends still in flight (against a log detached
	// under them or none at all) before the new log takes over.
	e.tm.walGate.Lock()
	e.tm.mu.Lock()
	e.tm.wal = w
	e.tm.walBroken = false
	e.tm.updateLoggingLocked()
	e.tm.mu.Unlock()
	e.tm.walGate.Unlock()
	return info, nil
}

// DetachWAL closes and detaches the log backend; the engine keeps running
// in memory only. In-doubt transactions keep their row locks. Commits that
// already hold the log finish their appends first.
func (e *Engine) DetachWAL() error {
	e.tm.walGate.Lock()
	defer e.tm.walGate.Unlock()
	e.tm.mu.Lock()
	w := e.tm.wal
	e.tm.wal = nil
	e.tm.updateLoggingLocked()
	e.tm.mu.Unlock()
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Close()
}

// resolveTable finds a table by its WAL identity "db.table".
func (e *Engine) resolveTable(name string) (*Table, error) {
	for i := 0; i < len(name); i++ {
		if name[i] == '.' {
			db, ok := e.Database(name[:i])
			if !ok {
				return nil, fmt.Errorf("storage: recovery: unknown database in %q", name)
			}
			t, ok := db.Table(name[i+1:])
			if !ok {
				return nil, fmt.Errorf("storage: recovery: unknown table %q", name)
			}
			return t, nil
		}
	}
	return nil, fmt.Errorf("storage: recovery: bad table name %q", name)
}

// replayGroup is the buffered record group of one logged transaction.
type replayGroup struct {
	ops      []walRecord
	prepared bool
}

// replay applies the decoded log to an empty engine. DDL records with txn
// id 0 are self-committing and apply in place; everything else applies at
// its group's commit record.
func (e *Engine) replay(recs []walRecord, info *RecoveryInfo) error {
	groups := map[uint64]*replayGroup{}
	maxTxn := uint64(0)
	group := func(id uint64) *replayGroup {
		g := groups[id]
		if g == nil {
			g = &replayGroup{}
			groups[id] = g
		}
		return g
	}
	for _, rec := range recs {
		if rec.txn > maxTxn {
			maxTxn = rec.txn
		}
		switch rec.kind {
		case recCreateDB, recCreateTable, recCreateIndex, recDropTable:
			if rec.txn != 0 {
				group(rec.txn).ops = append(group(rec.txn).ops, rec)
				continue
			}
			if err := e.applyDDL(rec, info); err != nil {
				return err
			}
		case recInsert, recUpdate, recDelete:
			group(rec.txn).ops = append(group(rec.txn).ops, rec)
		case recPrepare:
			group(rec.txn).prepared = true
		case recAbort:
			delete(groups, rec.txn)
		case recCommit:
			g, ok := groups[rec.txn]
			if !ok {
				// A commit whose group was all-DDL-at-txn-0 or empty.
				continue
			}
			if err := e.applyGroup(g, rec.bms, info); err != nil {
				return fmt.Errorf("storage: recovery: txn %d: %w", rec.txn, err)
			}
			delete(groups, rec.txn)
			info.Txns++
		}
	}
	// Unfinished groups: prepared ones become in-doubt with their locks
	// re-acquired; the rest are presumed aborted.
	var indoubt []uint64
	for id, g := range groups {
		if g.prepared {
			indoubt = append(indoubt, id)
		}
	}
	sort.Slice(indoubt, func(i, j int) bool { return indoubt[i] < indoubt[j] })
	for _, id := range indoubt {
		if err := e.restoreInDoubt(id, groups[id]); err != nil {
			return err
		}
		info.InDoubt = append(info.InDoubt, id)
	}
	e.tm.mu.Lock()
	if maxTxn > e.tm.nextTxn {
		e.tm.nextTxn = maxTxn
	}
	e.tm.mu.Unlock()
	return nil
}

// applyDDL executes one DDL record.
func (e *Engine) applyDDL(rec walRecord, info *RecoveryInfo) error {
	switch rec.kind {
	case recCreateDB:
		e.CreateDatabase(rec.table)
	case recCreateTable:
		var def schema.Table
		if err := json.Unmarshal(rec.def, &def); err != nil {
			return fmt.Errorf("storage: recovery: bad table def: %w", err)
		}
		db := e.CreateDatabase(rec.table)
		if _, err := db.CreateTable(&def); err != nil {
			return err
		}
		info.Tables++
	case recCreateIndex:
		var def schema.Index
		if err := json.Unmarshal(rec.def, &def); err != nil {
			return fmt.Errorf("storage: recovery: bad index def: %w", err)
		}
		t, err := e.resolveTable(rec.table)
		if err != nil {
			return err
		}
		if _, err := t.AddIndex(def); err != nil {
			return err
		}
	case recDropTable:
		t, err := e.resolveTable(rec.table)
		if err != nil {
			return err
		}
		db, _ := e.Database(t.db)
		return db.DropTable(t.Def().Name)
	}
	return nil
}

// applyGroup lands one committed transaction's operations. commitBms, if
// non-empty, assigns slots to the group's inserts in operation order (a
// prepared group logged its inserts before slots were known).
func (e *Engine) applyGroup(g *replayGroup, commitBms []int64, info *RecoveryInfo) error {
	e.tm.mu.Lock()
	e.tm.nextCSN++
	csn := e.tm.nextCSN
	e.tm.mu.Unlock()
	insertIdx := 0
	for _, op := range g.ops {
		switch op.kind {
		case recCreateDB, recCreateTable, recCreateIndex, recDropTable:
			if err := e.applyDDL(op, info); err != nil {
				return err
			}
			continue
		}
		t, err := e.resolveTable(op.table)
		if err != nil {
			return err
		}
		t.mu.Lock()
		bm := op.bm
		if op.kind == recInsert && bm < 0 {
			if insertIdx >= len(commitBms) {
				t.mu.Unlock()
				return fmt.Errorf("%s: insert without assigned bookmark", t.Def().Name)
			}
			bm = commitBms[insertIdx]
			insertIdx++
		}
		if live := t.liveLocked(bm); live == (op.kind == recInsert) {
			t.mu.Unlock()
			return fmt.Errorf("%s: %s of slot %d, live %v", t.Def().Name, op.kind, bm, live)
		}
		t.applyLocked(op.kind, bm, op.row, csn, false)
		t.mu.Unlock()
		info.Rows++
	}
	return nil
}

// restoreInDoubt rebuilds a prepared transaction from its logged
// operations and re-acquires its row locks.
func (e *Engine) restoreInDoubt(id uint64, g *replayGroup) error {
	tx := &Txn{eng: e, id: id, snap: Snapshot{csn: Latest}, prepared: true}
	for _, op := range g.ops {
		t, err := e.resolveTable(op.table)
		if err != nil {
			return err
		}
		if op.kind != recInsert && op.kind != recUpdate && op.kind != recDelete {
			return fmt.Errorf("storage: recovery: txn %d: unexpected %s record in prepared group", id, op.kind)
		}
		tx.ops = append(tx.ops, txnOp{kind: op.kind, table: t, bm: op.bm, row: op.row})
	}
	for _, tbl := range tx.tables() {
		tbl.mu.Lock()
	}
	tx.lockRowsLocked()
	tbls := tx.tables()
	for i := len(tbls) - 1; i >= 0; i-- {
		tbls[i].mu.Unlock()
	}
	e.tm.mu.Lock()
	e.tm.indoubt[id] = tx
	e.tm.mu.Unlock()
	return nil
}

// InDoubt lists recovered prepared transactions awaiting resolution, in
// ascending id order.
func (e *Engine) InDoubt() []uint64 {
	e.tm.mu.Lock()
	defer e.tm.mu.Unlock()
	out := make([]uint64, 0, len(e.tm.indoubt))
	for id := range e.tm.indoubt {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ResolveInDoubt decides a recovered prepared transaction: commit applies
// its operations (logging the commit with the slots it assigned), abort
// discards them; either way its row locks are released.
func (e *Engine) ResolveInDoubt(id uint64, commit bool) error {
	e.tm.mu.Lock()
	tx := e.tm.indoubt[id]
	delete(e.tm.indoubt, id)
	e.tm.mu.Unlock()
	if tx == nil {
		return fmt.Errorf("storage: no in-doubt transaction %d", id)
	}
	if commit {
		return tx.Commit()
	}
	return tx.Abort()
}

// checkpointRecords renders the engine's full current image — DDL plus
// every live row at its exact slot — as one committed transaction, making
// a freshly attached log self-contained.
func (e *Engine) checkpointRecords() []walRecord {
	txn := e.tm.autoTxnID()
	var recs []walRecord
	for _, dbName := range e.Databases() {
		db, _ := e.Database(dbName)
		recs = append(recs, walRecord{kind: recCreateDB, txn: txn, table: dbName})
		for _, tn := range db.Tables() {
			t, _ := db.Table(tn)
			defJSON, err := marshalTableDef(t.Def())
			if err != nil {
				continue
			}
			recs = append(recs, walRecord{kind: recCreateTable, txn: txn, table: dbName, def: defJSON})
			t.mu.RLock()
			t.readLocked(Latest).full().eachRow(nil, func(r rowset.Row, bm int64) {
				recs = append(recs, walRecord{kind: recInsert, txn: txn, table: t.walName(), bm: bm, row: r})
			})
			t.mu.RUnlock()
		}
	}
	return append(recs, walRecord{kind: recCommit, txn: txn})
}
