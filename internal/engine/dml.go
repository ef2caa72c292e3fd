package engine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync/atomic"

	"dhqp/internal/algebra"
	"dhqp/internal/binder"
	"dhqp/internal/constraint"
	"dhqp/internal/decoder"
	"dhqp/internal/dtc"
	"dhqp/internal/exec"
	"dhqp/internal/expr"
	"dhqp/internal/parser"
	"dhqp/internal/providers/fulltext"
	"dhqp/internal/providers/native"
	"dhqp/internal/rowset"
	"dhqp/internal/schema"
	"dhqp/internal/sqltypes"
	"dhqp/internal/storage"
	"dhqp/internal/telemetry"
)

// Exec executes a DDL or DML statement.
func (s *Server) Exec(sql string) (int64, error) {
	return s.ExecParams(sql, nil)
}

// MustExec is Exec that panics on error (setup code in examples/benches).
func (s *Server) MustExec(sql string) {
	if _, err := s.Exec(sql); err != nil {
		panic(fmt.Sprintf("engine: %s\n  while executing: %s", err, sql))
	}
}

// ExecParams executes DDL/DML with parameters.
//
// Like a SELECT's cursor, the statement pins the shard-map statement gate for
// its whole lifetime, so elastic topology cutovers serialize against every
// write: a row routed by one map version commits before the map can change.
func (s *Server) ExecParams(sql string, params map[string]sqltypes.Value) (int64, error) {
	defer s.shards.PinStatement()()
	return s.execParams(sql, params)
}

// execParams is ExecParams without the shard-map statement pin — the inner
// entry for the elastic control plane's member DDL, which runs under the
// topology lock and coordinates with the gate itself.
func (s *Server) execParams(sql string, params map[string]sqltypes.Value) (int64, error) {
	cfg := s.cfg.Load()
	if cached := s.lookupPlan(cfg, sql, true); cached != nil {
		s.noteStatement(writeVerbs[cached.write.kind])
		return s.execWrite(cfg, cached.write, params)
	}
	st, err := parser.Parse(sql)
	if err != nil {
		return 0, err
	}
	switch v := st.(type) {
	case *parser.CreateTableStmt:
		s.noteStatement("ddl")
		return 0, s.execCreateTable(v)
	case *parser.CreateIndexStmt:
		s.noteStatement("ddl")
		return 0, s.execCreateIndex(v)
	case *parser.CreateViewStmt:
		s.noteStatement("ddl")
		s.mu.Lock()
		s.views[strings.ToLower(v.Name.Name())] = v.Text
		s.mu.Unlock()
		s.invalidatePlans()
		return 0, nil
	case *parser.ExecStmt:
		s.noteStatement("exec")
		return 0, s.execProc(v)
	case *parser.InsertStmt:
		s.noteStatement("insert")
		return s.execInsert(cfg, v, params)
	case *parser.UpdateStmt:
		s.noteStatement("update")
		return s.execFiltered(cfg, sql, decoder.Update, v.Table.Parts, v.Where, v.Set, params)
	case *parser.DeleteStmt:
		s.noteStatement("delete")
		return s.execFiltered(cfg, sql, decoder.Delete, v.Table.Parts, v.Where, nil, params)
	case *parser.SelectStmt:
		return 0, fmt.Errorf("engine: use Query for SELECT statements")
	default:
		return 0, fmt.Errorf("engine: unsupported statement %T", st)
	}
}

func kindOfType(t string) sqltypes.Kind {
	switch t {
	case "int":
		return sqltypes.KindInt
	case "float":
		return sqltypes.KindFloat
	case "bit":
		return sqltypes.KindBool
	case "date":
		return sqltypes.KindDate
	default:
		return sqltypes.KindString
	}
}

func (s *Server) execCreateTable(st *parser.CreateTableStmt) error {
	if len(st.Name.Parts) == 4 {
		// Forward DDL to the linked server (federation setup).
		_, err := s.forward(st.Name.Parts[0], renderCreateTable(st), nil)
		return err
	}
	catalogName := s.defaultDB
	if len(st.Name.Parts) == 3 {
		catalogName = st.Name.Parts[0]
	}
	db := s.store.CreateDatabase(catalogName)
	def := &schema.Table{Catalog: catalogName, Schema: "dbo", Name: st.Name.Name()}
	for _, c := range st.Columns {
		def.Columns = append(def.Columns, schema.Column{
			Name: c.Name, Kind: kindOfType(c.TypeName), Nullable: !c.NotNull,
		})
	}
	for _, pkc := range st.PrimaryKey {
		ord := def.ColumnIndex(pkc)
		if ord < 0 {
			return fmt.Errorf("engine: PRIMARY KEY column %q not defined", pkc)
		}
		def.PrimaryKey = append(def.PrimaryKey, ord)
	}
	def.Checks = append(def.Checks, st.CheckTexts...)
	if _, err := db.CreateTable(def); err != nil {
		return err
	}
	s.invalidatePlans()
	// A primary key implies an index.
	if len(def.PrimaryKey) > 0 {
		t, _ := db.Table(def.Name)
		_, err := t.AddIndex(schema.Index{
			Name: "pk_" + def.Name, Columns: def.PrimaryKey, Unique: true,
		})
		if err != nil {
			return err
		}
	}
	s.invalidateLocal()
	return nil
}

// renderCreateTable forwards a CREATE TABLE (federation setup pushes member
// DDL to member servers).
func renderCreateTable(st *parser.CreateTableStmt) string {
	var parts []string
	for _, c := range st.Columns {
		def := c.Name + " " + strings.ToUpper(c.TypeName)
		if c.NotNull {
			def += " NOT NULL"
		}
		parts = append(parts, def)
	}
	if len(st.PrimaryKey) > 0 {
		parts = append(parts, "PRIMARY KEY ("+strings.Join(st.PrimaryKey, ", ")+")")
	}
	for _, text := range st.CheckTexts {
		parts = append(parts, "CHECK ("+text+")")
	}
	return "CREATE TABLE " + stripServer(st.Name.Parts) + " (" + strings.Join(parts, ", ") + ")"
}

// stripServer removes the leading server part of a four-part name for
// forwarding.
func stripServer(parts []string) string {
	return strings.Join(parts[1:], ".")
}

func (s *Server) execCreateIndex(st *parser.CreateIndexStmt) error {
	if len(st.Table.Parts) == 4 {
		text := "CREATE "
		if st.Unique {
			text += "UNIQUE "
		}
		text += "INDEX " + st.Name + " ON " + stripServer(st.Table.Parts) +
			" (" + strings.Join(st.Columns, ", ") + ")"
		_, err := s.forward(st.Table.Parts[0], text, nil)
		return err
	}
	t, err := s.localTable(st.Table.Parts)
	if err != nil {
		return err
	}
	var ords []int
	for _, c := range st.Columns {
		ord := t.Def().ColumnIndex(c)
		if ord < 0 {
			return fmt.Errorf("engine: index column %q not found", c)
		}
		ords = append(ords, ord)
	}
	_, err = t.AddIndex(schema.Index{Name: st.Name, Columns: ords, Unique: st.Unique})
	s.invalidateLocal()
	s.invalidatePlans()
	return err
}

func (s *Server) execProc(st *parser.ExecStmt) error {
	switch st.Proc {
	case "sp_addlinkedserver":
		if len(st.Args) != 3 {
			return fmt.Errorf("engine: sp_addlinkedserver needs 'name', 'provider', 'datasource'")
		}
		name, provider, datasource := st.Args[0], st.Args[1], st.Args[2]
		if strings.EqualFold(provider, "MSIDXS") {
			ds := fulltext.NewProvider(s.ftService, s.ftLink)
			if err := ds.Initialize(map[string]string{"DataSource": datasource}); err != nil {
				return err
			}
			return s.AddLinkedServer(name, ds, s.ftLink)
		}
		s.mu.Lock()
		f, ok := s.providerFactories[strings.ToLower(provider)]
		s.mu.Unlock()
		if !ok {
			return fmt.Errorf("engine: no provider registered as %q", provider)
		}
		ds, link, err := f(datasource)
		if err != nil {
			return err
		}
		if err := ds.Initialize(map[string]string{"DataSource": datasource}); err != nil {
			return err
		}
		return s.AddLinkedServer(name, ds, link)
	default:
		return fmt.Errorf("engine: unknown procedure %q", st.Proc)
	}
}

// localTable resolves a local table reference.
func (s *Server) localTable(parts []string) (*storage.Table, error) {
	catalogName := s.defaultDB
	if len(parts) == 3 {
		catalogName = parts[0]
	}
	db, ok := s.store.Database(catalogName)
	if !ok {
		return nil, fmt.Errorf("engine: database %q not found", catalogName)
	}
	t, ok := db.Table(parts[len(parts)-1])
	if !ok {
		return nil, fmt.Errorf("engine: table %q not found in %q", parts[len(parts)-1], catalogName)
	}
	return t, nil
}

// forward ships a statement to a linked server's command object.
func (s *Server) forward(server, text string, params map[string]sqltypes.Value) (int64, error) {
	l, err := s.linkedFor(server)
	if err != nil {
		return 0, err
	}
	sess, err := s.sessionOf(l)
	if err != nil {
		return 0, err
	}
	cmd, err := sess.CreateCommand()
	if err != nil {
		return 0, fmt.Errorf("engine: linked server %s does not accept commands: %w", server, err)
	}
	cmd.SetText(text)
	for k, v := range params {
		cmd.SetParam(k, v)
	}
	return cmd.ExecuteNonQuery()
}

// ErrPartitionKeyUpdate reports an UPDATE through a partitioned or elastic
// view that SETs the partitioning column. Such an update can move a row out
// of its member's range, so it is refused before any member is called.
var ErrPartitionKeyUpdate = errors.New("engine: UPDATE through a partitioned view cannot SET its partitioning column")

// The one write path. Every INSERT, UPDATE and DELETE — on a local table, a
// four-part name, or a partitioned or elastic view — and the rebalance
// copier's writes compile a share per member table, prune, and apply through
// applyWrites. The view-only and multi-member steps live in functions of
// their own: a served statement runs on a fresh goroutine, and a
// single-table write's frames stay small enough that its stack does not grow.

// writeVerbs names each write kind as dhqp_statements_total counts it.
var writeVerbs = [...]string{decoder.Insert: "insert", decoder.Update: "update", decoder.Delete: "delete"}

func (s *Server) execInsert(cfg *Config, st *parser.InsertStmt, params map[string]sqltypes.Value) (int64, error) {
	members, view, err := s.writeMembers(st.Table.Parts)
	if err != nil {
		return 0, err
	}
	rows, err := s.insertRows(cfg, st, params)
	if err != nil {
		return 0, err
	}
	if rows, err = reorderForTable(members[0].src.Def, st.Columns, rows); err != nil {
		return 0, err
	}
	if view != "" {
		return s.insertIntoView(cfg, params, view, members, rows)
	}
	if len(rows) == 0 {
		return 0, nil
	}
	return s.applyShares(cfg, nil, params, []decoder.Write{{Kind: decoder.Insert, Table: members[0].src, Rows: rows}})
}

// insertIntoView routes each row to the member whose CHECK domain holds its
// partitioning value (§4.1.5 partitioned views) and applies the members'
// shares as one write.
func (s *Server) insertIntoView(cfg *Config, params map[string]sqltypes.Value, view string,
	members []pvMember, rows []rowset.Row) (int64, error) {
	part, err := partitionColumn(view, members)
	if err != nil {
		return 0, err
	}
	id := expr.ColumnID(part + 1)
	batches := make([][]rowset.Row, len(members))
	for _, r := range rows {
		target := -1
		for mi, m := range members {
			if m.domains[id].Contains(r[part]) {
				target = mi
				break
			}
		}
		if target < 0 {
			return 0, fmt.Errorf("engine: value %s of column %s falls outside every partition",
				r[part].Display(), members[0].src.Def.Columns[part].Name)
		}
		batches[target] = append(batches[target], r)
	}
	var ws []decoder.Write
	for mi, m := range members {
		if len(batches[mi]) == 0 {
			continue
		}
		// Every row satisfies its member's CHECK constraints before any
		// member is called.
		checks, err := binder.CheckPredicate(m.src.Def)
		if err != nil {
			return 0, err
		}
		for _, c := range checks {
			bad, err := expr.FirstRejected(c.Pred, batches[mi])
			if err != nil || bad >= 0 {
				return 0, fmt.Errorf("engine: view %s: CHECK %s fails for %s", view, c.Text, batches[mi][max(bad, 0)])
			}
		}
		ws = append(ws, decoder.Write{Kind: decoder.Insert, Table: m.src, Rows: batches[mi]})
	}
	n, err := s.applyShares(cfg, nil, params, ws)
	// A rebalance in flight on this view replays committed keys from its
	// delta log before cutover; the statement is pinned against the gate, so
	// the log entry lands strictly before the move's barrier.
	if err == nil && s.shards.MoveActive(view) {
		var keys []int64
		for _, r := range rows {
			if k, ok := r[part].AsInt(); ok {
				keys = append(keys, k)
			}
		}
		s.shards.NoteKeys(view, keys)
	}
	return n, err
}

// writePlan is a compiled UPDATE or DELETE, cached by text beside SELECT
// plans: a share for every member table the target may reach.
type writePlan struct {
	kind       decoder.WriteKind
	view       string // "" for a table
	shares     []*memberPlan
	recompiled atomic.Bool // an execution found the plan stale and recompiles it
}

// stale reports whether a local member has resized since the plan
// compiled, so that its access path may no longer be the cheapest (a plan
// compiled on an empty table scans it). It tells one execution, which
// recompiles; concurrent ones run this plan until the new one is cached.
// A nil plan, a SELECT's, never is.
func (wp *writePlan) stale() bool {
	if wp == nil || wp.recompiled.Load() {
		return false
	}
	return slices.ContainsFunc(wp.shares, func(m *memberPlan) bool { return m.mark.resized() }) &&
		wp.recompiled.CompareAndSwap(false, true)
}

// execFiltered compiles and runs an UPDATE or DELETE text. It caches the
// plan only when the WHERE names a parameter: a literal text, like an
// INSERT's, is usually run once, and caching it would evict SELECT plans.
func (s *Server) execFiltered(cfg *Config, sql string, kind decoder.WriteKind, parts []string, where parser.Expr,
	set []parser.SetClause, params map[string]sqltypes.Value) (int64, error) {
	members, view, err := s.writeMembers(parts)
	if err != nil {
		return 0, err
	}
	if view != "" && len(set) > 0 {
		if err := refuseKeyMove(view, members, set); err != nil {
			return 0, err
		}
	}
	wp := &writePlan{kind: kind, view: view}
	for _, m := range members {
		w, err := bindWrite(kind, m.src, where, set)
		if err != nil {
			return 0, err
		}
		share, err := s.compileShare(cfg, w)
		if err != nil {
			return 0, err
		}
		share.pvMember = m
		wp.shares = append(wp.shares, share)
	}
	if w := wp.shares[0].Where; w != nil && expr.HasParams(w) {
		s.notePlanMiss()
		s.cachePlan(sql, &cachedPlan{write: wp, gen: cfg.planGen})
	}
	return s.execWrite(cfg, wp, params)
}

// execWrite applies a compiled UPDATE or DELETE to the members whose CHECK
// domains the WHERE leaves satisfiable under this execution's parameter
// values — the pruning a startup filter gives SELECT (§4.1.5), so WHERE
// o_id = @id opens one member and a NULL @id opens none.
func (s *Server) execWrite(cfg *Config, wp *writePlan, params map[string]sqltypes.Value) (int64, error) {
	col := s.newRecord(false)
	var writes []*memberWrite
	for _, share := range wp.shares {
		if share.admits(share.Where, params) {
			writes = append(writes, &memberWrite{memberPlan: share, s: s, cfg: cfg, col: col, params: params})
		}
	}
	n, err := s.applyWrites(col, writes)
	if wp.view != "" {
		s.noteViewWrite(wp.view, writes)
	}
	return n, err
}

// refuseKeyMove fails an UPDATE through a view that SETs the partitioning
// column.
func refuseKeyMove(view string, members []pvMember, set []parser.SetClause) error {
	part, err := partitionColumn(view, members)
	if err != nil {
		return nil // nothing partitions the view, so nothing can move
	}
	key := members[0].src.Def.Columns[part].Name
	for _, sc := range set {
		if strings.EqualFold(sc.Column, key) {
			return fmt.Errorf("%w (view %s, column %s)", ErrPartitionKeyUpdate, view, key)
		}
	}
	return nil
}

// noteViewWrite flags an in-flight rebalance dirty when a predicate
// UPDATE/DELETE wrote the member it drains: such a write cannot be replayed
// key by key, so cutover re-copies the whole moving range.
func (s *Server) noteViewWrite(view string, writes []*memberWrite) {
	srv, tbl, ok := s.shards.MoveSourceTable(view)
	if !ok {
		return
	}
	for _, w := range writes {
		if strings.EqualFold(w.Table.Server, srv) && strings.EqualFold(w.Table.Table, tbl) {
			s.shards.MarkDirty(view)
			return
		}
	}
}

// writeMembers resolves a write's target to the member tables it may reach:
// a partitioned or elastic view's members, or the one local or linked-server
// table. view names the view, "" for a table.
func (s *Server) writeMembers(parts []string) (members []pvMember, view string, err error) {
	res, err := (&catalog{s: s}).ResolveObject(parts)
	if err != nil {
		return nil, "", err
	}
	if res.Source != nil {
		return []pvMember{newPVMember(res.Source)}, "", nil
	}
	view = parts[len(parts)-1]
	if members, err = s.partitionedViewMembers(res.ViewText); err != nil {
		return nil, "", fmt.Errorf("engine: view %s: %w", view, err)
	}
	return members, view, nil
}

// insertRows evaluates VALUES rows or runs the INSERT's SELECT.
func (s *Server) insertRows(cfg *Config, st *parser.InsertStmt, params map[string]sqltypes.Value) ([]rowset.Row, error) {
	if st.Sel != nil {
		res, err := s.querySelect(cfg, st.Sel, params)
		if err != nil {
			return nil, err
		}
		return res.Rows, nil
	}
	env := &expr.Env{Params: params, Today: cfg.Today}
	var rows []rowset.Row
	for _, astRow := range st.Rows {
		row := make(rowset.Row, len(astRow))
		for i, e := range astRow {
			bound, err := binder.BindScalar(e)
			if err != nil {
				return nil, err
			}
			v, err := expr.EvalScalar(bound, env)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// querySelect runs a parsed SELECT (INSERT ... SELECT path).
func (s *Server) querySelect(cfg *Config, sel *parser.SelectStmt, params map[string]sqltypes.Value) (*Result, error) {
	c := s.newCursor(context.Background(), cfg, s.newRecord(false), nil)
	plan, cols, _, err := s.planSelectWith(cfg, sel, c.col)
	if err != nil {
		return nil, c.fail(err)
	}
	// INSERT ... SELECT has no standalone statement text; an empty key keeps
	// it out of the query-stats registry.
	return readAll(c.exec("", plan, cols, params, nil))
}

// reorderForTable maps named insert columns onto the table layout, filling
// unnamed columns with NULL.
func reorderForTable(def *schema.Table, cols []string, rows []rowset.Row) ([]rowset.Row, error) {
	if len(cols) == 0 {
		for _, r := range rows {
			if len(r) != len(def.Columns) {
				return nil, fmt.Errorf("engine: INSERT row has %d values, table %s has %d columns",
					len(r), def.Name, len(def.Columns))
			}
		}
		return rows, nil
	}
	ords := make([]int, len(cols))
	for i, c := range cols {
		ord := def.ColumnIndex(c)
		if ord < 0 {
			return nil, fmt.Errorf("engine: column %q not in table %s", c, def.Name)
		}
		ords[i] = ord
	}
	out := make([]rowset.Row, len(rows))
	for ri, r := range rows {
		if len(r) != len(cols) {
			return nil, fmt.Errorf("engine: INSERT row has %d values for %d columns", len(r), len(cols))
		}
		full := make(rowset.Row, len(def.Columns))
		for i := range full {
			full[i] = sqltypes.Null
		}
		for i, ord := range ords {
			full[ord] = r[i]
		}
		out[ri] = full
	}
	return out, nil
}

// memberPlan is one member table's compiled share of a write: the bound
// statement and what no parameter value changes about applying it.
type memberPlan struct {
	decoder.Write
	pvMember               // an UPDATE's or DELETE's: its CHECK domains prune it
	rows     *algebra.Node // local UPDATE/DELETE: the rows WHERE qualifies, each with its bookmark
	mark     tableMark     // local UPDATE/DELETE: the table as rows was planned against
	text     string        // remote: the decoded statement
	named    []string      // remote: the statement parameters the text names
}

// compileShare compiles one member's share of a write: a remote member's
// text, decoded at its capability level (a write the dialect cannot express
// fails before any member is called), or a local UPDATE's or DELETE's
// qualifying rows, a SELECT plan — Select(WHERE) over a Get of every column
// and the bookmark — optimized as any SELECT is.
func (s *Server) compileShare(cfg *Config, w decoder.Write) (*memberPlan, error) {
	share := &memberPlan{Write: w}
	if w.Table.Server != "" {
		caps, ok := s.capsFor(w.Table.Server)
		if !ok {
			return nil, fmt.Errorf("engine: linked server %q not found", w.Table.Server)
		}
		res, err := decoder.DecodeWrite(&share.Write, caps)
		if err != nil {
			return nil, err
		}
		share.text, share.named = res.SQL, res.Params
		return share, nil
	}
	if w.Kind == decoder.Insert {
		return share, nil
	}
	def := w.Table.Def
	t, err := s.localTable([]string{def.Catalog, "", def.Name})
	if err != nil {
		return nil, err
	}
	share.mark = markTable(t)
	cols := make([]algebra.OutCol, len(def.Columns), len(def.Columns)+1)
	for i, c := range def.Columns {
		cols[i] = algebra.OutCol{ID: expr.ColumnID(i + 1), Name: c.Name, Kind: c.Kind}
	}
	next := expr.ColumnID(len(cols) + 1)
	cols = append(cols, algebra.OutCol{ID: next, Name: algebra.Bookmark, Kind: sqltypes.KindInt})
	root := algebra.NewNode(&algebra.Get{Src: w.Table, Cols: cols})
	if w.Where != nil {
		root = algebra.NewNode(&algebra.Select{Filter: w.Where}, root)
	}
	share.rows, _, err = s.optimize(cfg, root, nil, func() expr.ColumnID { next++; return next }, nil)
	// stage reads each row positionally: the table's columns, then the
	// bookmark.
	if err == nil && !slices.Equal(algebra.IDs(share.rows.OutCols()), algebra.IDs(cols)) {
		err = fmt.Errorf("engine: the plan of %s's qualifying rows does not output its columns in order", def.Name)
	}
	return share, err
}

// applyShares compiles each member's write, uncached, and applies them as
// one write recording into col (nil for an INSERT, which reads no rows).
func (s *Server) applyShares(cfg *Config, col *telemetry.Collector, params map[string]sqltypes.Value, ws []decoder.Write) (int64, error) {
	writes := make([]*memberWrite, len(ws))
	for i, w := range ws {
		share, err := s.compileShare(cfg, w)
		if err != nil {
			return 0, err
		}
		writes[i] = &memberWrite{memberPlan: share, s: s, cfg: cfg, col: col, params: params}
	}
	return s.applyWrites(col, writes)
}

// memberWrite is one execution of a member's share, and its DTC
// participant: a local member stages its rows in a storage transaction and
// prepares it for real in phase one; a remote member runs its decoded text
// in phase two, voting yes in phase one without preparing.
type memberWrite struct {
	*memberPlan
	s      *Server
	cfg    *Config
	col    *telemetry.Collector // the statement's record: the rows local shares read
	params map[string]sqltypes.Value
	sess   *native.Session // local: the statement transaction
	n      int64           // rows affected
}

// applyWrites applies a write's member shares, recording the rows local
// UPDATE and DELETE shares read (col) and changed. One member commits in
// one phase; two or more under one DTC transaction (§2).
func (s *Server) applyWrites(col *telemetry.Collector, writes []*memberWrite) (int64, error) {
	switch len(writes) {
	case 0:
		return 0, nil
	case 1:
		w := writes[0]
		defer w.Abort() // a no-op once committed
		if w.Table.Server == "" {
			if err := w.stage(); err != nil {
				return 0, err
			}
		}
		if err := w.Commit(); err != nil {
			return 0, err
		}
	default:
		if err := commitDistributed(writes); err != nil {
			return 0, err
		}
	}
	var n, affected int64
	for _, w := range writes {
		n += w.n
		s.invalidateTable(w.Table.Server, w.Table.Def)
		if w.Table.Server != "" {
			s.noteMemberWrite(w.Table.Server, w.Table.Def, w.n)
		}
		if w.Kind != decoder.Insert && w.Table.Server == "" {
			affected += w.n
		}
	}
	if m := s.instr(); m != nil {
		m.dmlExamined.Add(col.Counts().RowsRead)
		m.dmlAffected.Add(affected)
	}
	return n, nil
}

// commitDistributed commits two or more members' shares under one DTC
// transaction (§2), each memberWrite its own participant.
func commitDistributed(writes []*memberWrite) error {
	txn := dtc.New().Begin()
	for _, w := range writes {
		txn.Enlist(w)
	}
	return txn.Commit()
}

// stage opens a local member's statement transaction and buffers the write
// into it: the rows of an INSERT, or one Update or Delete per row the
// qualifying plan reads at the transaction's snapshot, SET evaluated on
// that row. Commit is all-or-nothing, first writer wins.
func (w *memberWrite) stage() error {
	sess, _ := w.s.nativeProv.CreateSession() // a native session never fails to open
	w.sess = sess.(*native.Session)
	if err := w.sess.Begin(); err != nil {
		return err
	}
	def := w.Table.Def
	table := def.Catalog + "." + def.Name
	if w.Kind == decoder.Insert {
		for _, r := range w.Rows {
			if _, err := w.sess.Insert(table, r); err != nil {
				return err
			}
		}
		w.n = int64(len(w.Rows))
		return nil
	}
	ctx := w.s.execContext(context.Background(), w.cfg, w.params, w.sess, w.col)
	set := make([]rowset.Vec, len(w.Set)) // each SET value over the staged batch
	run, err := exec.Open(w.rows, ctx)
	if err != nil {
		return err
	}
	defer run.Close()
	for b, err := run.Pull(); err != io.EOF; b, err = run.Pull() {
		if err != nil {
			return err
		}
		for i, a := range w.Set {
			if err := expr.EvalVec(a.E, &ctx.Env, b.Cols(), b.Indices(), &set[i]); err != nil {
				return err
			}
		}
		bms := b.Col(len(def.Columns)) // the bookmark column
		for k, p := range b.Indices() {
			bm, _ := bms.Value(p).AsInt()
			if w.Kind == decoder.Delete {
				err = w.sess.Delete(table, bm)
			} else {
				newRow := make(rowset.Row, len(def.Columns))
				for j := range newRow {
					newRow[j] = b.Col(j).Value(p)
				}
				for i, a := range w.Set {
					newRow[a.Col] = set[i].Value(k)
				}
				err = w.sess.Update(table, bm, newRow)
			}
			if err != nil {
				return err
			}
			w.n++
		}
	}
	return nil
}

// ParticipantName implements dtc.NamedParticipant.
func (w *memberWrite) ParticipantName() string {
	if w.Table.Server == "" {
		return "local"
	}
	return w.Table.Server
}

// Prepare implements dtc.Participant.
func (w *memberWrite) Prepare() error {
	if w.Table.Server != "" {
		return nil
	}
	if err := w.stage(); err != nil {
		return err
	}
	return w.sess.Prepare()
}

// Commit implements dtc.Participant. A remote member's command carries
// only the parameters its text names.
func (w *memberWrite) Commit() error {
	if w.Table.Server == "" {
		return w.sess.Commit()
	}
	named := make(map[string]sqltypes.Value, len(w.named))
	for _, p := range w.named {
		if v, ok := w.params[p]; ok {
			named[p] = v
		}
	}
	n, err := w.s.forward(w.Table.Server, w.text, named)
	w.n = n
	return err
}

// Abort implements dtc.Participant.
func (w *memberWrite) Abort() error {
	if w.sess == nil {
		return nil
	}
	return w.sess.Close()
}

// bindWrite binds a write's WHERE and SET against a member table's
// positional layout; column i has ColumnID i+1.
func bindWrite(kind decoder.WriteKind, src *algebra.Source, where parser.Expr, set []parser.SetClause) (w decoder.Write, err error) {
	w = decoder.Write{Kind: kind, Table: src}
	if where != nil {
		if w.Where, err = binder.BindTableScalar(src.Def, where); err != nil {
			return w, err
		}
	}
	for _, sc := range set {
		ord := src.Def.ColumnIndex(sc.Column)
		if ord < 0 {
			return w, fmt.Errorf("engine: SET column %q not in table %s", sc.Column, src.Def.Name)
		}
		e, err := binder.BindTableScalar(src.Def, sc.E)
		if err != nil {
			return w, err
		}
		w.Set = append(w.Set, decoder.Assign{Col: ord, E: e})
	}
	return w, nil
}

// viewTextFor resolves a DML target to partitioned-view text: CREATE VIEW
// definitions first, then elastic shard maps, whose UNION ALL text is
// synthesized from the map version current when the statement pinned.
func (s *Server) viewTextFor(name string) (string, bool) {
	lower := strings.ToLower(name)
	s.mu.Lock()
	text, ok := s.views[lower]
	s.mu.Unlock()
	if ok {
		return text, true
	}
	if mp, ok := s.shards.Lookup(lower); ok {
		return mp.ViewText(), true
	}
	return "", false
}

// pvMember is one member table a write may reach, with the domains its
// CHECK constraints give its columns (keyed by ColumnID, ordinal + 1;
// shared with every write to the same definition, so read-only).
type pvMember struct {
	src     *algebra.Source
	domains constraint.Map
}

func newPVMember(src *algebra.Source) pvMember {
	return pvMember{src: src, domains: binder.TableDomains(src.Def)}
}

// admits reports whether the member can hold a row the bound WHERE
// qualifies: its CHECK domains, narrowed by the WHERE with this execution's
// parameter values in place of its parameters, stay satisfiable. A column
// compared with NULL admits nothing. A member without CHECK domains has
// nothing to prune by; its own WHERE evaluation finds no rows just as fast.
func (m pvMember) admits(where expr.Expr, params map[string]sqltypes.Value) bool {
	if where == nil || len(m.domains) == 0 {
		return true
	}
	valued := expr.Rewrite(where, func(n expr.Expr) expr.Expr {
		if p, ok := n.(*expr.Param); ok {
			if v, ok := params[p.Name]; ok {
				return expr.NewConst(v)
			}
		}
		return nil
	})
	return m.domains.Clone().ApplyPredicate(expr.FoldConstants(valued))
}

// partitionColumn finds a view's partitioning column: the first one every
// member's CHECK domains restrict.
func partitionColumn(view string, members []pvMember) (int, error) {
	for ord := range members[0].src.Def.Columns {
		every := true
		for _, m := range members {
			every = every && m.domains[expr.ColumnID(ord+1)] != nil
		}
		if every {
			return ord, nil
		}
	}
	return -1, fmt.Errorf("engine: view %s has no partitioning column (members need disjoint CHECK constraints)", view)
}

// partitionedViewMembers parses a view's UNION ALL arms into member tables
// with their CHECK domains.
func (s *Server) partitionedViewMembers(viewText string) ([]pvMember, error) {
	st, err := parser.Parse(viewText)
	if err != nil {
		return nil, err
	}
	sel, ok := st.(*parser.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("view text is not a SELECT")
	}
	cat := &catalog{s: s}
	var members []pvMember
	for arm := sel; arm != nil; arm = arm.Union {
		if len(arm.From) != 1 {
			return nil, fmt.Errorf("partitioned view arms must select from one table")
		}
		nt, ok := arm.From[0].(*parser.NamedTable)
		if !ok {
			return nil, fmt.Errorf("partitioned view arms must reference base tables")
		}
		res, err := cat.ResolveObject(nt.Parts)
		if err != nil {
			return nil, err
		}
		if res.Source == nil {
			return nil, fmt.Errorf("partitioned view member %s is not a base table", nt.Name())
		}
		members = append(members, newPVMember(res.Source))
	}
	return members, nil
}
