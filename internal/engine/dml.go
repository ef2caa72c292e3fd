package engine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"

	"dhqp/internal/algebra"
	"dhqp/internal/binder"
	"dhqp/internal/constraint"
	"dhqp/internal/decoder"
	"dhqp/internal/dtc"
	"dhqp/internal/expr"
	"dhqp/internal/oledb"
	"dhqp/internal/parser"
	"dhqp/internal/providers/fulltext"
	"dhqp/internal/providers/native"
	"dhqp/internal/rowset"
	"dhqp/internal/rules"
	"dhqp/internal/schema"
	"dhqp/internal/sqltypes"
	"dhqp/internal/storage"
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
// Like QueryContext, the statement pins the shard-map statement gate for
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
		return s.execFiltered(cfg, decoder.Update, v.Table.Parts, v.Where, v.Set, params)
	case *parser.DeleteStmt:
		s.noteStatement("delete")
		return s.execFiltered(cfg, decoder.Delete, v.Table.Parts, v.Where, nil, params)
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
// copier's writes resolve their target to member tables, bind against each
// member, prune, and apply through applyWrites. The view-only and
// multi-member steps live in functions of their own: a served statement runs
// on a fresh goroutine, and a single-table write's frames stay small enough
// that its stack does not grow.

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
	w := s.newWrite(cfg, params, decoder.Insert, members[0].src)
	w.Rows = rows
	return s.applyWrites([]*memberWrite{w})
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
	var writes []*memberWrite
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
		for _, r := range batches[mi] {
			for _, c := range checks {
				if ok, err := expr.EvalPredicate(c.Pred, &expr.Env{Row: r}); err != nil || !ok {
					return 0, fmt.Errorf("engine: view %s: CHECK %s fails for %s", view, c.Text, r)
				}
			}
		}
		w := s.newWrite(cfg, params, decoder.Insert, m.src)
		w.Rows = batches[mi]
		writes = append(writes, w)
	}
	n, err := s.applyWrites(writes)
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

// execFiltered runs an UPDATE or DELETE. It binds WHERE and SET against
// every member table and keeps only the members whose CHECK domains the
// WHERE leaves satisfiable under this execution's parameter values — the
// pruning a startup filter gives SELECT (§4.1.5), so WHERE o_id = @id opens
// one member and a NULL @id opens none.
func (s *Server) execFiltered(cfg *Config, kind decoder.WriteKind, parts []string, where parser.Expr,
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
	var writes []*memberWrite
	for _, m := range members {
		w := s.newWrite(cfg, params, kind, m.src)
		if w.Where, w.Set, err = bindDMLExprs(m.src.Def, where, set); err != nil {
			return 0, err
		}
		if m.admits(w.Where, params) {
			writes = append(writes, w)
		}
	}
	n, err := s.applyWrites(writes)
	if view != "" {
		s.noteViewWrite(view, writes)
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

// txnSession opens a fresh native session with a transaction begun —
// statement-scoped DML buffers into it and commits atomically. The
// transaction's snapshot also serves the statement's own reads, so an
// UPDATE's scan and its writes observe one consistent image (a concurrent
// autocommit writer surfaces as storage.ErrWriteConflict at commit).
func (s *Server) txnSession() (*native.Session, error) {
	sess, err := s.nativeProv.CreateSession()
	if err != nil {
		return nil, err
	}
	ns := sess.(*native.Session)
	if err := ns.Begin(); err != nil {
		return nil, err
	}
	return ns, nil
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
			v, err := bound.Eval(env)
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
	col := s.newRecord(false)
	plan, cols, _, err := s.planSelectWith(cfg, sel, col)
	if err != nil {
		return s.publish(context.Background(), cfg, col, nil, err)
	}
	// INSERT ... SELECT has no standalone statement text; an empty key keeps
	// it out of the query-stats registry.
	return materialize(func(sink ResultSink) (*Result, error) {
		res, err := s.runPlan(context.Background(), cfg, "", plan, cols, params, false, col, sink)
		return s.publish(context.Background(), cfg, col, res, err)
	})
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

// memberWrite is one member table's share of a write, and its DTC
// participant: a local member stages its rows in a storage transaction and
// prepares it for real in phase one; a remote member runs its decoded text
// in phase two, voting yes in phase one without preparing.
type memberWrite struct {
	decoder.Write
	s        *Server
	cfg      *Config
	params   map[string]sqltypes.Value // a remote member's: only those its text names
	text     string                    // remote: the decoded statement
	sess     *native.Session           // local: the statement transaction
	examined int64
	n        int64 // rows affected
}

func (s *Server) newWrite(cfg *Config, params map[string]sqltypes.Value, kind decoder.WriteKind, src *algebra.Source) *memberWrite {
	return &memberWrite{Write: decoder.Write{Kind: kind, Table: src}, s: s, cfg: cfg, params: params}
}

// applyWrites applies a write's member shares. Every remote member's text is
// decoded first, so a write its dialect cannot express fails before any
// member is called. One member commits in one phase; two or more commit
// under one DTC transaction (§2).
func (s *Server) applyWrites(writes []*memberWrite) (int64, error) {
	for _, w := range writes {
		if err := w.decode(); err != nil {
			return 0, err
		}
	}
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
	var n int64
	for _, w := range writes {
		n += w.n
		s.invalidateTable(w.Table.Server, w.Table.Def)
		if m := s.instr(); m != nil && w.Kind != decoder.Insert && w.Table.Server == "" {
			m.dmlExamined.Add(w.examined)
			m.dmlAffected.Add(w.n)
		}
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

// decode writes a remote member's statement at its server's capability
// level and keeps only the parameters the text names.
func (w *memberWrite) decode() error {
	if w.Table.Server == "" {
		return nil
	}
	caps, ok := w.s.capsFor(w.Table.Server)
	if !ok {
		return fmt.Errorf("engine: linked server %q not found", w.Table.Server)
	}
	res, err := decoder.DecodeWrite(&w.Write, caps)
	if err != nil {
		return err
	}
	w.text = res.SQL
	named := make(map[string]sqltypes.Value, len(res.Params))
	for _, p := range res.Params {
		if v, ok := w.params[p]; ok {
			named[p] = v
		}
	}
	w.params = named
	return nil
}

// stage opens a local member's statement transaction and buffers the write
// into it: the rows of an INSERT, or one Update or Delete per row the WHERE
// qualifies. Rows qualify against the transaction's one snapshot: they are
// read through the access path dmlAccessPath picks and the whole WHERE is
// evaluated on every row read; commit is all-or-nothing, first writer wins.
func (w *memberWrite) stage() error {
	sess, err := w.s.txnSession()
	if err != nil {
		return err
	}
	w.sess = sess
	def := w.Table.Def
	table := def.Catalog + "." + def.Name
	if w.Kind == decoder.Insert {
		for _, r := range w.Rows {
			if _, err := sess.Insert(table, r); err != nil {
				return err
			}
		}
		w.n = int64(len(w.Rows))
		return nil
	}
	env := &expr.Env{Params: w.params, Today: w.cfg.Today}
	rs, err := dmlAccessPath(sess, def, table, w.Where, env)
	if err != nil {
		return err
	}
	defer rs.Close()
	sc := rs.(rowset.Bookmarked)
	for {
		r, err := sc.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		w.examined++
		env.Row = r
		if w.Where != nil {
			ok, err := expr.EvalPredicate(w.Where, env)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
		}
		if w.Kind == decoder.Delete {
			err = sess.Delete(table, sc.Bookmark())
		} else {
			newRow := rowset.Row(r).Clone()
			for _, a := range w.Set {
				if newRow[a.Col], err = a.E.Eval(env); err != nil {
					return err
				}
			}
			err = sess.Update(table, sc.Bookmark(), newRow)
		}
		if err != nil {
			return err
		}
		w.n++
	}
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

// Commit implements dtc.Participant.
func (w *memberWrite) Commit() error {
	if w.Table.Server != "" {
		n, err := w.s.forward(w.Table.Server, w.text, w.params)
		w.n = n
		return err
	}
	return w.sess.Commit()
}

// Abort implements dtc.Participant.
func (w *memberWrite) Abort() error {
	if w.sess == nil {
		return nil
	}
	return w.sess.Close()
}

// dmlAccessPath opens the rows a DML WHERE can qualify: the range of the
// index its sargable conjuncts bound on most sides (rules.IndexBounds, the
// matcher SELECT planning uses), else the full scan. stage re-evaluates the
// WHERE, so a range need only be a superset; an index with an unusable bound
// is passed over.
func dmlAccessPath(sess *native.Session, def *schema.Table, table string, where expr.Expr, env *expr.Env) (rowset.Rowset, error) {
	conjuncts := expr.SplitConjuncts(where)
	var index string
	var lo, hi oledb.Bound
	sides := 0 // bounded ends of the best index so far
	for _, ix := range def.Indexes {
		lead := ix.Columns[0]
		l, h, _ := rules.IndexBounds(conjuncts, func(c *expr.ColRef) bool { return c.Pos() == lead })
		blo, okLo := seekBound(l, def.Columns[lead].Kind, env)
		bhi, okHi := seekBound(h, def.Columns[lead].Kind, env)
		if n := len(blo.Key) + len(bhi.Key); okLo && okHi && n > sides {
			index, lo, hi, sides = ix.Name, blo, bhi, n
		}
	}
	if sides == 0 {
		return sess.OpenRowset(table)
	}
	return sess.OpenIndexRange(table, index, lo, hi)
}

// seekBound evaluates one end of a matched range into an index key. The
// index orders keys as predicates compare them (sqltypes.Compare), so a bound
// is usable only when its value is present, non-NULL and converts to the key
// column's kind without changing how it compares: a missing parameter, NULL,
// '42' or 42.5 against an INT key report false and the statement scans, which
// is what defines its meaning. An unbounded end is usable as it is.
func seekBound(b algebra.RangeBound, kind sqltypes.Kind, env *expr.Env) (oledb.Bound, bool) {
	if b.Vals == nil {
		return oledb.Bound{}, true
	}
	v, err := b.Vals[0].Eval(env)
	if err != nil {
		return oledb.Bound{}, false
	}
	key, err := sqltypes.Coerce(v, kind)
	if err != nil || key.IsNull() || sqltypes.Compare(key, v) != 0 {
		return oledb.Bound{}, false
	}
	// Beyond 2^53 a FLOAT compares equal to several INT keys at once.
	if v.Kind() == sqltypes.KindFloat && kind != sqltypes.KindFloat && math.Abs(v.Float()) >= 1<<53 {
		return oledb.Bound{}, false
	}
	return oledb.Bound{Key: rowset.Row{key}, Inclusive: b.Inclusive}, true
}

// bindDMLExprs binds a WHERE clause and SET expressions against a table's
// positional layout; column i has ColumnID i+1.
func bindDMLExprs(def *schema.Table, where parser.Expr, set []parser.SetClause) (expr.Expr, []decoder.Assign, error) {
	var boundWhere expr.Expr
	var err error
	if where != nil {
		boundWhere, err = binder.BindTableScalar(def, where)
		if err != nil {
			return nil, nil, err
		}
	}
	var assigns []decoder.Assign
	for _, sc := range set {
		ord := def.ColumnIndex(sc.Column)
		if ord < 0 {
			return nil, nil, fmt.Errorf("engine: SET column %q not in table %s", sc.Column, def.Name)
		}
		e, err := binder.BindTableScalar(def, sc.E)
		if err != nil {
			return nil, nil, err
		}
		assigns = append(assigns, decoder.Assign{Col: ord, E: e})
	}
	return boundWhere, assigns, nil
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
// CHECK constraints give its columns (keyed by ColumnID, ordinal + 1).
type pvMember struct {
	src     *algebra.Source
	domains constraint.Map
}

func newPVMember(src *algebra.Source) pvMember {
	m := pvMember{src: src}
	if def := src.Def; len(def.Checks) > 0 {
		cols := make([]algebra.OutCol, len(def.Columns))
		for i, c := range def.Columns {
			cols[i] = algebra.OutCol{ID: expr.ColumnID(i + 1), Name: c.Name, Kind: c.Kind}
		}
		m.domains = binder.CheckDomains(def, cols)
	}
	return m
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
