package engine

import (
	"context"
	"fmt"
	"io"
	"math"
	"strings"

	"dhqp/internal/algebra"
	"dhqp/internal/binder"
	"dhqp/internal/constraint"
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
// entry for re-entrant statement work (partitioned-view DML fan-out onto a
// local member) and for the rebalance copier, which coordinates with the
// gate itself.
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
		return s.execUpdate(cfg, v, params)
	case *parser.DeleteStmt:
		s.noteStatement("delete")
		return s.execDelete(cfg, v, params)
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
		text, err := renderCreateTable(st)
		if err != nil {
			return err
		}
		_, err = s.forward(st.Name.Parts[0], text, nil)
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
	db, t, err := s.localTable(st.Table.Parts)
	if err != nil {
		return err
	}
	_ = db
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
func (s *Server) localTable(parts []string) (*storage.Database, *storage.Table, error) {
	catalogName := s.defaultDB
	if len(parts) == 3 {
		catalogName = parts[0]
	}
	db, ok := s.store.Database(catalogName)
	if !ok {
		return nil, nil, fmt.Errorf("engine: database %q not found", catalogName)
	}
	t, ok := db.Table(parts[len(parts)-1])
	if !ok {
		return nil, nil, fmt.Errorf("engine: table %q not found in %q", parts[len(parts)-1], catalogName)
	}
	return db, t, nil
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

func (s *Server) execInsert(cfg *Config, st *parser.InsertStmt, params map[string]sqltypes.Value) (int64, error) {
	if len(st.Table.Parts) == 4 {
		if st.Sel != nil {
			return s.insertSelectRemote(cfg, st, params)
		}
		text, err := renderInsert(st)
		if err != nil {
			return 0, err
		}
		return s.forward(st.Table.Parts[0], text, params)
	}
	// Local: view (partitioned, static or elastic) or table.
	viewText, isView := s.viewTextFor(st.Table.Name())
	rows, err := s.insertRows(cfg, st, params)
	if err != nil {
		return 0, err
	}
	if isView {
		return s.insertIntoPartitionedView(st.Table.Name(), viewText, st.Columns, rows)
	}
	_, t, err := s.localTable(st.Table.Parts)
	if err != nil {
		return 0, err
	}
	ordered, err := reorderForTable(t.Def(), st.Columns, rows)
	if err != nil {
		return 0, err
	}
	// One transaction per statement: either every row inserts or none do,
	// and the commit is durable when a WAL is attached.
	sess, err := s.txnSession()
	if err != nil {
		return 0, err
	}
	for _, r := range ordered {
		if _, err := sess.Insert(t.Def().Catalog+"."+t.Def().Name, r); err != nil {
			_ = sess.Abort()
			return 0, err
		}
	}
	if err := sess.Commit(); err != nil {
		return 0, err
	}
	s.invalidateTable("", t.Def())
	return int64(len(ordered)), nil
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
			bound, err := bindStandaloneExpr(e)
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

// bindStandaloneExpr binds a scalar AST with no columns in scope.
func bindStandaloneExpr(e parser.Expr) (expr.Expr, error) {
	return binder.BindScalar(e)
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

// insertSelectRemote materializes the SELECT locally and forwards VALUES.
func (s *Server) insertSelectRemote(cfg *Config, st *parser.InsertStmt, params map[string]sqltypes.Value) (int64, error) {
	res, err := s.querySelect(cfg, st.Sel, params)
	if err != nil {
		return 0, err
	}
	if len(res.Rows) == 0 {
		return 0, nil
	}
	var b strings.Builder
	b.WriteString("INSERT INTO " + stripServer(st.Table.Parts))
	if len(st.Columns) > 0 {
		b.WriteString(" (" + strings.Join(st.Columns, ", ") + ")")
	}
	b.WriteString(" VALUES ")
	for i, r := range res.Rows {
		if i > 0 {
			b.WriteString(", ")
		}
		vals := make([]string, len(r))
		for j, v := range r {
			vals[j] = v.String()
		}
		b.WriteString("(" + strings.Join(vals, ", ") + ")")
	}
	return s.forward(st.Table.Parts[0], b.String(), nil)
}

func (s *Server) execUpdate(cfg *Config, st *parser.UpdateStmt, params map[string]sqltypes.Value) (int64, error) {
	if len(st.Table.Parts) == 4 {
		text, err := renderUpdate(st)
		if err != nil {
			return 0, err
		}
		return s.forward(st.Table.Parts[0], text, params)
	}
	if viewText, isView := s.viewTextFor(st.Table.Name()); isView {
		return s.updateThroughView(viewText, st, params)
	}
	_, t, err := s.localTable(st.Table.Parts)
	if err != nil {
		return 0, err
	}
	def := t.Def()
	where, setExprs, err := bindDMLExprs(def, st.Where, st.Set)
	if err != nil {
		return 0, err
	}
	return s.dmlRows(cfg, def, where, params, func(sess *native.Session, table string, bm int64, env *expr.Env) error {
		newRow := rowset.Row(env.Row).Clone()
		for i, sc := range st.Set {
			v, err := setExprs[i].Eval(env)
			if err != nil {
				return err
			}
			newRow[def.ColumnIndex(sc.Column)] = v
		}
		return sess.Update(table, bm, newRow)
	})
}

func (s *Server) execDelete(cfg *Config, st *parser.DeleteStmt, params map[string]sqltypes.Value) (int64, error) {
	if len(st.Table.Parts) == 4 {
		text, err := renderDelete(st)
		if err != nil {
			return 0, err
		}
		return s.forward(st.Table.Parts[0], text, params)
	}
	if viewText, isView := s.viewTextFor(st.Table.Name()); isView {
		return s.deleteThroughView(viewText, st, params)
	}
	_, t, err := s.localTable(st.Table.Parts)
	if err != nil {
		return 0, err
	}
	where, _, err := bindDMLExprs(t.Def(), st.Where, nil)
	if err != nil {
		return 0, err
	}
	return s.dmlRows(cfg, t.Def(), where, params, func(sess *native.Session, table string, bm int64, _ *expr.Env) error {
		return sess.Delete(table, bm)
	})
}

// dmlRows is the qualifying-rows loop UPDATE and DELETE share. Under a fresh
// statement transaction — so rows qualify against one consistent snapshot —
// it reads the table through the access path dmlAccessPath picks, evaluates
// the whole WHERE on every row read, has write buffer one Update/Delete for
// each qualifying row (env.Row), and commits all-or-nothing, first writer wins.
func (s *Server) dmlRows(cfg *Config, def *schema.Table, where expr.Expr, params map[string]sqltypes.Value,
	write func(sess *native.Session, table string, bm int64, env *expr.Env) error) (int64, error) {
	sess, err := s.txnSession()
	if err != nil {
		return 0, err
	}
	defer sess.Close() // aborts the transaction on every path that did not commit
	table := def.Catalog + "." + def.Name
	env := &expr.Env{Params: params, Today: cfg.Today}
	rs, err := dmlAccessPath(sess, def, table, where, env)
	if err != nil {
		return 0, err
	}
	defer rs.Close()
	sc := rs.(rowset.Bookmarked)
	var examined, affected int64
	for {
		r, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, err
		}
		examined++
		env.Row = r
		if where != nil {
			ok, err := expr.EvalPredicate(where, env)
			if err != nil {
				return 0, err
			}
			if !ok {
				continue
			}
		}
		if err := write(sess, table, sc.Bookmark(), env); err != nil {
			return 0, err
		}
		affected++
	}
	if err := sess.Commit(); err != nil {
		return 0, err
	}
	s.invalidateTable("", def)
	if m := s.instr(); m != nil {
		m.dmlExamined.Add(examined)
		m.dmlAffected.Add(affected)
	}
	return affected, nil
}

// dmlAccessPath opens the rows a DML WHERE can qualify: the range of the
// index its sargable conjuncts bound on most sides (rules.IndexBounds, the
// matcher SELECT planning uses), else the full scan. dmlRows re-evaluates the
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
// positional layout.
func bindDMLExprs(def *schema.Table, where parser.Expr, set []parser.SetClause) (expr.Expr, []expr.Expr, error) {
	var boundWhere expr.Expr
	var err error
	if where != nil {
		boundWhere, err = binder.BindTableScalar(def, where)
		if err != nil {
			return nil, nil, err
		}
	}
	var setExprs []expr.Expr
	for _, sc := range set {
		if def.ColumnIndex(sc.Column) < 0 {
			return nil, nil, fmt.Errorf("engine: SET column %q not in table %s", sc.Column, def.Name)
		}
		e, err := binder.BindTableScalar(def, sc.E)
		if err != nil {
			return nil, nil, err
		}
		setExprs = append(setExprs, e)
	}
	return boundWhere, setExprs, nil
}

// insertIntoPartitionedView routes rows to member tables by their CHECK
// domains and commits across servers under the DTC (§4.1.5 partitioned
// views; §2 atomicity via MS DTC).
func (s *Server) insertIntoPartitionedView(viewName, viewText string, cols []string, rows []rowset.Row) (int64, error) {
	members, err := s.partitionedViewMembers(viewText)
	if err != nil {
		return 0, fmt.Errorf("engine: view %s: %w", viewName, err)
	}
	if len(members) == 0 {
		return 0, fmt.Errorf("engine: view %s is not insertable (no member tables)", viewName)
	}
	def := members[0].def
	ordered, err := reorderForTable(def, cols, rows)
	if err != nil {
		return 0, err
	}
	// Find the partitioning column: one whose domain is restricted in every
	// member.
	partOrd := -1
	for ord := range def.Columns {
		restrictedEverywhere := true
		for _, m := range members {
			d, ok := m.domains[ord]
			if !ok || d == nil {
				restrictedEverywhere = false
				break
			}
		}
		if restrictedEverywhere {
			partOrd = ord
			break
		}
	}
	if partOrd < 0 {
		return 0, fmt.Errorf("engine: view %s has no partitioning column (members need disjoint CHECK constraints)", viewName)
	}
	// Route rows.
	batches := make([][]rowset.Row, len(members))
	for _, r := range ordered {
		v := r[partOrd]
		target := -1
		for mi, m := range members {
			if m.domains[partOrd].Contains(v) {
				target = mi
				break
			}
		}
		if target < 0 {
			return 0, fmt.Errorf("engine: value %s of column %s falls outside every partition",
				v.Display(), def.Columns[partOrd].Name)
		}
		batches[target] = append(batches[target], r)
	}
	// Two-phase commit across the member servers.
	coord := dtc.New()
	txn := coord.Begin()
	total := int64(0)
	for mi, m := range members {
		if len(batches[mi]) == 0 {
			continue
		}
		member := m
		batch := batches[mi]
		total += int64(len(batch))
		validate := func() error {
			// Validate CHECK constraints before any member applies.
			checks, err := binder.CheckPredicate(member.def)
			if err != nil {
				return err
			}
			for _, r := range batch {
				for _, c := range checks {
					ok, err := expr.EvalPredicate(c.Pred, &expr.Env{Row: r})
					if err != nil {
						return err
					}
					if !ok {
						return fmt.Errorf("CHECK %s fails for %s", c.Text, r)
					}
				}
			}
			return nil
		}
		if member.server == "" {
			// The local storage engine is a real resource manager: phase
			// one buffers the batch into a transaction and durably logs a
			// prepare record (with a WAL attached, a crash between prepare
			// and the coordinator's decision recovers the transaction as
			// in-doubt with its row locks held), so phase two cannot fail.
			var ns *native.Session
			txn.Enlist(&dtc.FuncParticipant{
				Name: memberName(member),
				PrepareFn: func() error {
					if err := validate(); err != nil {
						return err
					}
					sess, err := s.txnSession()
					if err != nil {
						return err
					}
					ns = sess
					name := member.def.Catalog + "." + member.def.Name
					for _, r := range batch {
						if _, err := ns.Insert(name, r); err != nil {
							_ = ns.Abort()
							ns = nil
							return err
						}
					}
					return ns.Prepare()
				},
				CommitFn: func() error {
					if ns == nil {
						return fmt.Errorf("local participant committed without prepare")
					}
					return ns.Commit()
				},
				AbortFn: func() error {
					if ns == nil {
						return nil
					}
					return ns.Abort()
				},
			})
			continue
		}
		txn.Enlist(&dtc.FuncParticipant{
			Name:      memberName(member),
			PrepareFn: validate,
			CommitFn: func() error {
				return s.applyMemberInsert(member, batch)
			},
		})
	}
	if err := txn.Commit(); err != nil {
		return 0, err
	}
	// A rebalance in flight on this view replays committed keys from its
	// delta log before cutover; the statement is pinned against the gate, so
	// the log entry lands strictly before the move's barrier.
	if s.shards.MoveActive(viewName) {
		var keys []int64
		for _, r := range ordered {
			if k, ok := r[partOrd].AsInt(); ok {
				keys = append(keys, k)
			}
		}
		s.shards.NoteKeys(viewName, keys)
	}
	for mi, m := range members {
		if len(batches[mi]) > 0 {
			s.invalidateTable(m.server, m.def)
		}
	}
	return total, nil
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

// applyMemberInsert forwards a batch to a remote member as a VALUES
// insert (local members commit through their own prepared transaction).
func (s *Server) applyMemberInsert(m pvMember, batch []rowset.Row) error {
	var b strings.Builder
	b.WriteString("INSERT INTO " + m.def.Catalog + ".dbo." + m.def.Name + " VALUES ")
	for i, r := range batch {
		if i > 0 {
			b.WriteString(", ")
		}
		vals := make([]string, len(r))
		for j, v := range r {
			vals[j] = v.String()
		}
		b.WriteString("(" + strings.Join(vals, ", ") + ")")
	}
	_, err := s.forward(m.server, b.String(), nil)
	return err
}

// pvMember is one partitioned-view member table.
type pvMember struct {
	server  string
	def     *schema.Table
	domains map[int]*constraint.Domain // column ordinal -> CHECK domain
}

// memberName names a member's server for DTC participant identification.
func memberName(m pvMember) string {
	if m.server == "" {
		return "local"
	}
	return m.server
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
		def := res.Source.Def
		// Derive CHECK domains keyed by column ordinal.
		cols := make([]algebra.OutCol, len(def.Columns))
		for i, c := range def.Columns {
			cols[i] = algebra.OutCol{ID: expr.ColumnID(i + 1), Name: c.Name, Kind: c.Kind}
		}
		domains := map[int]*constraint.Domain{}
		for id, d := range binder.CheckDomains(def, cols) {
			domains[int(id)-1] = d
		}
		members = append(members, pvMember{server: res.Source.Server, def: def, domains: domains})
	}
	return members, nil
}
