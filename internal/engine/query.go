package engine

import (
	"context"
	"fmt"
	"strings"
	"time"

	"dhqp/internal/algebra"
	"dhqp/internal/binder"
	"dhqp/internal/cost"
	"dhqp/internal/exec"
	"dhqp/internal/expr"
	"dhqp/internal/netsim"
	"dhqp/internal/oledb"
	"dhqp/internal/opt"
	"dhqp/internal/parser"
	"dhqp/internal/providers/native"
	"dhqp/internal/rowset"
	"dhqp/internal/rules"
	"dhqp/internal/schema"
	"dhqp/internal/sqltypes"
	"dhqp/internal/telemetry"
)

// Result is a query result set.
type Result struct {
	Cols []schema.Column
	Rows []rowset.Row
	// Retries counts remote call attempts that were retried (transient
	// faults absorbed) while producing this result.
	Retries int64
	// Skipped lists linked servers whose partitioned-view members were
	// skipped under partial-results execution (Config.PartialResults), sorted
	// and deduplicated. Empty means the result is complete.
	Skipped []string
	// Stats summarizes the execution (rows, elapsed, per-link traffic,
	// retries; phase spans when stats collection is on). Populated on every
	// Query; the same summary aggregates into Server.QueryStats().
	Stats *telemetry.QueryStats
}

// Display renders the result as text (REPL, examples), padding each cell to
// its column's width so the table reads in aligned columns.
func (r *Result) Display() string {
	widths := make([]int, len(r.Cols))
	for i, c := range r.Cols {
		widths[i] = len(c.Name)
	}
	cells := make([][]string, len(r.Rows))
	for ri, row := range r.Rows {
		cells[ri] = make([]string, len(row))
		for i, v := range row {
			cells[ri][i] = v.Display()
			if i < len(widths) && len(cells[ri][i]) > widths[i] {
				widths[i] = len(cells[ri][i])
			}
		}
	}
	var b strings.Builder
	writeRow := func(vals []string) {
		for i, v := range vals {
			if i > 0 {
				b.WriteString(" | ")
			}
			if i < len(vals)-1 && i < len(widths) {
				fmt.Fprintf(&b, "%-*s", widths[i], v)
			} else {
				// The last column is left unpadded: no trailing spaces.
				b.WriteString(v)
			}
		}
		b.WriteString("\n")
	}
	header := make([]string, len(r.Cols))
	for i, c := range r.Cols {
		header[i] = c.Name
	}
	writeRow(header)
	for _, row := range cells {
		writeRow(row)
	}
	return b.String()
}

// Plan compiles a SELECT into a physical plan (without executing it); it
// returns the plan, the result columns and the optimizer report.
func (s *Server) Plan(sql string) (*algebra.Node, []schema.Column, *opt.Report, error) {
	defer s.shards.PinStatement()()
	cfg := s.cfg.Load()
	col := s.newRecord(false)
	plan, cols, report, err := s.planSQL(cfg, sql, col)
	s.publish(context.Background(), cfg, col, nil, err)
	return plan, cols, report, err
}

// planSQL compiles a SELECT under cfg, recording the compile phases (parse,
// bind, optimize, decode) into the statement's record.
func (s *Server) planSQL(cfg *Config, sql string, col *telemetry.Collector) (*algebra.Node, []schema.Column, *opt.Report, error) {
	start := time.Now()
	st, err := parser.Parse(sql)
	col.RecordPhase(telemetry.PhaseParse, time.Since(start))
	if err != nil {
		return nil, nil, nil, err
	}
	sel, ok := st.(*parser.SelectStmt)
	if !ok {
		return nil, nil, nil, fmt.Errorf("engine: Plan expects a SELECT, got %T", st)
	}
	return s.planSelectWith(cfg, sel, col)
}

func (s *Server) planSelectWith(cfg *Config, sel *parser.SelectStmt, col *telemetry.Collector) (*algebra.Node, []schema.Column, *opt.Report, error) {
	start := time.Now()
	b := binder.New(&catalog{s: s})
	bound, err := b.BindSelect(sel)
	col.RecordPhase(telemetry.PhaseBind, time.Since(start))
	if err != nil {
		return nil, nil, nil, err
	}
	// Narrow scans to the columns the statement reads before the tree is
	// memoized: member servers then materialize and ship only those.
	binder.PruneColumns(bound)
	plan, report, err := s.optimize(cfg, bound.Root, bound.RequiredOrder, b.AllocCol, col)
	if err != nil {
		return nil, nil, nil, err
	}
	// Decode: record the remote statement texts the plan will ship (what
	// SQL Server Profiler would show as the remote events of this query).
	start = time.Now()
	col.CaptureRemoteSQL(plan)
	col.RecordPhase(telemetry.PhaseDecode, time.Since(start))
	s.mu.Lock()
	s.lastReport = report
	s.mu.Unlock()
	cols := make([]schema.Column, len(bound.ResultCols))
	for i, c := range bound.ResultCols {
		cols[i] = schema.Column{Name: c.Name, Kind: c.Kind, Nullable: true}
	}
	// Result columns ride on the plan's output in bound.ResultCols order;
	// the Project at the top of the bound tree guarantees the shape.
	return plan, cols, report, nil
}

// optimize runs the Cascades optimizer over a bound tree — a SELECT's, or a
// write's qualifying rows — under cfg; newCol allocates rules' new columns.
func (s *Server) optimize(cfg *Config, root *algebra.Node, order algebra.Ordering, newCol func() expr.ColumnID, col *telemetry.Collector) (*algebra.Node, *opt.Report, error) {
	md := s.newMetadata(root, cfg.UseRemoteStatistics)
	remoteBatch := cfg.RemoteBatchSize
	if remoteBatch == 0 {
		remoteBatch = cost.DefaultRemoteBatch
	}
	if cfg.DisableRemoteBatching {
		remoteBatch = 0 // the batched-join exploration rule declines
	}
	rctx := &rules.Context{
		CapsFor: func(server string) (oledb.Capabilities, bool) {
			return s.capsFor(server)
		},
		NewCol: newCol,
		FulltextIndex: func(src *algebra.Source, column string) (rules.FulltextIndexInfo, bool) {
			if src.Server != "" {
				return rules.FulltextIndexInfo{}, false
			}
			s.mu.Lock()
			cat, ok := s.ftIndexes[strings.ToLower(src.Catalog+"."+src.Table+"."+column)]
			s.mu.Unlock()
			if !ok {
				return rules.FulltextIndexInfo{}, false
			}
			return rules.FulltextIndexInfo{Server: ftServerName, Catalog: cat}, true
		},
		TableCardFn:             md.TableCardinality,
		DisableSpool:            cfg.DisableSpool,
		DisableParameterization: cfg.DisableParameterization,
		DisableAggSplit:         cfg.DisableAggSplit,
		RemoteBatchSize:         remoteBatch,
	}
	optCfg := cfg.OptConfig
	if optCfg.Model == nil {
		optCfg.Model = s.costModel()
	}
	start := time.Now()
	plan, report, err := opt.New(optCfg, rctx).Optimize(root, md, order)
	col.RecordPhase(telemetry.PhaseOptimize, time.Since(start))
	if err != nil {
		return nil, nil, fmt.Errorf("engine: optimizing: %w", err)
	}
	return plan, report, nil
}

// capsFor resolves capability sets for any server tag the optimizer sees.
func (s *Server) capsFor(server string) (oledb.Capabilities, bool) {
	switch server {
	case "":
		return s.nativeProv.Capabilities(), true
	case ftServerName:
		return oledb.Capabilities{ProviderName: "MSIDXS", SQLSupport: oledb.SQLProprietary, SupportsCommand: true}, true
	case mailServerName:
		return oledb.Capabilities{ProviderName: "Microsoft.Mail", SQLSupport: oledb.SQLNone}, true
	}
	s.mu.Lock()
	if caps, ok := s.extraCaps[server]; ok {
		s.mu.Unlock()
		return caps, true
	}
	l, ok := s.linked[strings.ToLower(server)]
	s.mu.Unlock()
	if !ok {
		return oledb.Capabilities{}, false
	}
	return l.caps, true
}

// runtime implements exec.Runtime.
type runtime struct {
	s *Server
	// local, when set, is the statement's snapshot-pinned view of the
	// native provider: every local access this execution makes observes
	// the same commit sequence number, so concurrent writers never tear
	// a statement's reads.
	local oledb.Session
}

// SessionFor implements exec.Runtime.
func (rt *runtime) SessionFor(server string) (oledb.Session, error) {
	s := rt.s
	switch server {
	case "":
		if rt.local != nil {
			return rt.local, nil
		}
		return s.nativeSess, nil
	case ftServerName:
		prov := ftProviderOf(s)
		return prov.CreateSession()
	case mailServerName:
		return mailSessionOf(s)
	}
	if sess, ok := s.extraSession(server); ok {
		return sess, nil
	}
	l, err := s.linkedFor(server)
	if err != nil {
		return nil, err
	}
	return s.sessionOf(l)
}

// extraSession returns an ad-hoc provider session (OPENROWSET, MakeTable)
// registered under key; binding adds them while other statements compile.
func (s *Server) extraSession(key string) (oledb.Session, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.extraSessions[key]
	return sess, ok
}

// ResultSink receives a streamed SELECT result: Columns once, after the
// statement compiles and before it executes, then every non-empty root
// batch in order. A batch is valid only for the duration of the call; an
// error from either method aborts the statement and is returned by it.
// Time spent inside Batch is the statement's serialize phase.
type ResultSink interface {
	Columns(cols []schema.Column) error
	Batch(b *rowset.Batch) error
}

// boxer is the ResultSink behind Query and the other materializing entry
// points: it boxes each root batch's live rows straight into Result.Rows,
// one backing array per batch. The values are copies, since a root batch
// is valid only during the call and can be a window onto a columnar image.
type boxer struct {
	n       int
	batches [][]rowset.Row
}

func (bx *boxer) Columns([]schema.Column) error { return nil }

func (bx *boxer) Batch(b *rowset.Batch) error {
	n, w := b.Len(), b.Width()
	vals, rows := make([]sqltypes.Value, n*w), make([]rowset.Row, n)
	for i := range rows {
		rows[i] = b.RowAt(i, vals[i*w:(i+1)*w:(i+1)*w])
	}
	bx.batches, bx.n = append(bx.batches, rows), bx.n+n
	return nil
}

// rows returns every boxed row in order.
func (bx *boxer) rows() []rowset.Row {
	switch len(bx.batches) {
	case 0:
		return nil
	case 1:
		return bx.batches[0]
	}
	out := make([]rowset.Row, 0, bx.n)
	for _, rows := range bx.batches {
		out = append(out, rows...)
	}
	return out
}

// materializer is the ResultSink behind QuerySQL: it gathers each root
// batch into a rowset.Store, copying for the same reason, so a member's
// result keeps the typed columns its executor produced.
type materializer struct {
	cols []schema.Column
	s    rowset.Store
}

func (mz *materializer) Columns(cols []schema.Column) error {
	mz.cols = cols
	mz.s.Reset(len(cols))
	return nil
}

func (mz *materializer) Batch(b *rowset.Batch) error {
	mz.s.AddBatch(b)
	return nil
}

// materialize runs a streaming entry point into a boxer and returns its
// result with Rows filled.
func materialize(run func(ResultSink) (*Result, error)) (*Result, error) {
	var bx boxer
	res, err := run(&bx)
	if err != nil {
		return nil, err
	}
	res.Rows = bx.rows()
	return res, nil
}

// Query parses, optimizes and executes a SELECT. Compiled plans cache by
// statement text; parameters bind at execution time (startup filters and
// parameterized access paths re-evaluate per run), so one cached plan
// serves every parameter value.
func (s *Server) Query(sql string, params map[string]sqltypes.Value) (*Result, error) {
	return s.QueryContext(context.Background(), sql, params)
}

// QueryContext is Query under a caller-supplied context: cancelling it (or
// its deadline passing) aborts the statement mid-execution with a
// cancelled-class error — remote transfers, retry backoffs and the row loop
// all observe it. A configured Config.QueryTimeout still applies on top. It is
// QueryStreamContext into a boxer.
func (s *Server) QueryContext(ctx context.Context, sql string, params map[string]sqltypes.Value) (*Result, error) {
	return materialize(func(sink ResultSink) (*Result, error) {
		return s.QueryStreamContext(ctx, sql, params, sink)
	})
}

// QueryStreamContext is QueryContext handing the result to sink one root
// batch at a time instead of materializing it: the returned Result carries
// everything but Rows (Stats.Rows counts them). The serving layer threads
// each network session's query context and frame encoder through here,
// which is what makes client-initiated cancel and KILL work and keeps a
// large result from ever being held whole.
//
// The statement pins the shard-map statement gate for its whole lifetime
// (plan-cache probe through the last batch), so an elastic topology
// cutover can never flip the map under a running statement: results always
// reflect exactly one map version.
func (s *Server) QueryStreamContext(ctx context.Context, sql string, params map[string]sqltypes.Value, sink ResultSink) (*Result, error) {
	defer s.shards.PinStatement()()
	return s.queryContext(ctx, sql, params, sink)
}

// queryContext is QueryStreamContext without the shard-map statement pin —
// the inner entry point for callers that already coordinate with the gate
// (the rebalance copier runs inside the topology lock; re-entrant statement
// work like partitioned-view DML fan-out must not re-acquire a gate its
// outer statement already holds).
//
// The statement loads the server's Config once, here, and compiles and
// executes under it; a cached plan of another planning generation is a miss.
func (s *Server) queryContext(ctx context.Context, sql string, params map[string]sqltypes.Value, sink ResultSink) (*Result, error) {
	cfg := s.cfg.Load()
	col := s.newRecord(cfg.CollectStats)
	if cached := s.lookupPlan(cfg, sql, false); cached != nil {
		// Cache hit: no compile spans, but the decoded remote texts are
		// a plan property, so collection still reports them.
		col.CaptureRemoteSQL(cached.plan)
		res, err := s.runPlan(ctx, cfg, sql, cached.plan, cached.cols, params, true, col, sink)
		return s.publish(ctx, cfg, col, res, err)
	}
	s.notePlanMiss()
	plan, cols, _, err := s.planSQL(cfg, sql, col)
	if err != nil {
		return s.publish(ctx, cfg, col, nil, err)
	}
	s.cachePlan(sql, &cachedPlan{plan: plan, cols: cols, gen: cfg.planGen})
	res, err := s.runPlan(ctx, cfg, sql, plan, cols, params, false, col, sink)
	return s.publish(ctx, cfg, col, res, err)
}

// lookupPlan returns sql's cached plan of the kind the caller runs, a
// write's or a SELECT's, and counts the hit. The caller counts a miss
// (notePlanMiss) once it knows the text compiles into the cache: Exec must
// parse it first. A stale write plan is a miss; whether it is stale reads
// its tables' locks, which a commit holds across its fsync, so not under
// s.mu.
func (s *Server) lookupPlan(cfg *Config, sql string, write bool) *cachedPlan {
	s.mu.Lock()
	cached, ok := s.planCache.Get(sql)
	s.mu.Unlock()
	if !ok || cached.gen != cfg.planGen || (cached.write != nil) != write || cached.write.stale() {
		return nil
	}
	s.planCacheHits.Add(1)
	if m := s.instr(); m != nil {
		m.planHits.Inc()
	}
	return cached
}

// notePlanMiss counts a plan-cache probe that found no plan to run.
func (s *Server) notePlanMiss() {
	s.planCacheMisses.Add(1)
	if m := s.instr(); m != nil {
		m.planMisses.Inc()
	}
}

// cachePlan caches a compiled plan under its statement text.
func (s *Server) cachePlan(sql string, p *cachedPlan) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.planCache.Put(sql, p) {
		s.planCacheEvictions++
		if m := s.instr(); m != nil {
			m.planEvictions.Inc()
		}
	}
}

// ExplainAnalyze compiles and executes a SELECT with full statistics
// collection — regardless of Config.CollectStats — and returns the physical plan
// annotated with estimated vs. actual rows per operator, pipeline phase
// spans, decoded remote statements and per-linked-server network metrics
// (the reproduction of an actual execution plan / SET STATISTICS PROFILE).
// The statement really executes; its summary aggregates into QueryStats()
// like any other execution, but the plan cache is bypassed so the report
// always reflects a fresh compilation.
func (s *Server) ExplainAnalyze(sql string, params map[string]sqltypes.Value) (*telemetry.Explain, error) {
	return s.ExplainAnalyzeContext(context.Background(), sql, params)
}

// ExplainAnalyzeContext is ExplainAnalyze under a caller-supplied context.
// The statement always runs traced: if the context already carries a trace
// (a serving-layer session propagating the client's) the statement joins
// it, otherwise a fresh trace starts here; either way the report renders
// the distributed span tree.
func (s *Server) ExplainAnalyzeContext(ctx context.Context, sql string, params map[string]sqltypes.Value) (*telemetry.Explain, error) {
	defer s.shards.PinStatement()()
	cfg := s.cfg.Load()
	col := s.newRecord(true)
	if ctx == nil {
		ctx = context.Background()
	}
	plan, cols, _, err := s.planSQL(cfg, sql, col)
	if err != nil {
		_, err = s.publish(ctx, cfg, col, nil, err)
		return nil, err
	}
	tr, _ := telemetry.TraceFrom(ctx)
	if tr == nil {
		tr = telemetry.NewTrace()
		ctx = telemetry.WithTrace(ctx, tr, 0)
	}
	res, err := materialize(func(sink ResultSink) (*Result, error) {
		res, err := s.runPlan(ctx, cfg, sql, plan, cols, params, false, col, sink)
		return s.publish(ctx, cfg, col, res, err)
	})
	if err != nil {
		return nil, err
	}
	return &telemetry.Explain{
		Plan:      plan,
		Ops:       col.Ops(),
		Stats:     res.Stats,
		RemoteSQL: col.RemoteSQL(),
		Skipped:   res.Skipped,
		Trace:     tr,
	}, nil
}

// runPlan executes a compiled plan into sink under cfg's execution fields,
// recording into col; the caller publishes the record. Execution and
// serialization interleave a batch at a time; the time spent inside
// sink.Batch is reported as the serialize phase and the rest as execute.
// The Result carries the statement's own summary; publish adds the record's.
func (s *Server) runPlan(base context.Context, cfg *Config, queryText string, plan *algebra.Node, cols []schema.Column, params map[string]sqltypes.Value, cacheHit bool, col *telemetry.Collector, sink ResultSink) (*Result, error) {
	if base == nil {
		base = context.Background()
	}
	// The record rides the statement context into every netsim call this
	// execution makes: links are shared across concurrent statements, but
	// each statement observes only its own calls.
	qctx := netsim.WithObserver(base, col)
	// Under a traced statement (a serving-layer session carrying a client
	// trace, or EXPLAIN ANALYZE) everything this execution does nests under
	// one statement span; remote calls open child spans below it.
	qctx, endSpan := telemetry.StartSpan(qctx, s.name, "statement", queryText)
	defer endSpan()
	if cfg.QueryTimeout > 0 {
		var cancel context.CancelFunc
		qctx, cancel = context.WithTimeout(qctx, cfg.QueryTimeout)
		defer cancel()
	}
	// Pin the statement to a snapshot: local scans, index ranges and
	// bookmark fetches all read as of one commit sequence number
	// (snapshot isolation for readers; writers never block them).
	snap := s.store.AcquireSnapshot()
	defer snap.Release()
	ctx := s.execContext(qctx, cfg, params, s.nativeSess.(*native.Session).AtSnapshot(snap.CSN()), col)
	if err := sink.Columns(cols); err != nil {
		return nil, err
	}
	var rows int64
	var serialize time.Duration
	start := time.Now()
	err := exec.Stream(plan, ctx, func(b *rowset.Batch) error {
		t0 := time.Now()
		rows += int64(b.Len())
		err := sink.Batch(b)
		serialize += time.Since(t0)
		return err
	})
	elapsed := time.Since(start)
	if err != nil {
		return nil, err
	}
	col.RecordPhase(telemetry.PhaseExecute, elapsed-serialize)
	col.RecordPhase(telemetry.PhaseSerialize, serialize)
	return &Result{Cols: cols, Stats: &telemetry.QueryStats{
		QueryText:    queryText,
		PlanCacheHit: cacheHit,
		Rows:         rows,
		Elapsed:      elapsed,
	}}, nil
}

// execContext is the executor's context for one execution under cfg. local
// is the native session every local read goes through: a SELECT's snapshot
// view, or a write's statement transaction.
func (s *Server) execContext(qctx context.Context, cfg *Config, params map[string]sqltypes.Value, local oledb.Session, col *telemetry.Collector) *exec.Context {
	if params == nil {
		params = map[string]sqltypes.Value{}
	}
	ctx := &exec.Context{
		RT: &runtime{s: s, local: local}, Env: expr.Env{Params: params, Today: cfg.Today},
		MaxDOP: cfg.MaxDOP, RemoteBatchSize: cfg.RemoteBatchSize, BatchSize: cfg.BatchSize,
		Ctx: qctx, RetryAttempts: cfg.RemoteRetries, RetryBackoff: cfg.RetryBackoff,
		BreakerFor: s.breakerFor, PartialResults: cfg.PartialResults,
		Stats: col, Server: s.name,
	}
	if s.shards.Active() {
		// Skipped-partition diagnostics name shard ranges and the map
		// version this pinned statement planned against.
		ctx.SkipLabelFor = s.shards.SkipLabel
	}
	return ctx
}

// QuerySQL implements sqlful.Target, making this server usable as a linked
// server by its peers: an in-process federation member executes the shipped
// statement under the coordinator's context, so cancellation crosses the
// boundary and the member's statement span nests under the coordinator's
// remote-call span in one distributed trace.
//
// The result is the store the member's root batches were gathered into,
// so it crosses the link as the typed columns the member's executor
// produced.
func (s *Server) QuerySQL(ctx context.Context, sql string, params map[string]sqltypes.Value) (*rowset.Materialized, error) {
	var mz materializer
	if _, err := s.QueryStreamContext(ctx, sql, params, &mz); err != nil {
		return nil, err
	}
	return rowset.FromStore(mz.cols, &mz.s), nil
}

// ExecSQL implements sqlful.Target for remote DML/DDL.
func (s *Server) ExecSQL(sql string, params map[string]sqltypes.Value) (int64, error) {
	return s.ExecParams(sql, params)
}

// NativeSession implements sqlful.Target.
func (s *Server) NativeSession() (oledb.Session, error) {
	return s.nativeProv.CreateSession()
}

// DescribeSQL implements sqlful.Target: plan the statement (without
// executing) and report its output shape.
func (s *Server) DescribeSQL(sql string) ([]schema.Column, error) {
	_, cols, _, err := s.Plan(sql)
	return cols, err
}
