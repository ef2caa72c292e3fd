package engine

import (
	"context"
	"fmt"
	"io"
	"slices"
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
	"dhqp/internal/storage"
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
	// memoized: member servers then read and ship only those.
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

// Cursor is one open SELECT, read by pulls: the rowset a consumer pulls
// in §3.1.2 (IRowset::GetNextRows). Opening it finds or compiles the plan,
// then takes a storage snapshot, the statement span and the timeout; the
// statement pin its opener took is held to Close. Each Pull runs the plan
// as far as its next root batch. Finish closes the operator tree, releases
// what the open took and publishes the statement's record, once, whether
// the consumer read every row, stopped early or failed.
type Cursor struct {
	s       *Server
	cfg     *Config
	base    context.Context
	col     *telemetry.Collector
	unpin   func() // the shard-map statement pin, or nil
	res     *Result
	run     *exec.Run
	plan    *cachedPlan // the cached plan the run is kept for, or nil
	snap    storage.Snapshot
	endSpan func()
	cancel  context.CancelFunc
	start   time.Time
	pulling time.Duration // time spent inside the plan: the execute phase
	err     error         // the statement's first failure
	closed  bool

	// NextBatch's place in the root batch it gathers from.
	root *rowset.Batch
	at   int
	ids  []int32
}

// newCursor starts a statement's cursor under cfg, recording into col;
// unpin releases the statement pin its caller took (nil: none).
func (s *Server) newCursor(ctx context.Context, cfg *Config, col *telemetry.Collector, unpin func()) *Cursor {
	if ctx == nil {
		ctx = context.Background()
	}
	return &Cursor{s: s, cfg: cfg, base: ctx, col: col, unpin: unpin}
}

// exec opens a compiled plan and returns the cursor, or finishes it and
// returns why the open failed. The record rides the statement context into
// every netsim call the plan makes (links are shared across concurrent
// statements, but each statement observes only its own calls); under a
// traced statement everything the plan does nests under one statement
// span, which lasts until Finish; the snapshot makes every local read see
// one commit sequence number. cached is the plan-cache entry a hit runs
// (nil on a miss): its operator tree is taken from the entry's kept trees
// when one fits, and kept there again by Finish.
func (c *Cursor) exec(text string, plan *algebra.Node, cols []schema.Column, params map[string]sqltypes.Value, cached *cachedPlan) (*Cursor, error) {
	s := c.s
	c.res = &Result{Cols: cols, Stats: &telemetry.QueryStats{QueryText: text, PlanCacheHit: cached != nil}}
	qctx := netsim.WithObserver(c.base, c.col)
	qctx, c.endSpan = telemetry.StartSpan(qctx, s.name, "statement", text)
	if c.cfg.QueryTimeout > 0 {
		qctx, c.cancel = context.WithTimeout(qctx, c.cfg.QueryTimeout)
	}
	c.snap = s.store.AcquireSnapshot()
	ctx := s.execContext(qctx, c.cfg, params, s.nativeSess.(*native.Session).AtSnapshot(c.snap.CSN()), c.col)
	c.start = time.Now()
	if run := cached.take(ctx); run != nil {
		if c.err = run.Reopen(ctx); c.err == nil {
			c.run = run
		}
	} else {
		c.run, c.err = exec.Open(plan, ctx)
	}
	c.pulling = time.Since(c.start)
	if c.err != nil {
		return nil, c.fail(c.err)
	}
	if c.run.Fits(ctx) {
		c.plan = cached
	}
	return c, nil
}

// fail finishes the cursor on a failure of its open and returns the error.
func (c *Cursor) fail(err error) error {
	_, err = c.Finish(err)
	return err
}

// Columns implements rowset.Cursor: the result's shape.
func (c *Cursor) Columns() []schema.Column { return c.res.Cols }

// Pull returns the statement's next non-empty root batch, valid until the
// next Pull, or io.EOF after the last. A failure is the statement's, and
// every later Pull returns it. Nothing may pull a finished cursor.
func (c *Cursor) Pull() (*rowset.Batch, error) {
	if c.err != nil {
		return nil, c.err
	}
	t0 := time.Now()
	b, err := c.run.Pull()
	c.pulling += time.Since(t0)
	if err == nil {
		c.res.Stats.Rows += int64(b.Len())
	} else if err != io.EOF {
		c.err = err
	}
	return b, err
}

// NextBatch implements rowset.Cursor, the member side of a link: it fills
// b to capacity by gathering rows out of as many root batches as that
// takes, one gather per row, so a fetch is full however the plan cut its
// batches (GetNextRows(cRows)). What a fetch leaves of a root batch waits
// for the next one; the member holds that batch, never its whole result.
func (c *Cursor) NextBatch(b *rowset.Batch) error {
	b.Reset(len(c.res.Cols))
	n := 0
	for n < b.CapRows() {
		if c.root == nil || c.at == c.root.Len() {
			root, err := c.Pull()
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			c.root, c.at = root, 0
		}
		live := c.root.Indices()[c.at:]
		live = live[:min(len(live), b.CapRows()-n)]
		c.ids = rowset.Int32s(c.ids, live)
		for j := range c.res.Cols {
			b.Col(j).Gather(n, c.root.Col(j), c.ids, false)
		}
		n += len(live)
		c.at += len(live)
	}
	if n == 0 {
		return io.EOF
	}
	b.SetNumRows(n)
	return nil
}

// Close implements rowset.Cursor: Finish with no failure of the consumer.
// The statement's own failure already reached the consumer from a pull.
func (c *Cursor) Close() error {
	c.Finish(nil)
	return nil
}

// Finish ends the statement. It closes the operator tree, records the
// execute phase as the time spent inside the plan and the serialize phase
// as the rest of the time the cursor was open, releases the snapshot,
// timeout, span and statement pin, and publishes the statement's record.
// err is the consumer's own failure (a result it could not deliver), or
// nil; the statement fails if it or a pull failed. Finish returns the
// statement's summary — a Result without Rows — or its error; a second
// call returns the same.
func (c *Cursor) Finish(err error) (*Result, error) {
	if c.closed {
		return c.res, c.err
	}
	c.closed = true
	if c.err == nil {
		c.err = err
	}
	if c.run != nil {
		t0 := time.Now()
		if cerr := c.run.Close(); cerr == nil && c.err == nil {
			c.plan.keep(c.run)
		}
		c.pulling += time.Since(t0)
	}
	if c.err != nil {
		c.res = nil
	} else {
		c.res.Stats.Elapsed = time.Since(c.start)
		c.col.RecordPhase(telemetry.PhaseExecute, c.pulling)
		c.col.RecordPhase(telemetry.PhaseSerialize, c.res.Stats.Elapsed-c.pulling)
	}
	c.snap.Release()
	if c.cancel != nil {
		c.cancel()
	}
	if c.endSpan != nil {
		c.endSpan()
	}
	c.res, c.err = c.s.publish(c.base, c.cfg, c.col, c.res, c.err)
	if c.unpin != nil {
		c.unpin()
	}
	return c.res, c.err
}

// readAll reads a cursor to its end and finishes it, boxing each root
// batch's rows over one backing array per batch into Result.Rows. The
// values are copies, since a root batch is valid only until the next pull
// and can be a window onto a columnar image.
func readAll(c *Cursor, err error) (*Result, error) {
	if err != nil {
		return nil, err
	}
	var batches [][]rowset.Row
	for b, err := c.Pull(); err == nil; b, err = c.Pull() { // Finish returns a pull's failure
		k, w := b.Len(), b.Width()
		vals, rows := make([]sqltypes.Value, k*w), make([]rowset.Row, k)
		for i := range rows {
			rows[i] = b.RowAt(i, vals[i*w:(i+1)*w:(i+1)*w])
		}
		batches = append(batches, rows)
	}
	res, err := c.Finish(nil)
	switch {
	case err != nil || len(batches) == 0:
	case len(batches) == 1:
		res.Rows = batches[0]
	default:
		res.Rows = slices.Concat(batches...)
	}
	return res, err
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
// cancelled-class error — remote transfers, retry backoffs and the pulls
// all observe it. A configured Config.QueryTimeout still applies on top.
// It reads OpenQuery's cursor to its end.
func (s *Server) QueryContext(ctx context.Context, sql string, params map[string]sqltypes.Value) (*Result, error) {
	return readAll(s.OpenQuery(ctx, sql, params))
}

// OpenQuery opens a SELECT as a cursor under ctx instead of materializing
// it. The serving layer pulls each network session's statement through
// one, writing a frame per root batch, which is what makes client-initiated
// cancel and KILL work and keeps a large result from ever being held whole.
//
// The cursor pins the shard-map statement gate from the plan-cache probe
// to Close, so an elastic topology cutover can never flip the map under an
// open statement: results always reflect exactly one map version.
func (s *Server) OpenQuery(ctx context.Context, sql string, params map[string]sqltypes.Value) (*Cursor, error) {
	return s.openQuery(ctx, sql, params, s.shards.PinStatement())
}

// openQuery is OpenQuery under the statement pin its caller took; nil
// means none, for callers that already coordinate with the gate (the
// rebalance copier runs inside the topology lock).
//
// The statement loads the server's Config once, here, and compiles and
// executes under it; a cached plan of another planning generation is a miss.
func (s *Server) openQuery(ctx context.Context, sql string, params map[string]sqltypes.Value, unpin func()) (*Cursor, error) {
	cfg := s.cfg.Load()
	c := s.newCursor(ctx, cfg, s.newRecord(cfg.CollectStats), unpin)
	if cached := s.lookupPlan(cfg, sql, false); cached != nil {
		// Cache hit: no compile spans, but the decoded remote texts are
		// a plan property, so collection still reports them.
		c.col.CaptureRemoteSQL(cached.plan)
		return c.exec(sql, cached.plan, cached.cols, params, cached)
	}
	s.notePlanMiss()
	plan, cols, _, err := s.planSQL(cfg, sql, c.col)
	if err != nil {
		return nil, c.fail(err)
	}
	s.cachePlan(sql, &cachedPlan{plan: plan, cols: cols, gen: cfg.planGen, keeps: keepsTrees(plan)})
	return c.exec(sql, plan, cols, params, nil)
}

// keptTrees bounds the operator trees a cached plan keeps between
// executions, and keptRows the rows a kept tree may hold room for in its
// operators' stores (Run.Held): a tree that grew past it is dropped, so an
// idle entry holds little whatever its statement reads. Counted over the
// repository benchmark's workloads (two clients each), no statement text
// had more than two executions in flight at once, and the largest kept
// tree held room for 8 192 rows (fed_row_ship; 2 024 in local_star_agg,
// 32 in a scatter member's partial aggregate). An execution that finds no
// kept tree builds one, as every execution did before trees were kept.
//
// keptReads bounds the rows a plan whose trees are kept is estimated to
// read (the estimated rows of its leaves). A kept tree saves a fixed cost
// per execution, building the operators and growing their scratch, which
// is much of a small statement's work: a point read (1 row), a scatter
// member's partial aggregate (1 000), fed_row_ship's member scans (4 000)
// and head join (16 520). A plan that reads hundreds of thousands of rows
// spends its execution on them, and what a kept tree adds there is warm
// caches, whose worth follows the host's load rather than the statement:
// local_star_agg's star join (201 000 rows) ran faster in the median with
// its tree kept, but its runs spread about twice as wide as with a tree
// built per execution, wider than the benchmark can resolve.
const (
	keptTrees = 2
	keptRows  = 1 << 14
	keptReads = 1 << 16
)

// keepsTrees reports whether a cached plan keeps its operator trees: it is
// estimated to read at most keptReads rows.
func keepsTrees(plan *algebra.Node) bool {
	return estReads(plan) <= keptReads
}

// estReads sums the estimated rows of the plan's leaves (0 where a node
// carries no estimate).
func estReads(n *algebra.Node) float64 {
	if len(n.Kids) == 0 {
		if n.Est == nil {
			return 0
		}
		return n.Est.Rows
	}
	var rows float64
	for _, k := range n.Kids {
		rows += estReads(k)
	}
	return rows
}

// take returns a kept operator tree that fits ctx, for this execution
// alone, or nil: always under stats collection, whose shims a kept tree
// lacks, and for a plan that keeps no trees. A kept tree that does not fit
// otherwise (the batch size or MaxDOP changed since it was built) is
// dropped. A nil plan keeps nothing.
func (p *cachedPlan) take(ctx *exec.Context) *exec.Run {
	if p == nil || !p.keeps || ctx.Stats.Collecting() {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for n := len(p.kept); n > 0; n = len(p.kept) {
		run := p.kept[n-1]
		p.kept[n-1], p.kept = nil, p.kept[:n-1]
		if run.Fits(ctx) {
			return run
		}
	}
	return nil
}

// keep releases a closed run's tree and keeps it for the plan's next
// execution, unless the plan keeps no trees, the tree holds room for more
// than keptRows rows or keptTrees are kept already. A nil plan keeps
// nothing.
func (p *cachedPlan) keep(run *exec.Run) {
	if p == nil || !p.keeps || run.Held() > keptRows {
		return
	}
	run.Release()
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.kept) < keptTrees {
		p.kept = append(p.kept, run)
	}
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
	if ctx == nil {
		ctx = context.Background()
	}
	tr, _ := telemetry.TraceFrom(ctx)
	if tr == nil {
		tr = telemetry.NewTrace()
		ctx = telemetry.WithTrace(ctx, tr, 0)
	}
	cfg := s.cfg.Load()
	c := s.newCursor(ctx, cfg, s.newRecord(true), s.shards.PinStatement())
	plan, cols, _, err := s.planSQL(cfg, sql, c.col)
	if err != nil {
		return nil, c.fail(err)
	}
	res, err := readAll(c.exec(sql, plan, cols, params, nil))
	if err != nil {
		return nil, err
	}
	return &telemetry.Explain{
		Plan:      plan,
		Ops:       c.col.Ops(),
		Stats:     res.Stats,
		RemoteSQL: c.col.RemoteSQL(),
		Skipped:   res.Skipped,
		Trace:     tr,
	}, nil
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
// server by its peers: an in-process federation member opens the shipped
// statement under the coordinator's context, so cancellation crosses the
// boundary and the member's statement span nests under the coordinator's
// remote-call span in one distributed trace.
//
// The result is the open cursor itself: each fetch the head makes runs the
// member's plan as far as that fetch needs and crosses the link as the
// typed columns the member's executor produced, and the head's Close ends
// the member's statement.
func (s *Server) QuerySQL(ctx context.Context, sql string, params map[string]sqltypes.Value) (rowset.Cursor, error) {
	c, err := s.OpenQuery(ctx, sql, params)
	if err != nil {
		return nil, err
	}
	return c, nil
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
