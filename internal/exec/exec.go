// Package exec implements the execution engine: a pull-based iterator per
// physical operator. Both local and remote access paths flow through the
// oledb.Session interface — the paper's unification property (§2): the
// executor cannot tell the local storage engine from a linked server except
// by which session it asked for.
//
// Iterators follow one Open/NextBatch/Close protocol where Open restarts
// the iterator and NextBatch hands up a column batch; loop joins re-Open
// their inner side per outer row, binding correlation parameters first
// (the parameterized execution of §4.1.2).
package exec

import (
	"context"
	"fmt"
	"math"
	"time"

	"dhqp/internal/algebra"
	"dhqp/internal/circuit"
	"dhqp/internal/cost"
	"dhqp/internal/expr"
	"dhqp/internal/oledb"
	"dhqp/internal/rowset"
	"dhqp/internal/sqltypes"
	"dhqp/internal/telemetry"
)

// Runtime resolves provider sessions; the engine implements it. Server ""
// is the local storage engine's native provider.
type Runtime interface {
	SessionFor(server string) (oledb.Session, error)
}

// Context carries one statement execution's state.
type Context struct {
	RT Runtime
	// Env holds the @name parameter values — loop joins bind correlation
	// parameters there between inner re-opens — and the session date for
	// today(); every expression an operator evaluates reads it.
	expr.Env
	// MaxDOP caps the degree of parallelism of exchange operators (the
	// parallel Concat fan-out). 0 means no cap: every child is in flight
	// at once; 1 disables parallel execution.
	MaxDOP int
	// RemoteBatchSize is the number of keys per batched remote call: it
	// caps how many outer rows a BatchLoopJoin buffers per probe and sizes
	// remoteFetchIter's bookmark batches. 0 means cost.DefaultRemoteBatch.
	RemoteBatchSize int
	// BatchSize is the execution batch row count; 0 means
	// rowset.DefaultBatchSize and values above rowset.MaxBatchSize clamp
	// down. Read per execution (never baked into compiled plans).
	BatchSize int

	// Ctx is the statement's deadline/cancellation context; nil means no
	// deadline. It threads into remote sessions (oledb.ContextSession) so
	// in-flight simulated transfers abort instead of sleeping out, and
	// into retry backoff waits.
	Ctx context.Context
	// RetryAttempts is the remote-call attempt budget per operation
	// (including the first attempt); 0 means DefaultRetryAttempts, 1
	// disables retries.
	RetryAttempts int
	// RetryBackoff is the base backoff between attempts (doubled per
	// retry with full jitter); 0 means DefaultRetryBackoff.
	RetryBackoff time.Duration
	// BreakerFor resolves a linked server's circuit breaker; nil (the
	// function or its result) disables breaking for that server.
	BreakerFor func(server string) *circuit.Breaker
	// PartialResults lets a UNION ALL fan-out skip branches whose server's
	// breaker is open, recording them in Stats, instead of failing the
	// query (degraded partitioned-view mode).
	PartialResults bool
	// SkipLabelFor, when set, rewrites a skipped branch's label before it
	// is recorded in Stats (the engine maps linked-server names onto shard
	// ranges and the shard-map version the statement is pinned to, so
	// partial results report against the live topology, not DDL text).
	SkipLabelFor func(label string) string
	// Stats is the statement's record, its one accounting handle: retries,
	// breaker trips, skipped partitions, backoff waits, root batches and
	// startup filters land there once each. When its detailed layer is on,
	// Build also wraps every iterator in an instrumented shim recording
	// per-operator actual rows, Open/NextBatch calls, and wall time (EXPLAIN
	// ANALYZE / SET STATISTICS PROFILE); off, the tree stays shim-free. Nil
	// records nothing.
	Stats *telemetry.Collector
	// Server is the executing member's name, used to attribute trace
	// spans opened by remote access operators ("" = unnamed).
	Server string

	// run numbers the executions of a kept tree: Run.Reopen bumps it, and
	// an operator whose state outlives a re-Open (the spool's buffer)
	// replays that state only within the execution that filled it.
	run uint64
	// tree is the operator tree's own bookkeeping, which the context keeps
	// when it takes another execution's fields (inherit, rebind).
	tree treeParts
}

// treeParts lists what Run.Release and Run.Held walk: every batch newBatch
// made for the tree, every store an operator keeps rows in, and the
// contexts fork made for exchange children.
type treeParts struct {
	batches []*rowset.Batch
	stores  []*rowset.Store
	forks   []*Context
}

// remoteBatch returns the effective batched-remote-access size.
func (c *Context) remoteBatch() int {
	if c.RemoteBatchSize > 0 {
		return c.RemoteBatchSize
	}
	return cost.DefaultRemoteBatch
}

// newBatch allocates a batch of this statement's batch size, one an
// operator keeps for the life of its tree.
func (c *Context) newBatch() *rowset.Batch { return c.keep(rowset.NewBatch(c.BatchSize)) }

// keep lists b among the tree's batches, for Run.Release, and returns it.
func (c *Context) keep(b *rowset.Batch) *rowset.Batch {
	c.tree.batches = append(c.tree.batches, b)
	return b
}

// hold lists an operator's row store among the tree's, for Run.Held.
func (c *Context) hold(s *rowset.Store) { c.tree.stores = append(c.tree.stores, s) }

// held sums the rows the stores of the context and its forks have room
// for.
func (c *Context) held() int {
	n := 0
	for _, s := range c.tree.stores {
		n += s.Room()
	}
	for _, f := range c.tree.forks {
		n += f.held()
	}
	return n
}

// firstN grows seq to hold 0, 1, 2, … and returns its first n entries:
// the identity selection over n rows.
func firstN(seq *[]int, n int) []int {
	for len(*seq) < n {
		*seq = append(*seq, len(*seq))
	}
	return (*seq)[:n]
}

// fork returns a child context with a private parameter map. Parallel
// exchange children each execute against their own fork so a correlated
// loop join binding parameters inside one child cannot race a sibling.
// Fault-tolerance state (deadline, breakers) and the record are shared:
// those are per-statement, not per-branch, and are themselves
// concurrency-safe.
func (c *Context) fork() *Context {
	f := &Context{}
	f.inherit(c)
	c.tree.forks = append(c.tree.forks, f)
	return f
}

// inherit takes the parent's per-execution fields and a snapshot of its
// parameter values (called at each exchange Open, so a re-open under a
// parameterized parent, or the next execution of a kept tree, sees fresh
// values), keeping its own parameter map and tree bookkeeping.
func (c *Context) inherit(parent *Context) {
	params, tree := c.Params, c.tree
	*c = *parent
	c.tree = tree
	if params == nil {
		params = make(map[string]sqltypes.Value, len(parent.Params))
	}
	clear(params)
	for k, v := range parent.Params {
		params[k] = v
	}
	c.Params = params
}

// release drops the per-execution fields and every borrowed image window
// in the context's batches, its forks' included. A fork keeps its own
// parameter map, emptied, for inherit to refill at the next execution.
func (c *Context) release() {
	for _, b := range c.tree.batches {
		b.Release()
	}
	for _, f := range c.tree.forks {
		params := f.Params
		f.release()
		clear(params)
		f.Params = params
	}
	c.rebind(&Context{})
}

// rebind takes next's per-execution fields, keeping the tree's own
// bookkeeping, and counts a new execution.
func (c *Context) rebind(next *Context) {
	run, tree := c.run, c.tree
	*c = *next
	c.run, c.tree = run+1, tree
}

// Iterator is one operator's cursor. Open (re)starts execution; NextBatch
// fills the caller's batch with up to its capacity in rows and returns
// io.EOF only on an empty fill. A batch handed up is valid until the next
// call.
type Iterator interface {
	Open() error
	NextBatch(b *rowset.Batch) error
	Close() error
}

// Build compiles a physical plan into an iterator tree. With stats
// collection on (ctx.Stats.Collecting) every operator's iterator is wrapped
// in an instrumented shim; the recursion goes through Build, so the whole
// tree is shimmed uniformly, including exchange children built under forked
// contexts.
func Build(n *algebra.Node, ctx *Context) (Iterator, error) {
	it, err := buildOp(n, ctx)
	if err != nil || !ctx.Stats.Collecting() {
		return it, err
	}
	return &statsIter{child: it, stats: ctx.Stats.OpStats(n)}, nil
}

// buildOp dispatches one operator to its iterator constructor.
func buildOp(n *algebra.Node, ctx *Context) (Iterator, error) {
	switch op := n.Op.(type) {
	case *algebra.TableScan:
		return newScan(ctx, op.Src, op.Cols), nil
	case *algebra.RemoteScan:
		return newScan(ctx, op.Src, op.Cols), nil
	case *algebra.IndexRange:
		return newIndexRange(ctx, op.Src, op.Index, op.Lo, op.Hi, op.Cols)
	case *algebra.RemoteRange:
		return newIndexRange(ctx, op.Src, op.Index, op.Lo, op.Hi, op.Cols)
	case *algebra.RemoteQuery:
		return &remoteQueryIter{source: source{ctx: ctx}, op: op}, nil
	case *algebra.ProviderCommand:
		return &providerCommandIter{source: source{ctx: ctx}, op: op}, nil
	case *algebra.RemoteFetch:
		child, err := Build(n.Kids[0], ctx)
		if err != nil {
			return nil, err
		}
		kidCols := n.Kids[0].OutCols()
		keyPos := posOf(kidCols, op.KeyCol)
		if keyPos < 0 {
			return nil, fmt.Errorf("exec: RemoteFetch key col%d not in child output", op.KeyCol)
		}
		cpos := make([]int, len(kidCols))
		for i := range cpos {
			cpos[i] = i
		}
		r := &remoteFetchIter{ctx: ctx, op: op, feed: rowFeed{child: child}, keyPos: keyPos, cpos: cpos}
		ctx.hold(&r.rows)
		return r, nil
	case *algebra.Filter:
		child, err := Build(n.Kids[0], ctx)
		if err != nil {
			return nil, err
		}
		pred, err := bindExpr(op.Pred, n.Kids[0].OutCols())
		if err != nil {
			return nil, err
		}
		return &filterIter{ctx: ctx, child: child, pred: pred}, nil
	case *algebra.StartupFilter:
		child, err := Build(n.Kids[0], ctx)
		if err != nil {
			return nil, err
		}
		// Startup predicates reference only parameters; bind against an
		// empty layout.
		pred, err := expr.Bind(op.Pred, map[expr.ColumnID]int{})
		if err != nil {
			return nil, err
		}
		return &startupFilterIter{ctx: ctx, child: child, pred: pred, stats: ctx.Stats.OpStats(n)}, nil
	case *algebra.Compute:
		child, err := Build(n.Kids[0], ctx)
		if err != nil {
			return nil, err
		}
		kidCols := n.Kids[0].OutCols()
		exprs := make([]expr.Expr, len(op.Exprs))
		for i, pe := range op.Exprs {
			bound, err := bindExpr(pe.E, kidCols)
			if err != nil {
				return nil, err
			}
			exprs[i] = bound
		}
		return &computeIter{ctx: ctx, child: child, exprs: exprs}, nil
	case *algebra.HashJoin:
		return buildHashJoin(n, op, ctx)
	case *algebra.LoopJoin, *algebra.BatchLoopJoin:
		return buildLoopJoin(n, ctx)
	case *algebra.HashAgg:
		return buildAgg(n, op.GroupCols, op.Aggs, ctx, false)
	case *algebra.StreamAgg:
		return buildAgg(n, op.GroupCols, op.Aggs, ctx, true)
	case *algebra.Sort:
		return buildTop(n, op.Order, math.MaxInt64, ctx)
	case *algebra.TopN:
		return buildTop(n, op.Order, op.N, ctx)
	case *algebra.Concat:
		return buildConcat(n, op, ctx)
	case *algebra.Spool:
		child, err := Build(n.Kids[0], ctx)
		if err != nil {
			return nil, err
		}
		sp := &spoolIter{ctx: ctx, child: child, width: len(n.Kids[0].OutCols())}
		ctx.hold(&sp.buf)
		return sp, nil
	case *algebra.ConstScan:
		return buildConstScan(op, ctx)
	case *algebra.EmptyScan:
		return &emptyIter{}, nil
	default:
		return nil, fmt.Errorf("exec: operator %s is not executable (logical operator reached the executor?)", n.Op.OpName())
	}
}

// Run is an executing plan read by pulls: Open builds and opens the
// operator tree, each Pull returns the next non-empty root batch, and Close
// closes the tree. A consumer holds O(batch) of the result, never all of it,
// and one that stops pulling stops the plan. A closed run can be released
// and executed again (Reopen) on the same tree, so a cached plan that runs
// often builds its operators and grows their scratch once.
type Run struct {
	it  Iterator
	ctx *Context
	b   *rowset.Batch

	// The shape the tree was built for: its batch size and exchange
	// widths.
	batchSize, maxDOP int
}

// Open builds and opens the plan's operator tree.
func Open(n *algebra.Node, ctx *Context) (*Run, error) {
	it, err := Build(n, ctx)
	if err != nil {
		return nil, err
	}
	r := &Run{it: it, ctx: ctx, b: ctx.newBatch(), batchSize: ctx.BatchSize, maxDOP: ctx.MaxDOP}
	if err := it.Open(); err != nil {
		it.Close()
		return nil, err
	}
	return r, nil
}

// Fits reports whether the run's tree may execute (again) under ctx: it
// was built for the same batch size and degree of parallelism, and ctx
// collects no per-operator statistics, whose shims record into the record
// of the statement that built them — so a tree built under collection
// fits no other execution either.
func (r *Run) Fits(ctx *Context) bool {
	return !ctx.Stats.Collecting() && r.batchSize == ctx.BatchSize && r.maxDOP == ctx.MaxDOP
}

// Reopen executes a released run's tree again under ctx's per-execution
// fields (runtime and snapshot session, parameters, statement context,
// record, retry and breaker settings), which it copies into the context
// the operators hold; the exchanges pass them on to their children's
// contexts at Open. On failure the tree is closed, as Open's is. The
// caller checked Fits.
func (r *Run) Reopen(ctx *Context) error {
	r.ctx.rebind(ctx)
	if err := r.it.Open(); err != nil {
		r.it.Close()
		return err
	}
	return nil
}

// Release readies a closed run for keeping: every batch of the tree drops
// its borrowed windows onto table images, and every context its
// per-execution fields, so a kept tree pins no snapshot, image, member
// cursor or record. The operators' scratch stays, sized by the executions
// so far.
func (r *Run) Release() { r.ctx.release() }

// Held reports the rows the tree's operators have room for in their row
// stores — hash join builds, aggregate groups, sort and spool buffers —
// which a kept tree holds between executions, and whatever it hashes or
// heaps over them in proportion.
func (r *Run) Held() int { return r.ctx.held() }

// Pull returns the next non-empty root batch, valid until the next Pull,
// or io.EOF after the last. It checks the statement's cancellation first
// and counts every root batch in the record.
func (r *Run) Pull() (*rowset.Batch, error) {
	for {
		if err := r.ctx.canceled(); err != nil {
			return nil, err
		}
		if err := r.it.NextBatch(r.b); err != nil {
			return nil, err
		}
		r.ctx.Stats.RecordBatch(r.b.Len())
		if r.b.Len() > 0 {
			return r.b, nil
		}
	}
}

// Close closes the operator tree.
func (r *Run) Close() error { return r.it.Close() }

// bindExpr resolves an expression against a child operator's output layout.
func bindExpr(e expr.Expr, cols []algebra.OutCol) (expr.Expr, error) {
	if e == nil {
		return nil, nil
	}
	layout := make(map[expr.ColumnID]int, len(cols))
	for i, c := range cols {
		layout[c.ID] = i
	}
	return expr.Bind(e, layout)
}

func posOf(cols []algebra.OutCol, id expr.ColumnID) int {
	for i, c := range cols {
		if c.ID == id {
			return i
		}
	}
	return -1
}

// buildTop builds a TopN, or a Sort as a top-N with no limit.
func buildTop(n *algebra.Node, order algebra.Ordering, limit int64, ctx *Context) (Iterator, error) {
	child, err := Build(n.Kids[0], ctx)
	if err != nil {
		return nil, err
	}
	t := &topIter{ctx: ctx, child: child, n: limit, width: len(n.Kids[0].OutCols()), ordinals: make([]int, len(order)), desc: make([]bool, len(order))}
	ctx.hold(&t.rows)
	ctx.hold(&t.spare)
	for i, oc := range order {
		if t.ordinals[i] = posOf(n.Kids[0].OutCols(), oc.Col); t.ordinals[i] < 0 {
			return nil, fmt.Errorf("exec: ordering column col%d not in input", oc.Col)
		}
		t.desc[i] = oc.Desc
	}
	return t, nil
}
