package exec

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"strings"

	"dhqp/internal/algebra"
	"dhqp/internal/circuit"
	"dhqp/internal/expr"
	"dhqp/internal/rowset"
	"dhqp/internal/sqltypes"
	"dhqp/internal/telemetry"
)

// filterIter applies a predicate.
type filterIter struct {
	ctx   *Context
	child Iterator
	pred  expr.Expr

	selBuf []int // scratch, allocated once per iterator
}

func (f *filterIter) Open() error { return f.child.Open() }

// NextBatch evaluates the predicate over whole batches: the vector kernel
// produces the surviving selection, and rejected rows cost nothing downstream
// (the selection narrows; values never move). Fully-filtered batches are
// skipped here so the parent never sees an empty non-EOF fill.
func (f *filterIter) NextBatch(b *rowset.Batch) error {
	for {
		if err := f.child.NextBatch(b); err != nil {
			return err
		}
		sel, err := expr.FilterSel(f.pred, &f.ctx.Env, b.Cols(), b.Indices(), f.selBuf[:0])
		if err != nil {
			return err
		}
		f.selBuf = sel
		if len(sel) > 0 {
			b.SetSelection(sel)
			return nil
		}
	}
}

func (f *filterIter) Close() error { return f.child.Close() }

// startupFilterIter evaluates a parameter-only predicate at Open; when
// false the child never executes (§4.1.5).
type startupFilterIter struct {
	ctx     *Context
	child   Iterator
	pred    expr.Expr
	stats   *telemetry.OpStats // nil unless the execution collects stats
	enabled bool
}

func (s *startupFilterIter) Open() error {
	v, err := expr.EvalScalar(s.pred, &s.ctx.Env)
	if err != nil {
		return err
	}
	s.enabled = expr.Truthy(v)
	s.ctx.Stats.RecordStartup(s.enabled)
	if !s.enabled {
		s.stats.RecordPruned()
		return nil
	}
	return s.child.Open()
}

func (s *startupFilterIter) NextBatch(b *rowset.Batch) error {
	if !s.enabled {
		return io.EOF
	}
	return s.child.NextBatch(b)
}

func (s *startupFilterIter) Close() error {
	if !s.enabled {
		return nil
	}
	return s.child.Close()
}

// computeIter evaluates projections.
type computeIter struct {
	ctx   *Context
	child Iterator
	exprs []expr.Expr

	in *rowset.Batch // scratch
}

func (c *computeIter) Open() error { return c.child.Open() }

// NextBatch projects a whole input batch per call: each output expression
// evaluates densely into its output column, so the result batch needs no
// selection vector.
func (c *computeIter) NextBatch(b *rowset.Batch) error {
	if c.in == nil {
		c.in = c.ctx.keep(rowset.NewBatch(b.CapRows()))
	}
	if err := c.child.NextBatch(c.in); err != nil {
		return err
	}
	sel := c.in.Indices()
	b.Reset(len(c.exprs))
	for i, e := range c.exprs {
		if err := expr.EvalVec(e, &c.ctx.Env, c.in.Cols(), sel, b.Col(i)); err != nil {
			return err
		}
	}
	b.SetNumRows(len(sel))
	return nil
}

func (c *computeIter) Close() error { return c.child.Close() }

// topIter returns the first N rows under an ordering (bounded top-N when
// an ordering is specified; pass-through limit otherwise). The ordered case
// keeps its candidates in a store and a max-heap of the best N row ids —
// O(rows·log N) time and O(N) memory instead of sorting the whole input. A
// row id is its arrival order (the store appends, and compaction keeps the
// ids' order), so the id is the final tiebreak and ties resolve exactly as
// a stable full sort does. A Sort is a topIter whose N is unlimited.
type topIter struct {
	ctx      *Context
	child    Iterator
	n        int64
	width    int
	ordinals []int
	desc     []bool

	rows    rowset.Store  // the candidates, rejected ones until compaction
	spare   rowset.Store  // compaction's target
	heap    []int32       // the best N ids so far: a max-heap once full, sorted to emit
	cand    []int32       // scratch: a batch's rows that beat the heap's max
	in      *rowset.Batch // the ordered case's drain batch
	pos     int
	emitted int64
}

// compare orders row a of cols x against row b of cols y by the ordering
// columns, descending keys inverted.
func (t *topIter) compare(x []rowset.Vec, a int, y []rowset.Vec, b int) int {
	for k, ord := range t.ordinals {
		c := sqltypes.Compare(x[ord].Value(a), y[ord].Value(b))
		if t.desc[k] {
			c = -c
		}
		if c != 0 {
			return c
		}
	}
	return 0
}

// order is the total order over stored ids: the ordering, then arrival.
// "Keep the N smallest under it" is exactly "stable sort, take the first N".
func (t *topIter) order(a, b int32) int {
	if c := t.compare(t.rows.Cols(), int(a), t.rows.Cols(), int(b)); c != 0 {
		return c
	}
	return cmp.Compare(a, b)
}

// siftDown restores the max-heap below slot i.
func (t *topIter) siftDown(i int) {
	for {
		big := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < len(t.heap) && t.order(t.heap[big], t.heap[c]) < 0 {
				big = c
			}
		}
		if big == i {
			return
		}
		t.heap[i], t.heap[big] = t.heap[big], t.heap[i]
		i = big
	}
}

// offer takes the drain batch's rows into the candidates: every row while
// the heap has room, afterwards only those that beat its max, so a rejected
// row costs a comparison and nothing else.
func (t *topIter) offer() error {
	cols, full := t.in.Cols(), int64(len(t.heap)) == t.n
	t.cand = t.cand[:0]
	for _, p := range t.in.Indices() {
		if !full || t.compare(cols, p, t.rows.Cols(), int(t.heap[0])) < 0 {
			t.cand = append(t.cand, int32(p))
		}
	}
	from := t.rows.Len()
	t.rows.Add(cols, nil, t.cand)
	for id := int32(from); id < int32(t.rows.Len()); id++ {
		switch {
		case int64(len(t.heap)) < t.n:
			if t.heap = append(t.heap, id); int64(len(t.heap)) == t.n {
				for i := len(t.heap)/2 - 1; i >= 0; i-- {
					t.siftDown(i)
				}
			}
		case t.order(id, t.heap[0]) < 0:
			t.heap[0] = id
			t.siftDown(0)
		}
	}
	if int64(len(t.heap)) == t.n && t.rows.Len() > 2*len(t.heap) {
		t.compact()
	}
	return nil
}

// compact drops the rejected rows: the heap's rows move to a fresh store in
// id order, so ids stay arrival order, and the heap takes their new ids.
func (t *topIter) compact() {
	t.cand = append(t.cand[:0], t.heap...)
	ids := t.cand
	slices.Sort(ids)
	t.spare.Reset(t.width)
	t.spare.Add(t.rows.Cols(), nil, ids)
	for i, id := range t.heap {
		k, _ := slices.BinarySearch(ids, id)
		t.heap[i] = int32(k)
	}
	t.rows, t.spare = t.spare, t.rows
}

func (t *topIter) Open() error {
	t.heap, t.pos, t.emitted = t.heap[:0], 0, 0
	if len(t.ordinals) == 0 {
		return t.child.Open() // streaming limit
	}
	// Drain the child through the heap. The full input still executes (the
	// limit does not short-circuit an ordered child — every row is a
	// candidate), but only the current top N are retained.
	if t.in == nil {
		t.in = t.ctx.newBatch()
	}
	t.rows.Reset(t.width)
	if t.n <= 0 {
		return nil
	}
	if err := drain(t.child, t.in, t.offer); err != nil {
		return err
	}
	slices.SortFunc(t.heap, t.order)
	return nil
}

// NextBatch serves the ordered result by gathering the sorted ids out of
// the store, or — for the streaming limit — pulls child batches and
// truncates the last one in place to the remaining quota.
func (t *topIter) NextBatch(b *rowset.Batch) error {
	if len(t.ordinals) > 0 {
		k := min(len(t.heap)-t.pos, b.CapRows())
		if k <= 0 {
			return io.EOF
		}
		t.rows.Gather(b, t.heap[t.pos:t.pos+k])
		t.pos += k
		return nil
	}
	if t.emitted >= t.n {
		return io.EOF
	}
	if err := t.child.NextBatch(b); err != nil {
		return err
	}
	if rem := t.n - t.emitted; int64(b.Len()) > rem {
		b.TruncateRows(int(rem))
	}
	t.emitted += int64(b.Len())
	return nil
}

// Close closes the streaming limit's child; the ordered case's drain
// closed its child already.
func (t *topIter) Close() error {
	t.heap, t.pos = t.heap[:0], 0
	if len(t.ordinals) > 0 {
		return nil
	}
	return t.child.Close()
}

// spoolIter materializes its child once; re-opens replay the buffer
// without re-executing the child (§4.1.2's spool-over-remote). The replay
// is only valid within one execution and one parameter binding: a kept
// tree's next execution reads another snapshot, and when the spool sits
// inside a parameterized apply, the subtree's results change with the outer
// row's bound values. So Open refills unless the buffer was filled in this
// execution under the current bindings. Rescans within one binding (the
// common inner-loop amplification) still replay.
type spoolIter struct {
	ctx        *Context
	child      Iterator
	width      int
	buf        rowset.Store
	pos        int // the next row to replay
	filled     bool
	fillRun    uint64                    // the execution (Context.run) that filled it
	fillParams map[string]sqltypes.Value // param bindings at fill time
	in         *rowset.Batch
}

// staleBindings reports whether any parameter changed since the fill.
func (s *spoolIter) staleBindings() bool {
	if len(s.ctx.Params) != len(s.fillParams) {
		return true
	}
	for k, v := range s.ctx.Params {
		old, ok := s.fillParams[k]
		if !ok || !sqltypes.Equal(old, v) {
			return true
		}
	}
	return false
}

func (s *spoolIter) Open() error {
	s.pos = 0
	if s.filled && s.fillRun == s.ctx.run && !s.staleBindings() {
		return nil
	}
	s.filled = false
	if s.in == nil {
		s.in = s.ctx.newBatch()
	}
	s.buf.Reset(s.width)
	if err := drain(s.child, s.in, func() error { s.buf.AddBatch(s.in); return nil }); err != nil {
		return err
	}
	s.filled, s.fillRun = true, s.ctx.run
	if s.fillParams == nil {
		s.fillParams = make(map[string]sqltypes.Value, len(s.ctx.Params))
	}
	clear(s.fillParams)
	for k, v := range s.ctx.Params {
		s.fillParams[k] = v
	}
	return nil
}

func (s *spoolIter) NextBatch(b *rowset.Batch) error {
	if !s.filled || s.pos >= s.buf.Len() {
		return io.EOF
	}
	s.pos += s.buf.Emit(b, s.pos)
	return nil
}

func (s *spoolIter) Close() error { return nil }

// concatIter is UNION ALL: children in sequence, each remapped to the
// output column order.
type concatIter struct {
	ctx   *Context
	kids  []Iterator
	maps  [][]int         // per child: output position -> child position
	nodes []*algebra.Node // per child: its plan, which names the branch in errors and skips
	idx   int
	open  bool
	sent  int // rows emitted from the currently open child
}

// branchLabel names the server(s) a fan-out branch reaches, so a branch
// failure identifies which linked server — which partition — went wrong.
// Only a failure or a skip asks for it.
func branchLabel(kid *algebra.Node) string {
	if servers := algebra.RemoteServers(kid); len(servers) > 0 {
		return strings.Join(servers, "+")
	}
	return "local"
}

// branchErr tags a branch error with the server it came from.
func branchErr(idx int, kid *algebra.Node, err error) error {
	return fmt.Errorf("exec: concat branch %d [%s]: %w", idx, branchLabel(kid), err)
}

// skippableBranch reports whether a failed branch may be skipped under
// partial-results execution: the rejection came from an open circuit
// breaker (the server was known down and never contacted) and the branch
// has not delivered any rows yet — a partition is either wholly present or
// wholly skipped, never half-shipped.
func skippableBranch(ctx *Context, err error, sent int) bool {
	return ctx.PartialResults && sent == 0 && circuit.IsOpen(err)
}

// recordSkip records a skipped branch, mapping its label through the
// context's rewriter (shard-map attribution) when one is installed.
func recordSkip(ctx *Context, kid *algebra.Node) {
	label := branchLabel(kid)
	if ctx.SkipLabelFor != nil {
		label = ctx.SkipLabelFor(label)
	}
	ctx.Stats.RecordSkip(label)
}

func buildConcat(n *algebra.Node, op *algebra.Concat, ctx *Context) (Iterator, error) {
	// Fan-out goes parallel when at least two children reach across the
	// network (the partitioned-view case, §4.1.5): their link round trips
	// are independent and overlap. Purely local concats stay serial — there
	// is no latency to hide and the serial iterator has no coordination
	// overhead.
	remoteKids := 0
	for _, k := range n.Kids {
		if algebra.HasRemoteOp(k) {
			remoteKids++
		}
	}
	parallel := remoteKids >= 2 && ctx.MaxDOP != 1

	kids := make([]Iterator, len(n.Kids))
	kidCtxs := make([]*Context, len(n.Kids))
	maps := make([][]int, len(n.Kids))
	for i, k := range n.Kids {
		kctx := ctx
		if parallel {
			// Each parallel child executes against a forked context so
			// correlated parameter binding inside one child cannot race a
			// sibling's reads.
			kctx = ctx.fork()
		}
		kidCtxs[i] = kctx
		it, err := Build(k, kctx)
		if err != nil {
			return nil, err
		}
		kids[i] = it
		kcols := k.OutCols()
		m := make([]int, len(op.OutColsList))
		for j := range op.OutColsList {
			m[j] = posOf(kcols, op.InMaps[i][j])
			if m[j] < 0 {
				return nil, errColNotFound(op.InMaps[i][j])
			}
		}
		maps[i] = m
	}
	if parallel {
		return newParallelConcat(ctx, kids, kidCtxs, maps, n.Kids), nil
	}
	return &concatIter{ctx: ctx, kids: kids, maps: maps, nodes: n.Kids}, nil
}

type colNotFoundError expr.ColumnID

func (e colNotFoundError) Error() string { return "exec: concat input column not found" }

func errColNotFound(id expr.ColumnID) error { return colNotFoundError(id) }

func (c *concatIter) Open() error {
	// Re-Open after partial consumption: the child at idx is still open and
	// must be released before restarting from the first child.
	if err := c.closeCurrent(); err != nil {
		return err
	}
	c.idx = 0
	return nil
}

// NextBatch hands up the current child's batch with its vectors moved into
// the output column order, opening children in turn and moving past the
// exhausted and the skippable.
func (c *concatIter) NextBatch(b *rowset.Batch) error {
	for {
		if c.idx >= len(c.kids) {
			return io.EOF
		}
		kid := c.kids[c.idx]
		if !c.open {
			c.sent = 0
			if err := kid.Open(); err != nil {
				if skippableBranch(c.ctx, err, c.sent) {
					recordSkip(c.ctx, c.nodes[c.idx])
					c.idx++
					continue
				}
				return branchErr(c.idx, c.nodes[c.idx], err)
			}
			c.open = true
		}
		err := kid.NextBatch(b)
		if err == nil {
			b.Project(c.maps[c.idx])
			c.sent += b.Len()
			return nil
		}
		if err == io.EOF {
			c.open = false
			if cerr := kid.Close(); cerr != nil {
				return cerr
			}
			c.idx++
			continue
		}
		if skippableBranch(c.ctx, err, c.sent) {
			recordSkip(c.ctx, c.nodes[c.idx])
			c.open = false
			_ = kid.Close()
			c.idx++
			continue
		}
		return branchErr(c.idx, c.nodes[c.idx], err)
	}
}

func (c *concatIter) Close() error { return c.closeCurrent() }

// closeCurrent closes the child that is currently open (at most one in the
// serial iterator; exhausted children were closed as NextBatch advanced past
// them), exactly once.
func (c *concatIter) closeCurrent() error {
	if c.open && c.idx < len(c.kids) {
		c.open = false
		return c.kids[c.idx].Close()
	}
	return nil
}

// constScanIter yields literal rows, evaluated into its batches' columns.
type constScanIter struct {
	ctx   *Context
	rows  [][]expr.Expr
	pos   int
	width int
}

func buildConstScan(op *algebra.ConstScan, ctx *Context) (Iterator, error) {
	rows := make([][]expr.Expr, len(op.Rows))
	for i, r := range op.Rows {
		rows[i] = make([]expr.Expr, len(r))
		for j, e := range r {
			bound, err := expr.Bind(e, map[expr.ColumnID]int{})
			if err != nil {
				return nil, err
			}
			rows[i][j] = bound
		}
	}
	return &constScanIter{ctx: ctx, rows: rows, width: len(op.Cols)}, nil
}

func (c *constScanIter) Open() error {
	c.pos = 0
	return nil
}

func (c *constScanIter) NextBatch(b *rowset.Batch) error {
	k := min(b.CapRows(), len(c.rows)-c.pos)
	if k <= 0 {
		return io.EOF
	}
	b.Reset(c.width)
	for j := 0; j < c.width; j++ {
		b.Col(j).ResetGeneric(k)
	}
	for i, exprs := range c.rows[c.pos : c.pos+k] {
		for j, e := range exprs {
			v, err := expr.EvalScalar(e, &c.ctx.Env)
			if err != nil {
				return err
			}
			b.Col(j).SetValue(i, v)
		}
	}
	b.SetNumRows(k)
	c.pos += k
	return nil
}

func (c *constScanIter) Close() error { return nil }

// emptyIter yields nothing (static pruning's EmptyScan).
type emptyIter struct{}

func (e *emptyIter) Open() error                   { return nil }
func (e *emptyIter) NextBatch(*rowset.Batch) error { return io.EOF }
func (e *emptyIter) Close() error                  { return nil }
