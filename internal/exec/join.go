package exec

import (
	"fmt"
	"io"

	"dhqp/internal/algebra"
	"dhqp/internal/expr"
	"dhqp/internal/rowset"
	"dhqp/internal/sqltypes"
)

func buildHashJoin(n *algebra.Node, op *algebra.HashJoin, ctx *Context) (Iterator, error) {
	left, err := Build(n.Kids[0], ctx)
	if err != nil {
		return nil, err
	}
	right, err := Build(n.Kids[1], ctx)
	if err != nil {
		return nil, err
	}
	lcols, rcols := n.Kids[0].OutCols(), n.Kids[1].OutCols()
	lpos := make([]int, len(op.Pairs))
	rpos := make([]int, len(op.Pairs))
	for i, pr := range op.Pairs {
		lpos[i] = posOf(lcols, pr.Left)
		rpos[i] = posOf(rcols, pr.Right)
		if lpos[i] < 0 || rpos[i] < 0 {
			return nil, fmt.Errorf("exec: hash join pair %v not found in inputs", pr)
		}
	}
	var residual expr.Expr
	if op.Residual != nil {
		all := append(append([]algebra.OutCol{}, lcols...), rcols...)
		residual, err = bindExpr(op.Residual, all)
		if err != nil {
			return nil, err
		}
	}
	return &hashJoinIter{
		ctx: ctx, typ: op.Type, left: left, right: right,
		lpos: lpos, rpos: rpos, residual: residual,
		lwidth: len(lcols), rwidth: len(rcols),
	}, nil
}

type hashJoinIter struct {
	ctx         *Context
	typ         algebra.JoinType
	left, right Iterator
	lpos, rpos  []int
	residual    expr.Expr
	lwidth      int
	rwidth      int

	// The build side, column-wise: build[j] is column j of every build row
	// with a non-NULL key, in arrival order and in the representation the
	// child delivered, and a row's id is its position. tab files each id
	// under its key's hash, so a chain holds every build row with that hash
	// in build order; a probe walks it and keeps the ids whose key values
	// equal its own (eq, bound per probe batch). hs holds a batch's hashes.
	build  []rowset.Vec
	nbuild int
	tab    keyTable
	eq     keyEq
	hs     []uint64

	// The probe row in progress: chain is the next build id to try for it
	// (-1: none left), matched whether it has joined yet.
	chain   int32
	matched bool

	// An output row is a pair: the probe row's physical index in `in` and a
	// build id, -1 for the NULL-extended side of an unmatched LEFT OUTER row
	// (neg: some pending pair has one). SEMI and ANTI record the probe index
	// alone. Between probes the build borrows pidx to list a build batch's
	// rows.
	in         *rowset.Batch // probe-side input batch
	inPos      int           // live row of `in` in progress
	leftDone   bool
	buildBuf   *rowset.Batch // build-side drain batch
	pidx, bidx []int32
	neg        bool
	scratch    rowset.Row // the candidate row a residual is evaluated on
	venv       *expr.Env
}

// semi reports whether the join emits probe rows alone (SEMI, ANTI).
func (h *hashJoinIter) semi() bool {
	return h.typ == algebra.SemiJoin || h.typ == algebra.AntiJoin
}

// insertBatch appends the batch's live rows with non-NULL keys to the build
// store, one gather per column, and files each under its key's hash.
func (h *hashJoinIter) insertBatch(b *rowset.Batch) {
	cols, idxs := b.Cols(), b.Indices()
	h.hs = hashKeys(h.hs, cols, h.rpos, idxs)
	live := h.pidx[:0]
	for k, idx := range idxs {
		if nullKey(cols, h.rpos, idx) {
			continue // NULL keys never join
		}
		h.tab.insert(h.hs[k])
		live = append(live, int32(idx))
	}
	for j := range h.build {
		h.build[j].Gather(h.nbuild, &cols[j], live, false)
	}
	h.nbuild += len(live)
	h.pidx = live[:0]
}

func (h *hashJoinIter) Open() error {
	if err := h.right.Open(); err != nil {
		return err
	}
	if h.buildBuf == nil {
		h.buildBuf = h.ctx.newBatch()
		h.build = make([]rowset.Vec, h.rwidth)
	}
	h.tab.reset()
	h.nbuild = 0
	for {
		err := h.right.NextBatch(h.buildBuf)
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		h.insertBatch(h.buildBuf)
	}
	h.chain, h.matched = -1, false
	h.inPos, h.leftDone = 0, false
	h.pidx, h.bidx, h.neg = h.pidx[:0], h.bidx[:0], false
	if h.in != nil {
		h.in.Reset(0)
	}
	return h.left.Open()
}

// NextBatch is the columnar probe: each input batch is probed into a list of
// (probe index, build id) pairs, and every output column is then one gather
// of its source column through that list, appended to the caller's batch —
// so the output is typed exactly as its sources are, and fills to its
// ceiling however few rows a probe batch contributes.
func (h *hashJoinIter) NextBatch(b *rowset.Batch) error {
	if h.in == nil {
		h.in = h.ctx.newBatch()
		h.venv = &expr.Env{}
		h.scratch = make(rowset.Row, h.lwidth+h.rwidth)
	}
	h.venv.Params, h.venv.Today = h.ctx.Params, h.ctx.Today
	width := h.lwidth
	if !h.semi() {
		width += h.rwidth
	}
	b.Reset(width)
	for !b.Full() && !h.leftDone {
		if h.inPos >= h.in.Len() {
			err := h.left.NextBatch(h.in)
			if err == io.EOF {
				h.leftDone = true
				break
			}
			if err != nil {
				return err
			}
			h.inPos = 0
			h.hs = hashKeys(h.hs, h.in.Cols(), h.lpos, h.in.Indices())
			h.eq.bind(h.in.Cols(), h.lpos, h.build, h.rpos)
		}
		n := b.NumRows()
		if err := h.probe(b.CapRows() - n); err != nil {
			return err
		}
		in := h.in.Cols()
		for j := 0; j < h.lwidth; j++ {
			b.Col(j).Gather(n, &in[j], h.pidx, false)
		}
		for j := h.lwidth; j < width; j++ {
			b.Col(j).Gather(n, &h.build[j-h.lwidth], h.bidx, h.neg)
		}
		b.SetNumRows(n + len(h.pidx))
		h.pidx, h.bidx, h.neg = h.pidx[:0], h.bidx[:0], false
	}
	if b.NumRows() == 0 {
		return io.EOF
	}
	return nil
}

// probe joins the input batch's live rows from inPos on, recording output
// rows in pidx/bidx until the input is exhausted or room of them are
// pending. A match list that outruns the room is resumed, on the next call,
// at the build id left in chain.
func (h *hashJoinIter) probe(room int) error {
	cols, live, semi := h.in.Cols(), h.in.Indices(), h.semi()
	for h.inPos < len(live) && len(h.pidx) < room {
		p := live[h.inPos]
		id := h.chain
		if id < 0 { // a fresh probe row
			id, h.matched = -1, false
			if !nullKey(cols, h.lpos, p) { // NULL keys never join
				id = h.eq.match(&h.tab, p, h.tab.find(h.hs[h.inPos]))
			}
			if id >= 0 && h.residual != nil {
				h.scratch = h.in.RowAt(h.inPos, h.scratch)[:h.lwidth+h.rwidth]
			}
		}
		for h.chain = -1; id >= 0; id = h.eq.match(&h.tab, p, h.tab.next[id]) {
			if len(h.pidx) == room {
				h.chain = id
				return nil
			}
			if h.residual != nil {
				// The one place a row is assembled: the candidate pair.
				for j := range h.build {
					h.scratch[h.lwidth+j] = h.build[j].Value(int(id))
				}
				h.venv.Row = h.scratch
				ok, err := expr.EvalPredicate(h.residual, h.venv)
				if err != nil {
					return err
				}
				if !ok {
					continue
				}
			}
			h.matched = true
			if semi {
				break // existence is all that is asked
			}
			h.pidx, h.bidx = append(h.pidx, int32(p)), append(h.bidx, id)
		}
		switch {
		case h.typ == algebra.LeftOuterJoin && !h.matched:
			h.pidx, h.bidx, h.neg = append(h.pidx, int32(p)), append(h.bidx, -1), true
		case h.typ == algebra.SemiJoin && h.matched, h.typ == algebra.AntiJoin && !h.matched:
			h.pidx = append(h.pidx, int32(p))
		}
		h.inPos++
	}
	return nil
}

func (h *hashJoinIter) Close() error {
	err1 := h.left.Close()
	err2 := h.right.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

func combineRows(l, r rowset.Row) rowset.Row {
	out := make(rowset.Row, 0, len(l)+len(r))
	out = append(out, l...)
	return append(out, r...)
}

func nullRow(width int) rowset.Row {
	r := make(rowset.Row, width)
	for i := range r {
		r[i] = sqltypes.Null
	}
	return r
}

func buildMergeJoin(n *algebra.Node, op *algebra.MergeJoin, ctx *Context) (Iterator, error) {
	left, err := buildRows(n.Kids[0], ctx)
	if err != nil {
		return nil, err
	}
	right, err := buildRows(n.Kids[1], ctx)
	if err != nil {
		return nil, err
	}
	lcols, rcols := n.Kids[0].OutCols(), n.Kids[1].OutCols()
	lpos := make([]int, len(op.Pairs))
	rpos := make([]int, len(op.Pairs))
	for i, pr := range op.Pairs {
		lpos[i] = posOf(lcols, pr.Left)
		rpos[i] = posOf(rcols, pr.Right)
		if lpos[i] < 0 || rpos[i] < 0 {
			return nil, fmt.Errorf("exec: merge join pair %v not found in inputs", pr)
		}
	}
	var residual expr.Expr
	if op.Residual != nil {
		all := append(append([]algebra.OutCol{}, lcols...), rcols...)
		residual, err = bindExpr(op.Residual, all)
		if err != nil {
			return nil, err
		}
	}
	if op.Type != algebra.InnerJoin {
		return nil, fmt.Errorf("exec: merge join supports inner joins only")
	}
	return &rowToBatch{&mergeJoinIter{
		ctx: ctx, left: left, right: right,
		lpos: lpos, rpos: rpos, residual: residual,
	}}, nil
}

// mergeJoinIter joins two inputs ordered on their key columns.
type mergeJoinIter struct {
	ctx         *Context
	left, right *rowChild
	lpos, rpos  []int
	residual    expr.Expr

	lrow    rowset.Row
	rgroup  []rowset.Row // buffered right rows with equal keys
	rnext   rowset.Row   // lookahead
	gidx    int
	rdone   bool
	started bool
}

func (m *mergeJoinIter) Open() error {
	if err := m.left.Open(); err != nil {
		return err
	}
	if err := m.right.Open(); err != nil {
		return err
	}
	m.lrow, m.rgroup, m.rnext = nil, nil, nil
	m.gidx, m.rdone, m.started = 0, false, false
	return nil
}

// hasNull reports whether any of r's values at positions is NULL.
func hasNull(r rowset.Row, positions []int) bool {
	for _, p := range positions {
		if r[p].IsNull() {
			return true
		}
	}
	return false
}

func compareKey(l rowset.Row, lpos []int, r rowset.Row, rpos []int) int {
	for i := range lpos {
		c := sqltypes.Compare(l[lpos[i]], r[rpos[i]])
		if c != 0 {
			return c
		}
	}
	return 0
}

func (m *mergeJoinIter) advanceLeft() error {
	l, err := m.left.Next()
	if err == io.EOF {
		m.lrow = nil
		return nil
	}
	if err != nil {
		return err
	}
	m.lrow = l
	return nil
}

// fillRightGroup buffers the run of right rows whose key equals m.lrow's.
func (m *mergeJoinIter) fillRightGroup() error {
	m.rgroup = m.rgroup[:0]
	m.gidx = 0
	for {
		if m.rnext == nil && !m.rdone {
			r, err := m.right.Next()
			if err == io.EOF {
				m.rdone = true
			} else if err != nil {
				return err
			} else {
				m.rnext = r
			}
		}
		if m.rnext == nil {
			return nil
		}
		c := compareKey(m.lrow, m.lpos, m.rnext, m.rpos)
		switch {
		case c > 0:
			m.rnext = nil // right behind: discard and pull more
		case c == 0:
			m.rgroup = append(m.rgroup, m.rnext)
			m.rnext = nil
		default:
			return nil // right ahead: group complete (possibly empty)
		}
	}
}

func (m *mergeJoinIter) Next() (rowset.Row, error) {
	for {
		if m.lrow != nil && m.gidx < len(m.rgroup) {
			combined := combineRows(m.lrow, m.rgroup[m.gidx])
			m.gidx++
			if m.residual != nil {
				ok, err := expr.EvalPredicate(m.residual, m.ctx.env(combined))
				if err != nil {
					return nil, err
				}
				if !ok {
					continue
				}
			}
			return combined, nil
		}
		prev := m.lrow
		if err := m.advanceLeft(); err != nil {
			return nil, err
		}
		if m.lrow == nil {
			return nil, io.EOF
		}
		// Key-equal left runs reuse the buffered right group.
		if m.started && prev != nil && compareKey(m.lrow, m.lpos, prev, m.lpos) == 0 {
			m.gidx = 0
			continue
		}
		m.started = true
		// NULL keys never match: skip left rows with NULL keys.
		if hasNull(m.lrow, m.lpos) {
			m.rgroup = m.rgroup[:0]
			m.gidx = 0
			continue
		}
		if err := m.fillRightGroup(); err != nil {
			return nil, err
		}
	}
}

func (m *mergeJoinIter) Close() error {
	err1 := m.left.Close()
	err2 := m.right.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

func buildLoopJoin(n *algebra.Node, op *algebra.LoopJoin, ctx *Context) (Iterator, error) {
	left, err := buildRows(n.Kids[0], ctx)
	if err != nil {
		return nil, err
	}
	right, err := buildRows(n.Kids[1], ctx)
	if err != nil {
		return nil, err
	}
	lcols, rcols := n.Kids[0].OutCols(), n.Kids[1].OutCols()
	var on expr.Expr
	if op.On != nil {
		all := append(append([]algebra.OutCol{}, lcols...), rcols...)
		on, err = bindExpr(op.On, all)
		if err != nil {
			return nil, err
		}
	}
	// Parameter bindings: param name -> left row position.
	paramPos := map[string]int{}
	for name, id := range op.ParamMap {
		p := posOf(lcols, id)
		if p < 0 {
			return nil, fmt.Errorf("exec: loop join parameter @%s references col%d not in outer input", name, id)
		}
		paramPos[name] = p
	}
	return &rowToBatch{&loopJoinIter{
		ctx: ctx, typ: op.Type, left: left, right: right, on: on,
		paramPos: paramPos, rwidth: len(rcols),
	}}, nil
}

// loopJoinIter re-opens its inner side per outer row. With a non-empty
// paramPos it is the parameterized plan of §4.1.2: outer column values bind
// to @p<i> parameters, and the inner side (remote range, remote query,
// index range) uses them in its access path.
type loopJoinIter struct {
	ctx         *Context
	typ         algebra.JoinType
	left, right *rowChild
	on          expr.Expr
	paramPos    map[string]int
	rwidth      int

	cur       rowset.Row
	innerOpen bool
	matched   bool
	leftDone  bool
}

func (l *loopJoinIter) Open() error {
	// Re-Open after partial consumption: the previous outer row's inner
	// side may still be mid-stream; tear it down before restarting so the
	// old cursor (and any remote rowset behind it) is released now rather
	// than silently lingering until the next outer row re-opens it.
	if l.innerOpen {
		if err := l.right.Close(); err != nil {
			return err
		}
	}
	l.cur, l.innerOpen, l.matched, l.leftDone = nil, false, false, false
	return l.left.Open()
}

func (l *loopJoinIter) Next() (rowset.Row, error) {
	for {
		if l.cur == nil {
			if l.leftDone {
				return nil, io.EOF
			}
			lrow, err := l.left.Next()
			if err == io.EOF {
				l.leftDone = true
				return nil, io.EOF
			}
			if err != nil {
				return nil, err
			}
			l.cur = lrow
			l.matched = false
			// Bind correlation parameters and (re)open the inner side.
			if l.ctx.Params == nil && len(l.paramPos) > 0 {
				l.ctx.Params = map[string]sqltypes.Value{}
			}
			for name, pos := range l.paramPos {
				l.ctx.Params[name] = l.cur[pos]
			}
			if err := l.right.Open(); err != nil {
				return nil, err
			}
			l.innerOpen = true
		}
		rrow, err := l.right.Next()
		if err == io.EOF {
			prev, prevMatched := l.cur, l.matched
			l.cur = nil
			switch l.typ {
			case algebra.LeftOuterJoin:
				if !prevMatched {
					return combineRows(prev, nullRow(l.rwidth)), nil
				}
			case algebra.AntiJoin:
				if !prevMatched {
					return prev, nil
				}
			}
			continue
		}
		if err != nil {
			return nil, err
		}
		combined := combineRows(l.cur, rrow)
		if l.on != nil {
			ok, err := expr.EvalPredicate(l.on, l.ctx.env(combined))
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		l.matched = true
		switch l.typ {
		case algebra.SemiJoin:
			out := l.cur
			l.cur = nil
			return out, nil
		case algebra.AntiJoin:
			l.cur = nil // matched: drop left row
			continue
		default:
			return combined, nil
		}
	}
}

func (l *loopJoinIter) Close() error {
	err1 := l.left.Close()
	err2 := l.right.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

func buildBatchLoopJoin(n *algebra.Node, op *algebra.BatchLoopJoin, ctx *Context) (Iterator, error) {
	left, err := buildRows(n.Kids[0], ctx)
	if err != nil {
		return nil, err
	}
	right, err := buildRows(n.Kids[1], ctx)
	if err != nil {
		return nil, err
	}
	lcols, rcols := n.Kids[0].OutCols(), n.Kids[1].OutCols()
	var on expr.Expr
	if op.On != nil {
		all := append(append([]algebra.OutCol{}, lcols...), rcols...)
		on, err = bindExpr(op.On, all)
		if err != nil {
			return nil, err
		}
	}
	lpos := make([]int, len(op.Pairs))
	rpos := make([]int, len(op.Pairs))
	for i, pr := range op.Pairs {
		lpos[i] = posOf(lcols, pr.Left)
		rpos[i] = posOf(rcols, pr.Right)
		if lpos[i] < 0 || rpos[i] < 0 {
			return nil, fmt.Errorf("exec: batch loop join pair col%d=col%d not in inputs", pr.Left, pr.Right)
		}
	}
	// The plan was compiled with op.BatchSize parameter slots; the session
	// knob can only shrink how many outer rows fill them (spare slots are
	// padded with already-shipped keys), never grow past the slot count.
	batch := op.BatchSize
	if b := ctx.remoteBatch(); b < batch {
		batch = b
	}
	if batch < 1 {
		batch = 1
	}
	return &rowToBatch{&batchLoopJoinIter{
		ctx: ctx, typ: op.Type, left: left, right: right, on: on,
		lpos: lpos, rpos: rpos, paramBase: op.ParamBase,
		slots: op.BatchSize, batch: batch, rwidth: len(rcols),
	}}, nil
}

// batchLoopJoinIter is the batched parameterized join: it buffers up to
// `batch` outer rows, binds their join-key values into the inner side's
// IN-list parameter slots, executes the inner once for the whole batch, and
// hash-matches the returned rows back to the buffered outer rows. The
// IN-list the remote sees is only a prefilter — every match decision
// (equi-key equality, residual predicate, duplicate keys, NULL keys,
// outer/semi/anti accounting) replays locally, so results are row-for-row
// what the serial loopJoinIter produces, in outer-major order per batch.
type batchLoopJoinIter struct {
	ctx         *Context
	typ         algebra.JoinType
	left, right *rowChild
	on          expr.Expr
	lpos, rpos  []int
	paramBase   string
	slots       int // parameter slots compiled into the inner plan
	batch       int // outer rows buffered per inner execution (≤ slots)
	rwidth      int

	pending   []rowset.Row // current batch of outer rows
	tab       keyTable     // pending row i is id i, filed under its key's hash
	out       []rowset.Row // matched output queue for the current batch
	outPos    int
	leftDone  bool
	innerOpen bool
}

func (b *batchLoopJoinIter) Open() error {
	// Tear down an in-flight inner before restarting (re-Open after
	// partial consumption or after a mid-batch error).
	if b.innerOpen {
		if err := b.right.Close(); err != nil {
			return err
		}
		b.innerOpen = false
	}
	b.pending, b.out = nil, nil
	b.outPos, b.leftDone = 0, false
	return b.left.Open()
}

func (b *batchLoopJoinIter) Next() (rowset.Row, error) {
	for {
		if b.outPos < len(b.out) {
			r := b.out[b.outPos]
			b.outPos++
			return r, nil
		}
		if b.leftDone {
			return nil, io.EOF
		}
		if err := b.fillBatch(); err != nil {
			return nil, err
		}
		if len(b.pending) == 0 {
			continue // leftDone is now set; loop exits via EOF
		}
		if err := b.probeBatch(); err != nil {
			return nil, err
		}
	}
}

// fillBatch buffers the next run of outer rows.
func (b *batchLoopJoinIter) fillBatch() error {
	b.pending = b.pending[:0]
	for len(b.pending) < b.batch {
		lrow, err := b.left.Next()
		if err == io.EOF {
			b.leftDone = true
			return nil
		}
		if err != nil {
			return err
		}
		b.pending = append(b.pending, lrow)
	}
	return nil
}

// probeBatch executes the inner side once for the buffered outer rows and
// queues the batch's join output in outer-row order.
func (b *batchLoopJoinIter) probeBatch() error {
	// Hash the batch by join key. NULL keys never match (SQL semantics): a
	// NULL-keyed row is filed but compares equal to no inner row, so it
	// skips the probe and still emits for left-outer/anti.
	b.tab.reset()
	firstKeyed := -1
	for i, row := range b.pending {
		b.tab.insert(hashRow(row, b.lpos))
		if firstKeyed < 0 && !hasNull(row, b.lpos) {
			firstKeyed = i
		}
	}
	matches := make([][]rowset.Row, len(b.pending))
	matchedFlag := make([]bool, len(b.pending))
	if firstKeyed >= 0 {
		if err := b.executeBatch(matches, matchedFlag, firstKeyed); err != nil {
			return err
		}
	}
	// Emit outer-major: each buffered outer row's matches in arrival order.
	b.out = b.out[:0]
	b.outPos = 0
	for i, row := range b.pending {
		switch b.typ {
		case algebra.LeftOuterJoin:
			if len(matches[i]) == 0 {
				b.out = append(b.out, combineRows(row, nullRow(b.rwidth)))
			} else {
				b.out = append(b.out, matches[i]...)
			}
		case algebra.SemiJoin:
			if matchedFlag[i] {
				b.out = append(b.out, row)
			}
		case algebra.AntiJoin:
			if !matchedFlag[i] {
				b.out = append(b.out, row)
			}
		default:
			b.out = append(b.out, matches[i]...)
		}
	}
	return nil
}

// executeBatch binds the batch's keys into the inner plan's parameter
// slots, drains the inner, and distributes returned rows to the buffered
// outer rows they match.
func (b *batchLoopJoinIter) executeBatch(matches [][]rowset.Row, matchedFlag []bool, firstKeyed int) error {
	if b.ctx.Params == nil {
		b.ctx.Params = map[string]sqltypes.Value{}
	}
	// Slot s carries pending[s]'s key columns; unfilled slots repeat an
	// already-shipped key (duplicate IN-list members are harmless). A
	// NULL-keyed row's values may ship too — a NULL IN-list member can
	// never equal anything, so it only wastes a slot.
	for s := 0; s < b.slots; s++ {
		src := b.pending[firstKeyed]
		if s < len(b.pending) {
			src = b.pending[s]
		}
		for j, pos := range b.lpos {
			b.ctx.Params[fmt.Sprintf("%s_%d_%d", b.paramBase, j, s)] = src[pos]
		}
	}
	if err := b.right.Open(); err != nil {
		return err
	}
	b.innerOpen = true
	for {
		rrow, err := b.right.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if hasNull(rrow, b.rpos) {
			continue
		}
		i := b.match(rrow, b.tab.find(hashRow(rrow, b.rpos)))
		if i < 0 {
			// Prefiltered superset (multi-column keys cross-product in the
			// shipped IN lists): not an actual match.
			continue
		}
		for ; i >= 0; i = b.match(rrow, b.tab.next[i]) {
			combined := combineRows(b.pending[i], rrow)
			if b.on != nil {
				ok, err := expr.EvalPredicate(b.on, b.ctx.env(combined))
				if err != nil {
					return err
				}
				if !ok {
					continue
				}
			}
			matchedFlag[i] = true
			switch b.typ {
			case algebra.SemiJoin, algebra.AntiJoin:
				// Existence only; no combined rows.
			default:
				matches[i] = append(matches[i], combined)
			}
		}
	}
	b.innerOpen = false
	return b.right.Close()
}

// match returns the first pending row from id on along its hash chain whose
// key equals inner row r's, -1 when none does.
func (b *batchLoopJoinIter) match(r rowset.Row, id int32) int32 {
	for id >= 0 && compareKey(b.pending[id], b.lpos, r, b.rpos) != 0 {
		id = b.tab.next[id]
	}
	return id
}

func (b *batchLoopJoinIter) Close() error {
	b.innerOpen = false
	err1 := b.left.Close()
	err2 := b.right.Close()
	if err1 != nil {
		return err1
	}
	return err2
}
