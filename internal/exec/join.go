package exec

import (
	"fmt"
	"io"
	"slices"

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
	h := &hashJoinIter{
		ctx: ctx, typ: op.Type, left: left, right: right,
		lpos: lpos, rpos: rpos, residual: residual,
		lwidth: len(lcols), rwidth: len(rcols),
	}
	ctx.hold(&h.build)
	return h, nil
}

type hashJoinIter struct {
	ctx         *Context
	typ         algebra.JoinType
	left, right Iterator
	lpos, rpos  []int
	residual    expr.Expr
	lwidth      int
	rwidth      int

	// The build side: every build row with a non-NULL key, stored in
	// arrival order. tab files each row's id under its key's hash, so a
	// chain holds every build row with that hash in build order; a probe
	// walks it and keeps the ids whose key values equal its own (eq, bound
	// per probe batch). hs holds a batch's hashes.
	build rowset.Store
	tab   keyTable
	eq    keyEq
	hs    []uint64

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

	// The residual's verdicts, made a window of candidate pairs at a time
	// (see admit): cp/cb list the window's pairs, pairs.keep the positions
	// among them the residual admits, and cand and kept how far probe has
	// read each.
	cp, cb     []int32
	pairs      pairTest
	cand, kept int
}

// semi reports whether a join of type typ emits its left rows alone (SEMI,
// ANTI).
func semi(typ algebra.JoinType) bool {
	return typ == algebra.SemiJoin || typ == algebra.AntiJoin
}

// insertBatch appends the batch's live rows with non-NULL keys to the build
// store and files each under its key's hash.
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
	h.build.Add(cols, nil, live)
	h.pidx = live[:0]
}

// Open builds from the whole right input, which drain closes once read, so
// a remote build side releases its member statement before the probe.
func (h *hashJoinIter) Open() error {
	if h.buildBuf == nil {
		h.buildBuf = h.ctx.newBatch()
	}
	h.build.Reset(h.rwidth)
	h.tab.reset()
	if err := drain(h.right, h.buildBuf, func() error { h.insertBatch(h.buildBuf); return nil }); err != nil {
		return err
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
	}
	width := h.lwidth
	if !semi(h.typ) {
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
			h.inPos, h.cp, h.cand = 0, h.cp[:0], 0
			h.hs = hashKeys(h.hs, h.in.Cols(), h.lpos, h.in.Indices())
			h.eq.bind(h.in.Cols(), h.lpos, h.build.Cols(), h.rpos)
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
			b.Col(j).Gather(n, &h.build.Cols()[j-h.lwidth], h.bidx, h.neg)
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
	cols, live, leftOnly := h.in.Cols(), h.in.Indices(), semi(h.typ)
	for h.inPos < len(live) && len(h.pidx) < room {
		p := live[h.inPos]
		id := h.chain
		if id < 0 { // a fresh probe row
			id, h.matched = -1, false
			if !nullKey(cols, h.lpos, p) { // NULL keys never join
				id = h.eq.match(&h.tab, p, h.tab.find(h.hs[h.inPos]))
			}
		}
		for h.chain = -1; id >= 0; id = h.eq.match(&h.tab, p, h.tab.next[id]) {
			if len(h.pidx) == room {
				h.chain = id
				return nil
			}
			if h.residual != nil {
				ok, err := h.admit(id)
				if err != nil {
					return err
				}
				if !ok {
					continue
				}
			}
			h.matched = true
			if leftOnly {
				if h.residual == nil {
					break // existence is all that is asked
				}
				continue // admit reads every candidate in turn
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

// admit returns the residual's verdict on the pair of probe row inPos and
// build row id, the next candidate probe visits. Verdicts are made a
// window at a time: from that pair on, the candidates probe will visit in
// turn — the rest of this row's chain, then each later live row's — are
// gathered, up to a batch of them, and the residual is evaluated over them
// as one batch.
func (h *hashJoinIter) admit(id int32) (bool, error) {
	if h.cand == len(h.cp) {
		cols, live := h.in.Cols(), h.in.Indices()
		h.cp, h.cb = h.cp[:0], h.cb[:0]
		for pos := h.inPos; pos < len(live) && len(h.cp) < h.in.CapRows(); pos++ {
			p := live[pos]
			if pos > h.inPos {
				id = -1
				if !nullKey(cols, h.lpos, p) {
					id = h.eq.match(&h.tab, p, h.tab.find(h.hs[pos]))
				}
			}
			for ; id >= 0 && len(h.cp) < h.in.CapRows(); id = h.eq.match(&h.tab, p, h.tab.next[id]) {
				h.cp, h.cb = append(h.cp, int32(p)), append(h.cb, id)
			}
		}
		h.cand, h.kept = 0, 0
		if err := h.pairs.run(h.ctx, h.residual, cols, h.cp, h.build.Cols(), h.cb); err != nil {
			return false, err
		}
	}
	c := h.cand
	h.cand++
	if h.kept < len(h.pairs.keep) && h.pairs.keep[h.kept] == c {
		h.kept++
		return true, nil
	}
	return false, nil
}

// pairTest evaluates a join's ON or residual predicate over candidate
// pairs as one batch: the pairs' left and right rows are gathered side by
// side, as the join's emit gathers its output.
type pairTest struct {
	b    *rowset.Batch
	keep []int // the positions of the pairs pred admits, ascending
}

// run tests the pairs (row lidx[k] of lcols, row ridx[k] of rcols).
func (t *pairTest) run(ctx *Context, pred expr.Expr, lcols []rowset.Vec, lidx []int32, rcols []rowset.Vec, ridx []int32) error {
	if t.b == nil {
		t.b = ctx.newBatch()
	}
	t.b.Reset(len(lcols) + len(rcols))
	for j := range lcols {
		t.b.Col(j).Gather(0, &lcols[j], lidx, false)
	}
	for j := range rcols {
		t.b.Col(len(lcols)+j).Gather(0, &rcols[j], ridx, false)
	}
	t.b.SetNumRows(len(lidx))
	var err error
	t.keep, err = expr.FilterSel(pred, &ctx.Env, t.b.Cols(), t.b.Indices(), t.keep[:0])
	return err
}

func (h *hashJoinIter) Close() error { return h.left.Close() }

func buildLoopJoin(n *algebra.Node, ctx *Context) (Iterator, error) {
	left, err := Build(n.Kids[0], ctx)
	if err != nil {
		return nil, err
	}
	right, err := Build(n.Kids[1], ctx)
	if err != nil {
		return nil, err
	}
	lcols, rcols := n.Kids[0].OutCols(), n.Kids[1].OutCols()
	j := &batchLoopJoinIter{ctx: ctx, left: rowFeed{child: left}, right: right, batch: 1, lwidth: len(lcols), rwidth: len(rcols)}
	ctx.hold(&j.pending)
	ctx.hold(&j.matches)
	var on expr.Expr
	switch op := n.Op.(type) {
	case *algebra.LoopJoin:
		j.typ, on = op.Type, op.On
		for name, id := range op.ParamMap {
			p := posOf(lcols, id)
			if p < 0 {
				return nil, fmt.Errorf("exec: loop join parameter @%s references col%d not in outer input", name, id)
			}
			j.binds = append(j.binds, paramBind{name: name, pos: p})
		}
	case *algebra.BatchLoopJoin:
		j.typ, on = op.Type, op.On
		j.lpos, j.rpos = make([]int, len(op.Pairs)), make([]int, len(op.Pairs))
		for i, pr := range op.Pairs {
			j.lpos[i], j.rpos[i] = posOf(lcols, pr.Left), posOf(rcols, pr.Right)
			if j.lpos[i] < 0 || j.rpos[i] < 0 {
				return nil, fmt.Errorf("exec: batch loop join pair col%d=col%d not in inputs", pr.Left, pr.Right)
			}
		}
		// The plan was compiled with op.BatchSize parameter slots; the
		// session knob can only shrink how many outer rows fill them (spare
		// slots are padded with an already-shipped key), never grow past
		// the slot count.
		j.batch = max(1, min(op.BatchSize, ctx.remoteBatch()))
		for s := 0; s < op.BatchSize; s++ {
			for k, pos := range j.lpos {
				j.binds = append(j.binds, paramBind{name: fmt.Sprintf("%s_%d_%d", op.ParamBase, k, s), slot: s, pos: pos})
			}
		}
	}
	if on != nil {
		j.pred, err = bindExpr(on, append(append([]algebra.OutCol{}, lcols...), rcols...))
		if err != nil {
			return nil, err
		}
	}
	return j, nil
}

// paramBind binds parameter name to column pos of the outer row in slot.
type paramBind struct {
	name      string
	slot, pos int
}

// batchLoopJoinIter runs both loop joins. It buffers up to batch outer rows,
// binds their values into the inner side's parameters, executes the inner
// once for all of them, and matches each inner row back to the buffered
// rows whose keys equal its own — to every one when the join has no key
// pairs. A LoopJoin is one outer row per execution with its ParamMap bound:
// the parameterized plan of §4.1.2, the inner side (remote range, remote
// query, index range) using the values in its access path. A BatchLoopJoin
// binds up to batch rows' keys into the inner's IN-list slots, which only
// prefilter: every match decision (key equality, the ON predicate,
// duplicate and NULL keys, outer/semi/anti accounting) is made here, so
// each execution returns row-for-row what one execution per outer row
// would, outer-major.
type batchLoopJoinIter struct {
	ctx            *Context
	typ            algebra.JoinType
	left           rowFeed
	right          Iterator
	pred           expr.Expr // ON
	lpos, rpos     []int     // key pairs; none for a LoopJoin
	binds          []paramBind
	batch          int // outer rows per inner execution
	lwidth, rwidth int

	inner *rowset.Batch // inner drain batch
	open  bool          // the inner side is open
	hs    []uint64
	ids   []int32
	seq   []int // 0, 1, 2, …: the pending rows' ids

	// One inner batch's candidates: pending row cp[c] and inner row cm[c]
	// have equal keys; on tests them.
	cp, cm []int32
	on     pairTest

	// One execution: pending holds its outer rows, each filed in tab under
	// its key's hash; matches holds the inner rows that joined, and pairs
	// who joined whom, in the order the inner side returned them. hit tells
	// which outer rows joined. pidx/bidx list the output rows, outer-major,
	// as (pending id, match id or -1: NULL-extended); pos is the next one to
	// emit.
	pending, matches rowset.Store
	tab              keyTable
	eq               keyEq
	pairs            []joinPair
	hit              []bool
	nhit             int
	pidx, bidx       []int32
	neg              bool
	pos              int
}

// joinPair is pending row p joined with match m.
type joinPair struct{ p, m int32 }

func (j *batchLoopJoinIter) Open() error {
	// Re-Open after an execution failed mid-drain: release the inner side
	// now rather than leave its cursor (and any remote rowset behind it)
	// open until the next execution re-opens it.
	if j.open {
		j.open = false
		if err := j.right.Close(); err != nil {
			return err
		}
	}
	if j.inner == nil {
		j.inner = j.ctx.newBatch()
	}
	j.pidx, j.bidx, j.pos = j.pidx[:0], j.bidx[:0], 0
	return j.left.open(j.ctx)
}

// NextBatch gathers output rows from the executions' stores into b,
// running the next execution whenever one is emitted.
func (j *batchLoopJoinIter) NextBatch(b *rowset.Batch) error {
	width := j.lwidth
	if !semi(j.typ) {
		width += j.rwidth
	}
	b.Reset(width)
	for !b.Full() {
		if j.pos == len(j.pidx) {
			if j.left.done {
				break
			}
			if err := j.execute(); err != nil {
				return err
			}
			continue
		}
		n := b.NumRows()
		k := min(b.CapRows()-n, len(j.pidx)-j.pos)
		pidx := j.pidx[j.pos : j.pos+k]
		for c := 0; c < j.lwidth; c++ {
			b.Col(c).Gather(n, &j.pending.Cols()[c], pidx, false)
		}
		if !semi(j.typ) {
			bidx := j.bidx[j.pos : j.pos+k]
			for c := 0; c < j.rwidth; c++ {
				b.Col(j.lwidth+c).Gather(n, &j.matches.Cols()[c], bidx, j.neg)
			}
		}
		b.SetNumRows(n + k)
		j.pos += k
	}
	if b.NumRows() == 0 {
		return io.EOF
	}
	return nil
}

// execute buffers the next outer rows, runs the inner side once for them
// and lists their output rows.
func (j *batchLoopJoinIter) execute() error {
	if err := j.fill(); err != nil {
		return err
	}
	n := j.pending.Len()
	j.matches.Reset(j.rwidth)
	j.hit = slices.Grow(j.hit[:0], n)[:n]
	clear(j.hit)
	j.pairs, j.nhit = j.pairs[:0], 0
	// The first outer row whose key has no NULL pads the spare slots; when
	// there is none, nothing can join and the inner side does not run.
	first := -1
	for i := 0; i < n && first < 0; i++ {
		if !nullKey(j.pending.Cols(), j.lpos, i) {
			first = i
		}
	}
	if first >= 0 {
		if err := j.run(first); err != nil {
			return err
		}
	}
	j.order()
	return nil
}

// fill buffers up to batch outer rows, each filed under its key's hash.
func (j *batchLoopJoinIter) fill() error {
	j.pending.Reset(j.lwidth)
	if err := j.left.take(&j.pending, nil, j.batch); err != nil {
		return err
	}
	j.tab.reset()
	j.hs = hashKeys(j.hs, j.pending.Cols(), j.lpos, firstN(&j.seq, j.pending.Len()))
	for _, h := range j.hs {
		j.tab.insert(h)
	}
	return nil
}

// run binds the parameters, executes the inner side and matches what it
// returns. Slot s carries pending row s's values; unfilled slots repeat
// row first's (duplicate IN-list members are harmless).
func (j *batchLoopJoinIter) run(first int) error {
	if j.ctx.Params == nil && len(j.binds) > 0 {
		j.ctx.Params = map[string]sqltypes.Value{}
	}
	for _, pb := range j.binds {
		id := pb.slot
		if id >= j.pending.Len() {
			id = first
		}
		j.ctx.Params[pb.name] = j.pending.Cols()[pb.pos].Value(id)
	}
	if err := j.right.Open(); err != nil {
		return err
	}
	j.open = true
	// SEMI and ANTI stop reading once every outer row has joined.
	for !semi(j.typ) || j.nhit < j.pending.Len() {
		err := j.right.NextBatch(j.inner)
		if err == io.EOF {
			break
		}
		if err == nil {
			err = j.match()
		}
		if err != nil {
			return err
		}
	}
	j.open = false
	return j.right.Close()
}

// match joins the inner batch's live rows to the pending rows: every pair
// whose keys are equal and that satisfies ON, which is evaluated over all
// of the batch's candidate pairs at once. An inner row that joins is stored
// once, however many outer rows it joins.
func (j *batchLoopJoinIter) match() error {
	cols, live := j.inner.Cols(), j.inner.Indices()
	j.hs = hashKeys(j.hs, cols, j.rpos, live)
	j.eq.bind(cols, j.rpos, j.pending.Cols(), j.lpos)
	j.cp, j.cm = j.cp[:0], j.cm[:0]
	for k, p := range live {
		if nullKey(cols, j.rpos, p) {
			continue // NULL keys never join
		}
		for id := j.eq.match(&j.tab, p, j.tab.find(j.hs[k])); id >= 0; id = j.eq.match(&j.tab, p, j.tab.next[id]) {
			j.cp, j.cm = append(j.cp, id), append(j.cm, int32(p))
		}
	}
	admitted := firstN(&j.seq, len(j.cp))
	if j.pred != nil {
		if err := j.on.run(j.ctx, j.pred, j.pending.Cols(), j.cp, cols, j.cm); err != nil {
			return err
		}
		admitted = j.on.keep
	}
	keep := j.ids[:0]
	for _, c := range admitted {
		id, p := j.cp[c], j.cm[c]
		if !j.hit[id] {
			j.hit[id] = true
			j.nhit++
		}
		if semi(j.typ) { // SEMI and ANTI ask only whether a row joins
			continue
		}
		if len(keep) == 0 || keep[len(keep)-1] != p {
			keep = append(keep, p)
		}
		j.pairs = append(j.pairs, joinPair{id, int32(j.matches.Len() + len(keep) - 1)})
	}
	j.matches.Add(cols, nil, keep)
	j.ids = keep[:0]
	return nil
}

// order lists the execution's output rows, outer-major: each pending row's
// matches in the order the inner side returned them, a NULL-extended row
// for an unmatched LEFT OUTER one, the row alone for SEMI and ANTI.
func (j *batchLoopJoinIter) order() {
	slices.SortStableFunc(j.pairs, func(a, b joinPair) int { return int(a.p - b.p) })
	j.pidx, j.bidx, j.neg, j.pos = j.pidx[:0], j.bidx[:0], false, 0
	k := 0
	for i := range int32(j.pending.Len()) {
		switch hit := j.hit[i]; {
		case j.typ == algebra.SemiJoin && hit, j.typ == algebra.AntiJoin && !hit:
			j.pidx = append(j.pidx, i)
		case j.typ == algebra.LeftOuterJoin && !hit:
			j.pidx, j.bidx, j.neg = append(j.pidx, i), append(j.bidx, -1), true
		}
		for ; k < len(j.pairs) && j.pairs[k].p == i; k++ {
			j.pidx, j.bidx = append(j.pidx, i), append(j.bidx, j.pairs[k].m)
		}
	}
}

func (j *batchLoopJoinIter) Close() error {
	j.open = false
	err1 := j.left.child.Close()
	err2 := j.right.Close()
	if err1 != nil {
		return err1
	}
	return err2
}
