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

// accumulator computes one aggregate over a group.
type accumulator struct {
	fn       algebra.AggFunc
	distinct bool
	isF      bool
	any      bool
	seen     *distinctSet // DISTINCT only: the values counted so far

	count int64
	sumI  int64
	sumF  float64
	ext   sqltypes.Value // MIN's or MAX's value so far
}

func newAccumulator(spec algebra.AggSpec) accumulator {
	return accumulator{fn: spec.Func, distinct: spec.Distinct}
}

func (a *accumulator) add(v sqltypes.Value) error {
	if v.IsNull() {
		return nil // aggregates skip NULLs
	}
	if a.distinct && !a.firstSeen(v) {
		return nil
	}
	a.count++
	switch a.fn {
	case algebra.AggCount:
	case algebra.AggSum, algebra.AggAvg:
		switch v.Kind() {
		case sqltypes.KindInt, sqltypes.KindBool:
			i, _ := v.AsInt()
			a.sumI += i
			a.sumF += float64(i)
		case sqltypes.KindFloat:
			a.isF = true
			a.sumF += v.Float()
		default:
			return fmt.Errorf("exec: SUM/AVG over %s", v.Kind())
		}
	case algebra.AggMin:
		if !a.any || sqltypes.Compare(v, a.ext) < 0 {
			a.ext = v
		}
	case algebra.AggMax:
		if !a.any || sqltypes.Compare(v, a.ext) > 0 {
			a.ext = v
		}
	}
	a.any = true
	return nil
}

// distinctSet is the set of values a DISTINCT aggregate has counted, each
// filed in a keyTable under its hash.
type distinctSet struct {
	tab  keyTable
	vals []sqltypes.Value
}

// firstSeen reports whether v compares equal to no value counted before,
// and files it if so.
func (a *accumulator) firstSeen(v sqltypes.Value) bool {
	if a.seen == nil {
		a.seen = &distinctSet{}
	}
	d, h := a.seen, hashValue(&v)
	for id := d.tab.find(h); id >= 0; id = d.tab.next[id] {
		if sqltypes.Compare(d.vals[id], v) == 0 {
			return false
		}
	}
	d.tab.insert(h)
	d.vals = append(d.vals, v)
	return true
}

func (a *accumulator) result() sqltypes.Value {
	switch a.fn {
	case algebra.AggCount:
		return sqltypes.NewInt(a.count)
	case algebra.AggSum:
		if !a.any {
			return sqltypes.Null
		}
		if a.isF {
			return sqltypes.NewFloat(a.sumF)
		}
		return sqltypes.NewInt(a.sumI)
	case algebra.AggAvg:
		if a.count == 0 {
			return sqltypes.Null
		}
		return sqltypes.NewFloat(a.sumF / float64(a.count))
	case algebra.AggMin, algebra.AggMax:
		return a.ext // NULL until a value arrives
	default:
		return sqltypes.Null
	}
}

func buildAgg(n *algebra.Node, groupCols []algebra.OutCol, aggs []algebra.AggSpec, ctx *Context, stream bool) (Iterator, error) {
	kidCols := n.Kids[0].OutCols()
	gpos := make([]int, len(groupCols))
	for i, gc := range groupCols {
		gpos[i] = posOf(kidCols, gc.ID)
		if gpos[i] < 0 {
			return nil, fmt.Errorf("exec: grouping column col%d not in input", gc.ID)
		}
	}
	args := make([]expr.Expr, len(aggs))
	argPos := make([]int, len(aggs))
	for i, a := range aggs {
		argPos[i] = -1
		if a.Arg != nil {
			bound, err := bindExpr(a.Arg, kidCols)
			if err != nil {
				return nil, err
			}
			args[i] = bound
			if cr, ok := bound.(*expr.ColRef); ok {
				argPos[i] = cr.Pos()
			}
		}
	}
	child, err := Build(n.Kids[0], ctx)
	if err != nil {
		return nil, err
	}
	h := &hashAggIter{ctx: ctx, child: child, gpos: gpos, specs: aggs, args: args, argPos: argPos, stream: stream}
	ctx.hold(&h.groups)
	return h, nil
}

// hashAggIter is both aggregates. It drains its child a batch at a time,
// turns each batch into one group id per live row, and then folds each
// aggregate's argument into the groups' accumulators. The hash aggregate
// finds a row's group in a key table; the stream aggregate, whose input
// arrives ordered by the grouping columns, compares the row's key with the
// last group's alone, so a group is a run of adjacent equal keys.
type hashAggIter struct {
	ctx    *Context
	child  Iterator
	gpos   []int
	specs  []algebra.AggSpec
	args   []expr.Expr
	argPos []int // the input column a plain-column argument is, else -1
	stream bool  // group ids by adjacency (StreamAgg), not by hash

	// The groups, by id in first-seen order. Column k of groups is grouping
	// column k of every group, in the representation the input delivered,
	// kpos lists those columns' positions, and once the input is drained
	// column len(gpos)+i holds specs[i]'s results, so the store is the
	// output. accs[g*len(specs)+i] is group g's accumulator for specs[i].
	// tab files each group id under its key's hash, and eq confirms a hit
	// against the stored keys.
	groups rowset.Store
	kpos   []int
	accs   []accumulator
	tab    keyTable
	eq     keyEq
	pos    int // the next group to emit

	// Scratch reused across batches and executions.
	in   *rowset.Batch
	hs   []uint64
	gids []int32
	one  [1]int32
	arg  rowset.Vec // a computed argument's values over the live rows
	seq  []int
}

func (h *hashAggIter) Open() error {
	if h.in == nil {
		h.in = h.ctx.newBatch()
		h.kpos = make([]int, len(h.gpos))
		for k := range h.kpos {
			h.kpos[k] = k
		}
	}
	h.groups.Reset(len(h.gpos) + len(h.specs))
	h.tab.reset()
	h.accs, h.pos = h.accs[:0], 0
	if len(h.gpos) == 0 {
		h.newGroup(nil, 0, 0) // a scalar aggregate has its one group even over no rows
	}
	if err := drain(h.child, h.in, h.addBatch); err != nil {
		return err
	}
	h.results()
	return nil
}

// addBatch folds the input batch into the groups: one pass assigns each
// live row its group id, opening groups for keys not seen before, and then
// each aggregate takes its argument over the whole batch.
func (h *hashAggIter) addBatch() error {
	cols, live := h.in.Cols(), h.in.Indices()
	gids := h.gids[:0]
	switch {
	case len(h.gpos) == 0:
		for range live {
			gids = append(gids, 0)
		}
	case h.stream:
		h.eq.bind(cols, h.gpos, h.groups.Cols(), h.kpos)
		for _, p := range live {
			g := int32(h.groups.Len() - 1)
			if g < 0 || !h.eq.equal(p, int(g)) {
				g = h.newGroup(cols, p, 0)
				h.eq.bind(cols, h.gpos, h.groups.Cols(), h.kpos) // keys grew
			}
			gids = append(gids, g)
		}
	default:
		h.hs = hashKeys(h.hs, cols, h.gpos, live)
		h.eq.bind(cols, h.gpos, h.groups.Cols(), h.kpos)
		for k, p := range live {
			g := h.eq.match(&h.tab, p, h.tab.find(h.hs[k]))
			if g < 0 {
				g = h.newGroup(cols, p, h.hs[k])
				h.eq.bind(cols, h.gpos, h.groups.Cols(), h.kpos) // keys grew
			}
			gids = append(gids, g)
		}
	}
	h.gids = gids
	for i := range h.specs {
		if err := h.update(i, cols, live, gids); err != nil {
			return err
		}
	}
	return nil
}

// newGroup opens a group whose key is row p of cols, filed under hash
// unless the groups are runs, and returns its id.
func (h *hashAggIter) newGroup(cols []rowset.Vec, p int, hash uint64) int32 {
	g := int32(h.groups.Len())
	if !h.stream {
		h.tab.insert(hash)
	}
	h.one[0] = int32(p)
	h.groups.Add(cols, h.gpos, h.one[:])
	if len(h.accs)+len(h.specs) > cap(h.accs) {
		// Double the room: append grows a long slice by about a quarter,
		// which would copy every accumulator a dozen times on the way to a
		// thousand groups.
		h.accs = slices.Grow(h.accs, len(h.accs)+len(h.specs))
	}
	for _, s := range h.specs {
		h.accs = append(h.accs, newAccumulator(s))
	}
	return g
}

// update folds specs[i]'s argument over the live rows into their groups'
// accumulators: COUNT(*), and a COUNT, SUM or AVG of a typed column or of
// a computed argument that evaluates typed, in one typed loop; any other
// argument, a DISTINCT, MIN and MAX row by row through accumulator.add.
func (h *hashAggIter) update(i int, cols []rowset.Vec, live []int, gids []int32) error {
	// accs[g*w] is group g's accumulator for specs[i].
	accs, w := h.accs[i:], len(h.specs)
	if h.args[i] == nil { // COUNT(*)
		for _, g := range gids {
			accs[int(g)*w].count++
		}
		return nil
	}
	var col *rowset.Vec
	if h.argPos[i] < 0 { // a computed argument, evaluated densely over the live rows
		if err := expr.EvalVec(h.args[i], &h.ctx.Env, cols, live, &h.arg); err != nil {
			return err
		}
		col, live = &h.arg, firstN(&h.seq, len(live))
	} else {
		col = &cols[h.argPos[i]]
	}
	fn := h.specs[i].Func
	nulls, sum := col.HasNulls(), fn == algebra.AggSum || fn == algebra.AggAvg
	switch kind := col.Kind(); {
	case h.specs[i].Distinct || kind == sqltypes.KindNull:
	case fn == algebra.AggCount:
		for k, p := range live {
			if !nulls || col.Valid(p) {
				accs[int(gids[k])*w].count++
			}
		}
		return nil
	case sum && (kind == sqltypes.KindInt || kind == sqltypes.KindBool):
		xs := col.Int64s()
		for k, p := range live {
			if nulls && !col.Valid(p) {
				continue
			}
			a := &accs[int(gids[k])*w]
			a.count++
			a.sumI += xs[p]
			a.sumF += float64(xs[p])
			a.any = true
		}
		return nil
	case sum && kind == sqltypes.KindFloat:
		xs := col.Float64s()
		for k, p := range live {
			if nulls && !col.Valid(p) {
				continue
			}
			a := &accs[int(gids[k])*w]
			a.count++
			a.sumF += xs[p]
			a.isF, a.any = true, true
		}
		return nil
	}
	for k, p := range live {
		if err := accs[int(gids[k])*w].add(col.Value(p)); err != nil {
			return err
		}
	}
	return nil
}

// results writes each aggregate's result column, one value per group.
func (h *hashAggIter) results() {
	n, nk, na := h.groups.Len(), len(h.gpos), len(h.specs)
	for i, spec := range h.specs {
		col := &h.groups.Cols()[nk+i]
		col.ResetTyped(spec.Out.Kind, n)
		for g := 0; g < n; g++ {
			col.SetValue(g, h.accs[g*na+i].result())
		}
	}
}

// NextBatch hands up the groups, a batch at a time.
func (h *hashAggIter) NextBatch(b *rowset.Batch) error {
	if h.pos >= h.groups.Len() {
		return io.EOF
	}
	h.pos += h.groups.Emit(b, h.pos)
	return nil
}

func (h *hashAggIter) Close() error {
	h.pos = h.groups.Len()
	return nil
}
