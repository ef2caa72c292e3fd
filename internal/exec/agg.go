package exec

import (
	"fmt"
	"io"

	"dhqp/internal/algebra"
	"dhqp/internal/expr"
	"dhqp/internal/rowset"
	"dhqp/internal/sqltypes"
)

// accumulator computes one aggregate over a group.
type accumulator struct {
	fn       algebra.AggFunc
	distinct bool
	seen     map[uint64]bool

	count int64
	sumI  int64
	sumF  float64
	isF   bool
	min   sqltypes.Value
	max   sqltypes.Value
	any   bool
}

func newAccumulator(spec algebra.AggSpec) *accumulator {
	a := &accumulator{fn: spec.Func, distinct: spec.Distinct}
	if spec.Distinct {
		a.seen = map[uint64]bool{}
	}
	return a
}

func (a *accumulator) add(v sqltypes.Value, isStar bool) error {
	if !isStar && v.IsNull() {
		return nil // aggregates skip NULLs
	}
	if a.distinct {
		h := v.Hash()
		if a.seen[h] {
			return nil
		}
		a.seen[h] = true
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
		if !a.any || sqltypes.Compare(v, a.min) < 0 {
			a.min = v
		}
	case algebra.AggMax:
		if !a.any || sqltypes.Compare(v, a.max) > 0 {
			a.max = v
		}
	}
	a.any = true
	return nil
}

// addVec accumulates element idx of a batch column without boxing it.
// Generic columns fall back to the boxed path; typed columns feed SUM/AVG
// straight from the flat payload. Semantics (NULL skip, DISTINCT hashing,
// kind errors) match add exactly — hashVecAt is defined to produce the
// same hash Value.Hash would.
func (a *accumulator) addVec(vec *rowset.Vec, idx int) error {
	if !vec.IsTyped() {
		return a.add(vec.Gen()[idx], false)
	}
	if !vec.Valid(idx) {
		return nil // aggregates skip NULLs
	}
	if a.distinct {
		h, _ := hashVecAt(vec, idx)
		if a.seen[h] {
			return nil
		}
		a.seen[h] = true
	}
	a.count++
	switch a.fn {
	case algebra.AggCount:
	case algebra.AggSum, algebra.AggAvg:
		switch vec.Kind() {
		case sqltypes.KindInt, sqltypes.KindBool:
			i := vec.Int64s()[idx]
			a.sumI += i
			a.sumF += float64(i)
		case sqltypes.KindFloat:
			a.isF = true
			a.sumF += vec.Float64s()[idx]
		default:
			return fmt.Errorf("exec: SUM/AVG over %s", vec.Kind())
		}
	case algebra.AggMin:
		if v := vec.Value(idx); !a.any || sqltypes.Compare(v, a.min) < 0 {
			a.min = v
		}
	case algebra.AggMax:
		if v := vec.Value(idx); !a.any || sqltypes.Compare(v, a.max) > 0 {
			a.max = v
		}
	}
	a.any = true
	return nil
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
	case algebra.AggMin:
		if !a.any {
			return sqltypes.Null
		}
		return a.min
	case algebra.AggMax:
		if !a.any {
			return sqltypes.Null
		}
		return a.max
	default:
		return sqltypes.Null
	}
}

func buildAgg(n *algebra.Node, groupCols []algebra.OutCol, aggs []algebra.AggSpec, ctx *Context, stream bool) (Iterator, error) {
	child, err := Build(n.Kids[0], ctx)
	if err != nil {
		return nil, err
	}
	kidCols := n.Kids[0].OutCols()
	gpos := make([]int, len(groupCols))
	for i, gc := range groupCols {
		gpos[i] = posOf(kidCols, gc.ID)
		if gpos[i] < 0 {
			return nil, fmt.Errorf("exec: grouping column col%d not in input", gc.ID)
		}
	}
	args := make([]expr.Expr, len(aggs))
	for i, a := range aggs {
		if a.Arg != nil {
			bound, err := bindExpr(a.Arg, kidCols)
			if err != nil {
				return nil, err
			}
			args[i] = bound
		}
	}
	if stream {
		return &streamAggIter{ctx: ctx, child: child, gpos: gpos, specs: aggs, args: args}, nil
	}
	return &hashAggIter{ctx: ctx, child: child, gpos: gpos, specs: aggs, args: args}, nil
}

// hashAggIter groups with a hash table (no input order requirement).
type hashAggIter struct {
	ctx   *Context
	child Iterator
	gpos  []int
	specs []algebra.AggSpec
	args  []expr.Expr

	out *rowset.Materialized

	// Scratch reused across rows and executions: the key encoder makes
	// every existing-group probe an allocation-free m[string(key)] lookup,
	// and the Env serves every accumulated row instead of one each.
	kenc keyEnc
	venv *expr.Env
	in   *rowset.Batch
}

// aggGroup is one group's key values and accumulator bank.
type aggGroup struct {
	key  rowset.Row
	accs []*accumulator
}

func (h *hashAggIter) newGroup(r rowset.Row) *aggGroup {
	g := &aggGroup{accs: make([]*accumulator, len(h.specs))}
	for i, s := range h.specs {
		g.accs[i] = newAccumulator(s)
	}
	gk := make(rowset.Row, len(h.gpos))
	for i, p := range h.gpos {
		gk[i] = r[p]
	}
	g.key = gk
	return g
}

func (h *hashAggIter) Open() error {
	h.out = nil
	if err := h.child.Open(); err != nil {
		return err
	}
	if h.venv == nil {
		h.venv = &expr.Env{}
	}
	h.venv.Params, h.venv.Today = h.ctx.Params, h.ctx.Today
	groups := map[string]*aggGroup{}
	var order []string
	scalar := len(h.gpos) == 0
	addRow := func(r rowset.Row) error {
		// encodeAll (unlike join keys) hashes NULLs like any value: a NULL
		// grouping key forms its own group. The scalar case uses the empty
		// key. string(kb) on a lookup does not allocate; only a genuinely
		// new group pays the string copy.
		var kb []byte
		if !scalar {
			kb = h.kenc.encodeAll(r, h.gpos)
		}
		g := groups[string(kb)]
		if g == nil {
			g = h.newGroup(r)
			key := string(kb)
			groups[key] = g
			order = append(order, key)
		}
		return h.accumulate(g.accs, r)
	}
	if h.ctx.vectorized() {
		// Batch-drain the child: group keys hash straight off the batch
		// columns (typed payloads or boxed values alike) and plain column
		// aggregate arguments accumulate via addVec without building a row.
		// A row is gathered only when a new group needs its key values or a
		// computed argument needs a full Env.
		bchild := asBatchIterator(h.child)
		if h.in == nil {
			h.in = h.ctx.newBatch()
		}
		argPos := make([]int, len(h.args))
		anyComplex := false
		for i, a := range h.args {
			argPos[i] = -1
			if a != nil {
				argPos[i] = expr.BoundColPos(a)
				if argPos[i] < 0 {
					anyComplex = true
				}
			}
		}
		var rbuf rowset.Row
		for {
			err := bchild.NextBatch(h.in)
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			cols := h.in.Cols()
			n := h.in.Len()
			for i := 0; i < n; i++ {
				idx := h.in.PhysIdx(i)
				var kb []byte
				if !scalar {
					kb = h.kenc.encodeAllVec(cols, idx, h.gpos)
				}
				g := groups[string(kb)]
				if g == nil || anyComplex {
					rbuf = h.in.RowAt(i, rbuf)
				}
				if g == nil {
					g = h.newGroup(rbuf)
					key := string(kb)
					groups[key] = g
					order = append(order, key)
				}
				if err := h.accumulateVec(g.accs, cols, idx, argPos, rbuf); err != nil {
					return err
				}
			}
		}
	} else {
		for {
			r, err := h.child.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			if err := addRow(r); err != nil {
				return err
			}
		}
	}
	if scalar && len(groups) == 0 {
		// Scalar aggregate over empty input yields one row.
		groups[""] = h.newGroup(nil)
		order = append(order, "")
	}
	out := rowset.NewMaterialized(nil, nil)
	// Deterministic output: groups emit in first-seen order.
	for _, key := range order {
		g := groups[key]
		row := make(rowset.Row, 0, len(h.gpos)+len(h.specs))
		row = append(row, g.key...)
		for _, a := range g.accs {
			row = append(row, a.result())
		}
		out.Append(row)
	}
	h.out = out
	return h.child.Close()
}

func (h *hashAggIter) accumulate(accs []*accumulator, r rowset.Row) error {
	env := h.venv
	env.Row = r
	for i, a := range accs {
		if h.args[i] == nil {
			if err := a.add(sqltypes.NewInt(1), true); err != nil {
				return err
			}
			continue
		}
		v, err := h.args[i].Eval(env)
		if err != nil {
			return err
		}
		if err := a.add(v, false); err != nil {
			return err
		}
	}
	return nil
}

// accumulateVec is accumulate for the batch path: plain column arguments
// read their value straight from the batch column at physical index idx;
// computed arguments evaluate against row (gathered by the caller).
func (h *hashAggIter) accumulateVec(accs []*accumulator, cols []rowset.Vec, idx int, argPos []int, row rowset.Row) error {
	for i, a := range accs {
		if h.args[i] == nil {
			if err := a.add(sqltypes.NewInt(1), true); err != nil {
				return err
			}
			continue
		}
		if p := argPos[i]; p >= 0 {
			if err := a.addVec(&cols[p], idx); err != nil {
				return err
			}
			continue
		}
		env := h.venv
		env.Row = row
		v, err := h.args[i].Eval(env)
		if err != nil {
			return err
		}
		if err := a.add(v, false); err != nil {
			return err
		}
	}
	return nil
}

func (h *hashAggIter) Next() (rowset.Row, error) {
	if h.out == nil {
		return nil, io.EOF
	}
	return h.out.Next()
}

// NextBatch drains the materialized group rows batch-at-a-time.
func (h *hashAggIter) NextBatch(b *rowset.Batch) error {
	if h.out == nil {
		return io.EOF
	}
	return h.out.NextBatch(b)
}

func (h *hashAggIter) Close() error {
	h.out = nil
	return nil
}

// streamAggIter aggregates input already ordered by the grouping columns.
type streamAggIter struct {
	ctx   *Context
	child Iterator
	gpos  []int
	specs []algebra.AggSpec
	args  []expr.Expr

	curKey  rowset.Row
	accs    []*accumulator
	done    bool
	started bool
}

func (s *streamAggIter) Open() error {
	s.curKey, s.accs, s.done, s.started = nil, nil, false, false
	return s.child.Open()
}

func (s *streamAggIter) newAccs() []*accumulator {
	accs := make([]*accumulator, len(s.specs))
	for i, sp := range s.specs {
		accs[i] = newAccumulator(sp)
	}
	return accs
}

func (s *streamAggIter) emit() rowset.Row {
	row := make(rowset.Row, 0, len(s.curKey)+len(s.accs))
	row = append(row, s.curKey...)
	for _, a := range s.accs {
		row = append(row, a.result())
	}
	return row
}

func (s *streamAggIter) Next() (rowset.Row, error) {
	if s.done {
		return nil, io.EOF
	}
	for {
		r, err := s.child.Next()
		if err == io.EOF {
			s.done = true
			if s.started {
				return s.emit(), nil
			}
			if len(s.gpos) == 0 {
				// Scalar aggregate over empty input.
				s.curKey = nil
				s.accs = s.newAccs()
				return s.emit(), nil
			}
			return nil, io.EOF
		}
		if err != nil {
			return nil, err
		}
		key := make(rowset.Row, len(s.gpos))
		for i, p := range s.gpos {
			key[i] = r[p]
		}
		var flush rowset.Row
		if s.started && !keysEqual(key, s.curKey) {
			flush = s.emit()
			s.started = false
		}
		if !s.started {
			s.curKey = key.Clone()
			s.accs = s.newAccs()
			s.started = true
		}
		env := s.ctx.env(r)
		for i, a := range s.accs {
			if s.args[i] == nil {
				if err := a.add(sqltypes.NewInt(1), true); err != nil {
					return nil, err
				}
				continue
			}
			v, err := s.args[i].Eval(env)
			if err != nil {
				return nil, err
			}
			if err := a.add(v, false); err != nil {
				return nil, err
			}
		}
		if flush != nil {
			return flush, nil
		}
	}
}

func keysEqual(a, b rowset.Row) bool {
	for i := range a {
		if !sqltypes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

func (s *streamAggIter) Close() error { return s.child.Close() }
