package exec

import (
	"fmt"
	"io"
	"math/rand"
	"slices"
	"testing"

	"dhqp/internal/algebra"
	"dhqp/internal/expr"
	"dhqp/internal/sqltypes"
)

// The aggregate oracle's row layout: a key declared INT that also carries
// FLOATs of equal and unequal value and INTs past 2^53 (a batch holding a
// FLOAT degrades it), a string, a column declared INT that turns to strings
// part-way, an INT and a FLOAT argument.
const (
	aggK, aggS, aggMixed, aggV, aggF = 0, 1, 2, 3, 4
	aggWidth                         = 5
)

var aggKinds = []sqltypes.Kind{sqltypes.KindInt, sqltypes.KindString, sqltypes.KindInt, sqltypes.KindInt, sqltypes.KindFloat}

// aggOracleSpec is one aggregate of the oracle's: fn over column col (-1:
// COUNT(*)), doubled when double is set (a computed argument, col * 2).
type aggOracleSpec struct {
	fn       algebra.AggFunc
	col      int
	distinct bool
	double   bool
}

var aggOracleSpecs = []aggOracleSpec{
	{fn: algebra.AggCount, col: -1},
	{fn: algebra.AggCount, col: aggV},
	{fn: algebra.AggCount, col: aggS},
	{fn: algebra.AggSum, col: aggV},
	{fn: algebra.AggSum, col: aggF},
	{fn: algebra.AggAvg, col: aggV},
	{fn: algebra.AggAvg, col: aggF},
	{fn: algebra.AggMin, col: aggS},
	{fn: algebra.AggMin, col: aggK},
	{fn: algebra.AggMin, col: aggF},
	{fn: algebra.AggMax, col: aggMixed},
	{fn: algebra.AggMax, col: aggK},
	{fn: algebra.AggMax, col: aggV},
	{fn: algebra.AggCount, col: aggK, distinct: true},
	{fn: algebra.AggCount, col: aggMixed, distinct: true},
	{fn: algebra.AggSum, col: aggV, distinct: true},
	{fn: algebra.AggSum, col: aggV, double: true},
}

type aggCase struct {
	rows  [][]cell
	keep  []bool
	gcols []int
}

func genAggCase(rng *rand.Rand, n int) *aggCase {
	groupings := [][]int{{aggK}, {aggS}, {aggK, aggS}, {aggMixed}, {}, {aggS, aggMixed, aggK}}
	c := &aggCase{gcols: groupings[n%len(groupings)]}
	maybe := func(p float64, v cell) cell {
		if rng.Float64() < p {
			return cell{}
		}
		return v
	}
	// Every grouping spans several batches once, and case 10 is a scalar
	// aggregate over no rows.
	rows := []int{0, 1, 9, 200, 1500}[n%5]
	if n < len(groupings) {
		rows = 1500
	}
	turn := rng.Intn(rows + 1) // where the mixed column stops being INT
	for i := 0; i < rows; i++ {
		k := cell{kind: 'i', i: int64(rng.Intn(5))}
		switch rng.Intn(10) {
		case 0: // past 2^53, where neighbours share one float64
			k.i = 1<<53 + int64(rng.Intn(2))
		case 1: // a FLOAT equal to an INT key
			k = cell{kind: 'f', f: float64(k.i)}
		case 2:
			k = cell{kind: 'f', f: 1 << 53}
		case 3:
			k = cell{kind: 'f', f: float64(k.i) + 0.5}
		}
		mixed := cell{kind: 'i', i: int64(rng.Intn(4))}
		if i >= turn {
			mixed = cell{kind: 's', s: fmt.Sprintf("m%d", rng.Intn(4))}
		}
		c.rows = append(c.rows, []cell{
			maybe(0.1, k),
			maybe(0.1, cell{kind: 's', s: fmt.Sprintf("s%d", rng.Intn(4))}),
			maybe(0.1, mixed),
			maybe(0.1, cell{kind: 'i', i: int64(rng.Intn(100))}),
			maybe(0.1, cell{kind: 'f', f: float64(rng.Intn(200)) / 8}),
		})
		c.keep = append(c.keep, rng.Intn(5) > 0)
	}
	return c
}

// groupEqual is grouping equality in the oracle's terms: NULL groups with
// NULL, and values compare as cellCompare orders them.
func groupEqual(a, b cell) bool {
	if a.kind == 0 || b.kind == 0 {
		return a.kind == b.kind
	}
	return cellCompare(a, b) == 0
}

// expect is the oracle: each kept row joins the first group, in first-seen
// order, whose key equals its own, and each aggregate is computed from the
// list of its group's non-NULL arguments in arrival order.
func (c *aggCase) expect() [][]cell {
	type group struct {
		key  []cell
		rows int64
		args [][]cell // per spec
	}
	var groups []*group
	if len(c.gcols) == 0 {
		groups = append(groups, &group{args: make([][]cell, len(aggOracleSpecs))})
	}
	for ri, r := range c.rows {
		if !c.keep[ri] {
			continue
		}
		var g *group
		for _, cand := range groups {
			eq := true
			for k, col := range c.gcols {
				eq = eq && groupEqual(cand.key[k], r[col])
			}
			if eq {
				g = cand
				break
			}
		}
		if g == nil {
			g = &group{args: make([][]cell, len(aggOracleSpecs))}
			for _, col := range c.gcols {
				g.key = append(g.key, r[col])
			}
			groups = append(groups, g)
		}
		g.rows++
		for i, sp := range aggOracleSpecs {
			if sp.col < 0 || r[sp.col].kind == 0 {
				continue
			}
			v := r[sp.col]
			if sp.double {
				v.i *= 2
			}
			if sp.distinct && slices.ContainsFunc(g.args[i], func(o cell) bool { return groupEqual(o, v) }) {
				continue
			}
			g.args[i] = append(g.args[i], v)
		}
	}
	var out [][]cell
	for _, g := range groups {
		row := append([]cell{}, g.key...)
		for i, sp := range aggOracleSpecs {
			row = append(row, oracleAggregate(sp.fn, g.args[i], g.rows, sp.col < 0))
		}
		out = append(out, row)
	}
	return out
}

// oracleAggregate computes fn over args, the non-NULL arguments in arrival
// order; star marks COUNT(*), which counts rows.
func oracleAggregate(fn algebra.AggFunc, args []cell, rows int64, star bool) cell {
	sum, isF := 0.0, false
	var sumI int64
	for _, a := range args {
		if a.kind == 'f' {
			sum, isF = sum+a.f, true
		} else {
			sum, sumI = sum+float64(a.i), sumI+a.i
		}
	}
	switch fn {
	case algebra.AggCount:
		if star {
			return cell{kind: 'i', i: rows}
		}
		return cell{kind: 'i', i: int64(len(args))}
	case algebra.AggSum:
		switch {
		case len(args) == 0:
			return cell{}
		case isF:
			return cell{kind: 'f', f: sum}
		}
		return cell{kind: 'i', i: sumI}
	case algebra.AggAvg:
		if len(args) == 0 {
			return cell{}
		}
		return cell{kind: 'f', f: sum / float64(len(args))}
	}
	var best cell // MIN or MAX: the first of the extreme values
	for _, a := range args {
		d := cellCompare(a, best)
		if best.kind == 0 || fn == algebra.AggMin && d < 0 || fn == algebra.AggMax && d > 0 {
			best = a
		}
	}
	return best
}

type aggMode struct {
	batch   int
	generic bool // the source delivers generic columns
	image   bool // the source delivers windows onto a columnar image
}

func (c *aggCase) iter(m aggMode) (*hashAggIter, error) {
	layout := map[expr.ColumnID]int{}
	for j := 0; j < aggWidth; j++ {
		layout[expr.ColumnID(j)] = j
	}
	src := newJoinSrc(aggKinds, c.rows, c.keep)
	src.generic = m.generic
	if m.image {
		src.fromImage()
	}
	h := &hashAggIter{
		ctx:   &Context{BatchSize: m.batch},
		child: src,
		gpos:  c.gcols,
	}
	for _, sp := range aggOracleSpecs {
		h.specs = append(h.specs, algebra.AggSpec{Func: sp.fn, Distinct: sp.distinct})
		if sp.col < 0 {
			h.args, h.argPos = append(h.args, nil), append(h.argPos, -1)
			continue
		}
		var e expr.Expr = expr.NewColRef(expr.ColumnID(sp.col), "c")
		if sp.double {
			e = expr.NewBinary(expr.OpMul, e, expr.NewConst(sqltypes.NewInt(2)))
		}
		bound, err := expr.Bind(e, layout)
		if err != nil {
			return nil, err
		}
		pos := -1
		if cr, ok := bound.(*expr.ColRef); ok {
			pos = cr.Pos()
		}
		h.args, h.argPos = append(h.args, bound), append(h.argPos, pos)
	}
	return h, nil
}

// TestHashAggOracle compares the hash aggregate, groups in first-seen order,
// against an evaluator with its own grouping that shares no code with it:
// NULL groups, INT and FLOAT keys of equal value, INT keys past 2^53 that
// share a float64, one- to three-column and STRING keys, a column that turns
// generic mid-stream, a scalar aggregate over no rows, COUNT/SUM/AVG/MIN/MAX,
// DISTINCT and a computed argument, selection vectors, at batch sizes 1, 3
// and the default over typed, generic and image-borrowed source columns.
// Each aggregate is opened, read once, and opened again, so nothing of one
// execution may leak into the next; none writes into an image it reads.
func TestHashAggOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var modes []aggMode
	for _, batch := range []int{1, 3, 0} {
		modes = append(modes, aggMode{batch: batch}, aggMode{batch: batch, generic: true}, aggMode{batch: batch, image: true})
	}
	for n := 0; n < 12; n++ {
		c := genAggCase(rng, n)
		want := c.expect()
		for _, m := range modes {
			h, err := c.iter(m)
			if err != nil {
				t.Fatal(err)
			}
			src := h.child.(*joinSrc)
			sum := src.imageSum()
			got, err := drainAgg(h)
			if err != nil {
				t.Fatalf("case %d %+v: %v", n, m, err)
			}
			if src.imageSum() != sum {
				t.Fatalf("case %d %+v: the aggregate wrote into the image it read", n, m)
			}
			if len(got) != len(want) {
				t.Fatalf("case %d (group by %v, %d rows) %+v: %d groups, oracle has %d", n, c.gcols, len(c.rows), m, len(got), len(want))
			}
			for i := range want {
				if !slices.Equal(got[i], want[i]) {
					t.Fatalf("case %d (group by %v) %+v: group %d = %v, oracle has %v", n, c.gcols, m, i, got[i], want[i])
				}
			}
		}
	}
}

func drainAgg(h *hashAggIter) ([][]cell, error) {
	b := h.ctx.newBatch()
	if err := h.Open(); err != nil {
		return nil, err
	}
	if err := h.NextBatch(b); err != nil && err != io.EOF {
		return nil, err
	}
	if err := h.Open(); err != nil {
		return nil, err
	}
	var out [][]cell
	for {
		err := h.NextBatch(b)
		if err == io.EOF {
			return out, h.Close()
		}
		if err != nil {
			return nil, err
		}
		for i := 0; i < b.Len(); i++ {
			out = append(out, cellsOf(b.RowAt(i, nil)))
		}
	}
}

// BenchmarkHashAgg times the aggregate's per-batch work alone — group ids
// for 1 024 rows, then COUNT(*), SUM of an INT and AVG of a FLOAT — over
// 1 000 groups keyed by STRING and by INT. The groups are made before the
// timer starts, and the run fails if a refilled batch then allocates.
func BenchmarkHashAgg(b *testing.B) {
	for _, kind := range []sqltypes.Kind{sqltypes.KindString, sqltypes.KindInt} {
		b.Run(kind.String(), func(b *testing.B) {
			const groups, rows = 1000, 4096
			var cells [][]cell
			for i := 0; i < rows; i++ {
				key := cell{kind: 'i', i: int64(i * 7 % groups)}
				if kind == sqltypes.KindString {
					key = cell{kind: 's', s: fmt.Sprintf("dim%04d", key.i)}
				}
				cells = append(cells, []cell{key, {kind: 'i', i: int64(i % 100)}, {kind: 'f', f: float64(i) / 8}})
			}
			kinds := []sqltypes.Kind{kind, sqltypes.KindInt, sqltypes.KindFloat}
			col := func(j int) expr.Expr {
				e, err := expr.Bind(expr.NewColRef(expr.ColumnID(j), "c"), map[expr.ColumnID]int{expr.ColumnID(j): j})
				if err != nil {
					b.Fatal(err)
				}
				return e
			}
			h := &hashAggIter{
				ctx: &Context{}, child: newJoinSrc(kinds, cells, nil), gpos: []int{0},
				specs:  []algebra.AggSpec{{Func: algebra.AggCount}, {Func: algebra.AggSum}, {Func: algebra.AggAvg}},
				args:   []expr.Expr{nil, col(1), col(2)},
				argPos: []int{-1, 1, 2},
			}
			if err := h.Open(); err != nil {
				b.Fatal(err)
			}
			if h.tab.len() != groups {
				b.Fatalf("%d groups, want %d", h.tab.len(), groups)
			}
			src := newJoinSrc(kinds, cells, nil)
			src.loop = true
			add := func() {
				if err := src.NextBatch(h.in); err != nil {
					b.Fatal(err)
				}
				if err := h.addBatch(); err != nil {
					b.Fatal(err)
				}
			}
			if allocs := testing.AllocsPerRun(20, add); allocs != 0 {
				b.Fatalf("a refilled batch allocates %.1f times, want 0", allocs)
			}
			if h.tab.len() != groups {
				b.Fatalf("%d groups after refills, want %d", h.tab.len(), groups)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				add()
			}
			b.ReportMetric(float64(b.N*h.in.Len())/b.Elapsed().Seconds(), "rows/s")
		})
	}
}
