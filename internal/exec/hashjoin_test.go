package exec

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"dhqp/internal/algebra"
	"dhqp/internal/expr"
	"dhqp/internal/rowset"
	"dhqp/internal/sqltypes"
)

// cell is the oracle's value model. It shares nothing with sqltypes beyond
// the conversions at the source and result edges, so the evaluators below
// cannot inherit a bug from the key table, its hashes or Vec.
type cell struct {
	kind byte // 0 NULL, 'i', 'f', 's'
	i    int64
	f    float64
	s    string
}

func (c cell) String() string {
	switch c.kind {
	case 'i':
		return fmt.Sprint(c.i)
	case 'f':
		return fmt.Sprintf("%gf", c.f)
	case 's':
		return fmt.Sprintf("%q", c.s)
	}
	return "NULL"
}

func (c cell) value() sqltypes.Value {
	switch c.kind {
	case 'i':
		return sqltypes.NewInt(c.i)
	case 'f':
		return sqltypes.NewFloat(c.f)
	case 's':
		return sqltypes.NewString(c.s)
	}
	return sqltypes.Null
}

func cellsOf(r rowset.Row) []cell {
	cs := make([]cell, len(r))
	for j, v := range r {
		cs[j] = cellOf(v)
	}
	return cs
}

func cellOf(v sqltypes.Value) cell {
	switch v.Kind() {
	case sqltypes.KindInt:
		return cell{kind: 'i', i: v.Int()}
	case sqltypes.KindFloat:
		return cell{kind: 'f', f: v.Float()}
	case sqltypes.KindString:
		return cell{kind: 's', s: v.Str()}
	}
	return cell{}
}

// cellCompare orders two non-NULL cells as SQL does: numbers by value (an
// INT against an INT exactly, through the float otherwise), every number
// before every string, strings by their bytes.
func cellCompare(a, b cell) int {
	if (a.kind == 's') != (b.kind == 's') {
		if a.kind == 's' {
			return 1
		}
		return -1
	}
	num := func(c cell) float64 {
		if c.kind == 'i' {
			return float64(c.i)
		}
		return c.f
	}
	switch {
	case a.kind == 's':
		return strings.Compare(a.s, b.s)
	case a.kind == 'i' && b.kind == 'i':
		return cmp.Compare(a.i, b.i)
	}
	return cmp.Compare(num(a), num(b))
}

// keyEqual is SQL join-key equality in the oracle's terms: NULL equals
// nothing, an INT equals an INT exactly and a FLOAT of the same value.
func keyEqual(a, b cell) bool {
	return a.kind != 0 && b.kind != 0 && cellCompare(a, b) == 0
}

// joinSrc is a test source. NextBatch copies out typed columns per kinds
// (a value of another kind degrades its column, as a storage scan would),
// generic columns when generic is set, or, once fromImage has run, windows
// onto a columnar image of the rows, as a storage scan hands them out; it
// hides the rows keep marks false behind a selection vector. With loop set
// it never reports EOF.
type joinSrc struct {
	kinds   []sqltypes.Kind
	rows    []rowset.Row
	keep    []bool
	loop    bool
	generic bool
	image   []rowset.Vec
	store   *rowset.Store // the rows NextBatch copies out, once it has run
	pos     int
	sel     []int
}

// fromImage builds the rows' columnar image, one full-length Vec per
// column as storage builds it, and makes NextBatch borrow from it.
func (s *joinSrc) fromImage() {
	s.image = make([]rowset.Vec, len(s.kinds))
	for j, k := range s.kinds {
		s.image[j] = rowset.BuildColVec(k, s.rows, j)
	}
}

// imageSum hashes every vector of the source's image: payloads, validity
// and boxed values, so any write into the image changes it.
func (s *joinSrc) imageSum() uint64 {
	h := fnv.New64a()
	for j := range s.image {
		v := &s.image[j]
		fmt.Fprint(h, v.Kind(), v.Int64s(), v.Float64s(), v.Strings())
		for i := range s.rows {
			fmt.Fprint(h, v.Valid(i), v.Value(i))
		}
	}
	return h.Sum64()
}

// genericKinds are all KindNull: a store built under them holds generic
// columns.
var genericKinds [16]sqltypes.Kind

// storeOf holds rows in a store, column j typed to kinds[j].
func storeOf(kinds []sqltypes.Kind, rows []rowset.Row) *rowset.Store {
	img := make([]rowset.Vec, len(kinds))
	for j, k := range kinds {
		img[j] = rowset.BuildColVec(k, rows, j)
	}
	ids := make([]int32, len(rows))
	for i := range ids {
		ids[i] = int32(i)
	}
	var s rowset.Store
	s.Reset(len(kinds))
	s.Add(img, nil, ids)
	return &s
}

func newJoinSrc(kinds []sqltypes.Kind, cells [][]cell, keep []bool) *joinSrc {
	s := &joinSrc{kinds: kinds, keep: keep}
	for _, cs := range cells {
		r := make(rowset.Row, len(cs))
		for j, c := range cs {
			r[j] = c.value()
		}
		s.rows = append(s.rows, r)
	}
	return s
}

func (s *joinSrc) Open() error  { s.pos = 0; return nil }
func (s *joinSrc) Close() error { return nil }

func (s *joinSrc) NextBatch(b *rowset.Batch) error {
	for {
		if s.pos >= len(s.rows) {
			if !s.loop || len(s.rows) == 0 {
				return io.EOF
			}
			s.pos = 0
		}
		from := s.pos
		if s.image != nil {
			s.pos = min(from+b.CapRows(), len(s.rows))
			b.FillCols(s.image, nil, from, s.pos-from)
		} else {
			if s.store == nil {
				kinds := s.kinds
				if s.generic {
					kinds = genericKinds[:len(kinds)]
				}
				s.store = storeOf(kinds, s.rows)
			}
			s.pos += s.store.Emit(b, from)
		}
		if s.keep == nil {
			return nil
		}
		s.sel = s.sel[:0]
		for i := from; i < s.pos; i++ {
			if s.keep[i] {
				s.sel = append(s.sel, i-from)
			}
		}
		if len(s.sel) == s.pos-from {
			return nil
		}
		if len(s.sel) > 0 {
			b.SetSelection(s.sel)
			return nil
		}
	}
}

// The oracle's row layout: two key columns (the build side stores them the
// other way round, so the two sides' key positions differ), a string, a
// column declared INT that turns to strings part-way (it degrades mid-build
// and mid-probe), an all-NULL column and the residual's operand.
const (
	colK1, colK2, colS, colMixed, colNull, colR = 0, 1, 2, 3, 4, 5
	joinWidth                                   = 6
)

var (
	probeKinds = []sqltypes.Kind{sqltypes.KindInt, sqltypes.KindInt, sqltypes.KindString, sqltypes.KindInt, sqltypes.KindInt, sqltypes.KindInt}
	buildKinds = []sqltypes.Kind{sqltypes.KindInt, sqltypes.KindInt, sqltypes.KindString, sqltypes.KindInt, sqltypes.KindString, sqltypes.KindInt}
)

type joinCase struct {
	probe, build [][]cell
	pkeep, bkeep []bool
	pkinds       []sqltypes.Kind
	lkeys, rkeys []int // key positions; the build side keeps k1 and k2 swapped
}

func genJoinCase(rng *rand.Rand, n int) *joinCase {
	c := &joinCase{pkinds: probeKinds, lkeys: []int{colK1}, rkeys: []int{colK2}}
	if n%2 == 1 {
		c.lkeys, c.rkeys = []int{colK1, colK2}, []int{colK2, colK1}
	}
	floatKey := n%3 == 1 // probe k1 is FLOAT, build k1 INT
	if floatKey {
		c.pkinds = append([]sqltypes.Kind{sqltypes.KindFloat}, probeKinds[1:]...)
	}
	maybe := func(p float64, v cell) cell {
		if rng.Float64() < p {
			return cell{}
		}
		return v
	}
	side := func(rows int, probe bool, tag string) ([][]cell, []bool) {
		turn := rng.Intn(rows + 1) // where the mixed column stops being INT
		var out [][]cell
		var keep []bool
		for i := 0; i < rows; i++ {
			k1 := cell{kind: 'i', i: int64(rng.Intn(8))}
			if rng.Intn(8) == 0 { // past 2^53, where neighbours share one float64
				k1.i = 1<<53 + int64(rng.Intn(2))
			}
			if probe && floatKey {
				k1 = cell{kind: 'f', f: float64(k1.i)}
				if rng.Intn(5) == 0 {
					k1.f += 0.5 // equals no INT
				}
			}
			mixed := cell{kind: 'i', i: int64(i)}
			if i >= turn {
				mixed = cell{kind: 's', s: fmt.Sprintf("%s-m%d", tag, i)}
			}
			out = append(out, []cell{
				maybe(0.1, k1),
				maybe(0.1, cell{kind: 'i', i: int64(rng.Intn(3))}),
				maybe(0.2, cell{kind: 's', s: fmt.Sprintf("%s%d", tag, i)}),
				maybe(0.1, mixed),
				{},
				maybe(0.1, cell{kind: 'i', i: int64(rng.Intn(10))}),
			})
			keep = append(keep, rng.Intn(4) > 0)
		}
		return out, keep
	}
	sizes := []int{0, 1, 7, 40}
	c.probe, c.pkeep = side(sizes[rng.Intn(len(sizes))], true, "p")
	c.build, c.bkeep = side(sizes[rng.Intn(len(sizes))], false, "b")
	if n == 1 || n == 6 { // a two-column FLOAT-vs-INT case and a one-column INT one
		// A hot key whose match list (1 100 rows) outruns the largest batch
		// ceiling, so it must span output batches at every batch size.
		hot := func(tag string, i int) []cell {
			return []cell{{kind: 'i', i: 99}, {kind: 'i', i: 1}, {kind: 's', s: fmt.Sprintf("%s-hot%d", tag, i)},
				{kind: 'i', i: int64(i)}, {}, {kind: 'i', i: int64(i % 10)}}
		}
		for i := 0; i < 1100; i++ {
			c.build, c.bkeep = append(c.build, hot("b", i)), append(c.bkeep, true)
		}
		for i := 0; i < 2; i++ {
			row := hot("p", i)
			if floatKey {
				row[colK1] = cell{kind: 'f', f: 99}
			}
			at := rng.Intn(len(c.probe) + 1)
			c.probe = append(c.probe[:at], append([][]cell{row}, c.probe[at:]...)...)
			c.pkeep = append(c.pkeep[:at], append([]bool{true}, c.pkeep[at:]...)...)
		}
	}
	for _, b := range c.build {
		b[colK1], b[colK2] = b[colK2], b[colK1]
	}
	return c
}

// expect is the nested-loop evaluator: probe rows in order, each against the
// build rows in order.
func (c *joinCase) expect(typ algebra.JoinType, residual bool) [][]cell {
	var out [][]cell
	for pi, p := range c.probe {
		if !c.pkeep[pi] {
			continue
		}
		matched := false
		for bi, b := range c.build {
			if !c.bkeep[bi] {
				continue
			}
			eq := true
			for i := range c.lkeys {
				eq = eq && keyEqual(p[c.lkeys[i]], b[c.rkeys[i]])
			}
			// The residual is probe.r < build.r; a NULL operand fails it.
			if eq && residual {
				eq = p[colR].kind == 'i' && b[colR].kind == 'i' && p[colR].i < b[colR].i
			}
			if !eq {
				continue
			}
			matched = true
			if typ == algebra.InnerJoin || typ == algebra.LeftOuterJoin {
				out = append(out, append(append([]cell{}, p...), b...))
			}
		}
		switch {
		case typ == algebra.LeftOuterJoin && !matched:
			out = append(out, append(append([]cell{}, p...), make([]cell, joinWidth)...))
		case typ == algebra.SemiJoin && matched, typ == algebra.AntiJoin && !matched:
			out = append(out, p)
		}
	}
	return out
}

type joinMode struct {
	batch   int
	generic bool // the sources deliver generic columns
	image   bool // the sources deliver windows onto columnar images
}

func (m joinMode) String() string {
	return fmt.Sprintf("batch=%d generic=%v image=%v", m.batch, m.generic, m.image)
}

func (c *joinCase) iter(typ algebra.JoinType, residual bool, m joinMode) (*hashJoinIter, error) {
	left, right := newJoinSrc(c.pkinds, c.probe, c.pkeep), newJoinSrc(buildKinds, c.build, c.bkeep)
	left.generic, right.generic = m.generic, m.generic
	if m.image {
		left.fromImage()
		right.fromImage()
	}
	h := &hashJoinIter{
		ctx:   &Context{BatchSize: m.batch},
		typ:   typ,
		left:  left,
		right: right,
		lpos:  c.lkeys, rpos: c.rkeys,
		lwidth: joinWidth, rwidth: joinWidth,
	}
	if residual {
		pr, br := expr.ColumnID(colR), expr.ColumnID(joinWidth+colR)
		res, err := expr.Bind(expr.NewBinary(expr.OpLt, expr.NewColRef(pr, "pr"), expr.NewColRef(br, "br")),
			map[expr.ColumnID]int{pr: colR, br: joinWidth + colR})
		if err != nil {
			return nil, err
		}
		h.residual = res
	}
	return h, nil
}

// drain opens the join, abandons it after one pull, reopens it and reads it
// to the end — so state a half-read match list leaves behind must not leak
// into the answer.
func drainJoin(h *hashJoinIter) ([][]cell, error) {
	b := h.ctx.newBatch()
	var out [][]cell
	pull := func() error {
		err := h.NextBatch(b)
		if err != nil {
			return err
		}
		if b.Len() == 0 || b.Len() > b.CapRows() {
			return fmt.Errorf("a fill of %d rows under a ceiling of %d", b.Len(), b.CapRows())
		}
		for i := 0; i < b.Len(); i++ {
			out = append(out, cellsOf(b.RowAt(i, nil)))
		}
		return nil
	}
	if err := h.Open(); err != nil {
		return nil, err
	}
	if err := pull(); err != nil && err != io.EOF {
		return nil, err
	}
	out = nil
	if err := h.Open(); err != nil {
		return nil, err
	}
	for {
		err := pull()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	if err := pull(); err != io.EOF {
		return nil, fmt.Errorf("a pull after EOF returned %v", err)
	}
	return out, h.Close()
}

// TestHashJoinOracle compares the hash join, as ordered lists, against a
// nested-loop evaluator that shares no code with it: seeded inputs with NULL
// and duplicate keys on both sides, a fan-out beyond the batch ceiling, one-
// and two-column keys, INT-vs-FLOAT keys, INT keys past 2^53 that share a
// float64, a string column, a column that degrades mid-stream, an all-NULL
// column and selection vectors, under every join type × residual × batch
// size × typed, generic or image-borrowed source columns. No join writes
// into an image it reads.
func TestHashJoinOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	types := []algebra.JoinType{algebra.InnerJoin, algebra.LeftOuterJoin, algebra.SemiJoin, algebra.AntiJoin}
	var modes []joinMode
	for _, batch := range []int{1, 3, 0} {
		modes = append(modes, joinMode{batch: batch}, joinMode{batch: batch, generic: true}, joinMode{batch: batch, image: true})
	}
	for n := 0; n < 12; n++ {
		c := genJoinCase(rng, n)
		for _, typ := range types {
			for _, residual := range []bool{false, true} {
				want := c.expect(typ, residual)
				for _, m := range modes {
					h, err := c.iter(typ, residual, m)
					if err != nil {
						t.Fatal(err)
					}
					left, right := h.left.(*joinSrc), h.right.(*joinSrc)
					sums := [2]uint64{left.imageSum(), right.imageSum()}
					got, err := drainJoin(h)
					if err != nil {
						t.Fatalf("case %d %v residual=%v %v: %v", n, typ, residual, m, err)
					}
					if sums != [2]uint64{left.imageSum(), right.imageSum()} {
						t.Fatalf("case %d %v residual=%v %v: the join wrote into an image it read", n, typ, residual, m)
					}
					if len(got) != len(want) {
						t.Fatalf("case %d %v residual=%v %v: %d rows, oracle has %d", n, typ, residual, m, len(got), len(want))
					}
					for i := range want {
						if !slices.Equal(got[i], want[i]) {
							t.Fatalf("case %d %v residual=%v %v: row %d = %v, oracle has %v", n, typ, residual, m, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// starJoin builds an inner-or-outer join of a fact-shaped probe side
// (f_id INT, f_dim INT, f_fv FLOAT) with a dim-shaped build side
// (d_id INT, d_name STRING; d_name is NULL on every 10th row), both typed
// sources. Every keepEvery-th fact row is live (1: all of them); fact rows
// whose f_dim reaches past the dimension do not match.
func starJoin(typ algebra.JoinType, typed bool, factRows, dimRows, keepEvery int, loop bool) *hashJoinIter {
	var fact, dim [][]cell
	var keep []bool
	for i := 0; i < factRows; i++ {
		fact = append(fact, []cell{{kind: 'i', i: int64(i)}, {kind: 'i', i: int64(i * 7 % (dimRows + dimRows/10))}, {kind: 'f', f: float64(i) / 4}})
		keep = append(keep, i%keepEvery == 0)
	}
	for i := 0; i < dimRows; i++ {
		name := cell{kind: 's', s: fmt.Sprintf("dim%04d", i)}
		if i%10 == 9 {
			name = cell{}
		}
		dim = append(dim, []cell{{kind: 'i', i: int64(i)}, name})
	}
	if keepEvery == 1 {
		keep = nil
	}
	left := newJoinSrc([]sqltypes.Kind{sqltypes.KindInt, sqltypes.KindInt, sqltypes.KindFloat}, fact, keep)
	right := newJoinSrc([]sqltypes.Kind{sqltypes.KindInt, sqltypes.KindString}, dim, nil)
	left.loop, left.generic, right.generic = loop, !typed, !typed
	return &hashJoinIter{
		ctx: &Context{}, typ: typ, left: left, right: right,
		lpos: []int{1}, rpos: []int{0}, lwidth: 3, rwidth: 2,
	}
}

// TestHashJoinStaysColumnar pins what "columnar" means without a stopwatch:
// output columns carry their sources' representation, a refilled output
// batch allocates nothing, and a selective probe side still fills batches.
func TestHashJoinStaysColumnar(t *testing.T) {
	t.Run("kinds", func(t *testing.T) {
		for _, typed := range []bool{true, false} {
			h := starJoin(algebra.LeftOuterJoin, typed, 2048, 1000, 1, false)
			b := h.ctx.newBatch()
			if err := h.Open(); err != nil {
				t.Fatal(err)
			}
			if err := h.NextBatch(b); err != nil {
				t.Fatal(err)
			}
			want := []sqltypes.Kind{sqltypes.KindInt, sqltypes.KindInt, sqltypes.KindFloat, sqltypes.KindInt, sqltypes.KindString}
			for j, k := range want {
				if !typed {
					k = sqltypes.KindNull
				}
				if got := b.Col(j).Kind(); got != k {
					t.Errorf("typed=%v: output column %d is %v, want %v", typed, j, got, k)
				}
			}
			if !typed {
				continue
			}
			// The probe side has no NULLs and says so; the NULL-extended side
			// carries them in its validity bitmaps, not as boxed values.
			if b.Col(0).HasNulls() || !b.Col(3).HasNulls() || !b.Col(4).HasNulls() {
				t.Errorf("HasNulls: probe %v, build %v %v; want false, true, true",
					b.Col(0).HasNulls(), b.Col(3).HasNulls(), b.Col(4).HasNulls())
			}
			unmatched := 0
			for i := 0; i < b.Len(); i++ {
				if !b.Col(3).Valid(i) {
					unmatched++
					if got := b.RowAt(i, nil)[1].Int(); got < 1000 {
						t.Fatalf("row %d: f_dim %d is NULL-extended but has a dimension row", i, got)
					}
				}
			}
			if unmatched == 0 {
				t.Error("no NULL-extended row in the first batch")
			}
		}
	})
	t.Run("allocs", func(t *testing.T) {
		for _, typed := range []bool{true, false} {
			h := starJoin(algebra.InnerJoin, typed, 4096, 1000, 1, true)
			b := h.ctx.newBatch()
			if err := h.Open(); err != nil {
				t.Fatal(err)
			}
			fill := func() {
				if err := h.NextBatch(b); err != nil || b.Len() != b.CapRows() {
					t.Fatalf("fill: %v, %d rows", err, b.Len())
				}
			}
			for i := 0; i < 8; i++ { // once round the probe rows sizes every buffer
				fill()
			}
			if allocs := testing.AllocsPerRun(50, fill); allocs != 0 {
				t.Errorf("typed=%v: a refilled output batch allocates %.1f times, want 0", typed, allocs)
			}
		}
	})
	t.Run("selective probe fills batches", func(t *testing.T) {
		const factRows, keepEvery = 300_000, 100
		h := starJoin(algebra.LeftOuterJoin, true, factRows, 1000, keepEvery, false)
		b := h.ctx.newBatch()
		if err := h.Open(); err != nil {
			t.Fatal(err)
		}
		rows, batches := 0, 0
		for {
			err := h.NextBatch(b)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			rows, batches = rows+b.Len(), batches+1
		}
		if rows != factRows/keepEvery {
			t.Fatalf("%d rows, want %d", rows, factRows/keepEvery)
		}
		if most := (rows+b.CapRows()-1)/b.CapRows() + 1; batches > most {
			t.Errorf("%d rows left in %d batches, want at most %d", rows, batches, most)
		}
	})
}

// BenchmarkHashJoinEmit times the probe-and-emit loop alone: 1 024-row probe
// batches against a 1 000-row build, one output batch per iteration, typed
// and generic. The build and the first fills, which size the buffers, happen
// outside the timer.
func BenchmarkHashJoinEmit(b *testing.B) {
	for _, typed := range []bool{true, false} {
		name := "generic"
		if typed {
			name = "typed"
		}
		b.Run(name, func(b *testing.B) {
			h := starJoin(algebra.InnerJoin, typed, 4096, 1000, 1, true)
			out := h.ctx.newBatch()
			if err := h.Open(); err != nil {
				b.Fatal(err)
			}
			rows := 0
			fill := func() {
				if err := h.NextBatch(out); err != nil {
					b.Fatal(err)
				}
				rows += out.Len()
			}
			for i := 0; i < 8; i++ { // once round the probe rows sizes every buffer
				fill()
			}
			rows = 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fill()
			}
			b.ReportMetric(float64(rows)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}
