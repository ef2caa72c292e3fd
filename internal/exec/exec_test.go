package exec

import (
	"fmt"
	"io"
	"slices"
	"testing"

	"dhqp/internal/algebra"
	"dhqp/internal/expr"
	"dhqp/internal/oledb"
	"dhqp/internal/providers/native"
	"dhqp/internal/rowset"
	"dhqp/internal/schema"
	"dhqp/internal/sqltypes"
	"dhqp/internal/storage"
)

// testRT serves every server name from one native provider (tests mark
// "remote" sources with server names that map back to the same engine).
type testRT struct {
	sessions map[string]oledb.Session
}

func (rt *testRT) SessionFor(server string) (oledb.Session, error) {
	s, ok := rt.sessions[server]
	if !ok {
		return nil, fmt.Errorf("no session for server %q", server)
	}
	return s, nil
}

// fixture builds a small database:
//
//	emp(id INT, dept INT, salary INT) with index ix_dept on dept — 8 rows
//	dept(id INT, name STRING) — 3 rows
type fixture struct {
	rt      *testRT
	emp     *storage.Table
	ctx     *Context
	empSrc  *algebra.Source
	deptSrc *algebra.Source
	empCols []algebra.OutCol
	dptCols []algebra.OutCol
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	eng := storage.NewEngine()
	db := eng.CreateDatabase("hr")
	empDef := &schema.Table{
		Catalog: "hr", Name: "emp",
		Columns: []schema.Column{
			{Name: "id", Kind: sqltypes.KindInt},
			{Name: "dept", Kind: sqltypes.KindInt},
			{Name: "salary", Kind: sqltypes.KindInt},
		},
		Indexes: []schema.Index{{Name: "ix_dept", Columns: []int{1}}},
	}
	emp, err := db.CreateTable(empDef)
	if err != nil {
		t.Fatal(err)
	}
	rowsIn := [][3]int64{
		{1, 10, 100}, {2, 10, 200}, {3, 20, 150},
		{4, 20, 250}, {5, 30, 300}, {6, 30, 50},
		{7, 10, 75}, {8, 20, 125},
	}
	for _, r := range rowsIn {
		emp.Insert(rowset.Row{sqltypes.NewInt(r[0]), sqltypes.NewInt(r[1]), sqltypes.NewInt(r[2])})
	}
	deptDef := &schema.Table{
		Catalog: "hr", Name: "dept",
		Columns: []schema.Column{
			{Name: "id", Kind: sqltypes.KindInt},
			{Name: "name", Kind: sqltypes.KindString},
		},
	}
	dept, err := db.CreateTable(deptDef)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"eng", "sales", "ops"} {
		dept.Insert(rowset.Row{sqltypes.NewInt(int64(10 * (i + 1))), sqltypes.NewString(name)})
	}
	p := native.New(eng, "hr")
	sess, _ := p.CreateSession()
	rt := &testRT{sessions: map[string]oledb.Session{"": sess, "remoteA": sess}}
	f := &fixture{
		rt:  rt,
		emp: emp,
		ctx: &Context{RT: rt, Env: expr.Env{Params: map[string]sqltypes.Value{}}},
		empSrc: &algebra.Source{
			Catalog: "hr", Table: "emp", Def: empDef,
		},
		deptSrc: &algebra.Source{
			Catalog: "hr", Table: "dept", Def: deptDef,
		},
	}
	f.empCols = []algebra.OutCol{
		{ID: 1, Name: "id", Kind: sqltypes.KindInt},
		{ID: 2, Name: "dept", Kind: sqltypes.KindInt},
		{ID: 3, Name: "salary", Kind: sqltypes.KindInt},
	}
	f.dptCols = []algebra.OutCol{
		{ID: 10, Name: "id", Kind: sqltypes.KindInt},
		{ID: 11, Name: "name", Kind: sqltypes.KindString},
	}
	return f
}

func (f *fixture) empScan() *algebra.Node {
	return algebra.NewNode(&algebra.TableScan{Src: f.empSrc, Cols: f.empCols})
}

func (f *fixture) deptScan() *algebra.Node {
	return algebra.NewNode(&algebra.TableScan{Src: f.deptSrc, Cols: f.dptCols})
}

// materialize drains a plan through Open and Pull into a materialized
// rowset whose columns take the kinds of the first root batch.
func materialize(n *algebra.Node, ctx *Context) (*rowset.Materialized, error) {
	r, err := Open(n, ctx)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	var cols []schema.Column
	var rows []rowset.Row
	for {
		b, err := r.Pull()
		if err == io.EOF {
			return rowset.NewMaterialized(cols, rows), nil
		}
		if err != nil {
			return nil, err
		}
		for j := len(cols); j < b.Width(); j++ {
			cols = append(cols, schema.Column{Kind: b.Col(j).Kind()})
		}
		for i := 0; i < b.Len(); i++ {
			rows = append(rows, b.RowAt(i, nil))
		}
	}
}

// rowReader reads an iterator a row at a time, out of batches of one row
// where the iterator fills the caller's batch: a test sees the row-by-row
// lifecycle of its children.
type rowReader struct {
	Iterator
	b   *rowset.Batch
	pos int // the next live row of b
}

func rowsOf(it Iterator) *rowReader { return &rowReader{Iterator: it, b: rowset.NewBatch(1)} }

// Open restarts the iterator and drops the rows of its last batch.
func (r *rowReader) Open() error {
	r.b.Reset(0)
	return r.Iterator.Open()
}

// NextRow returns the next row, io.EOF at the end.
func (r *rowReader) NextRow() (rowset.Row, error) {
	for r.pos >= r.b.Len() {
		r.pos = 0
		if err := r.NextBatch(r.b); err != nil {
			r.b.Reset(0)
			return nil, err
		}
	}
	r.pos++
	return r.b.RowAt(r.pos-1, nil), nil
}

func run(t *testing.T, f *fixture, n *algebra.Node) *rowset.Materialized {
	t.Helper()
	m, err := materialize(n, f.ctx)
	if err != nil {
		t.Fatalf("materialize: %v", err)
	}
	return m
}

func TestTableScan(t *testing.T) {
	f := newFixture(t)
	m := run(t, f, f.empScan())
	if m.Len() != 8 {
		t.Errorf("rows = %d", m.Len())
	}
}

func TestFilter(t *testing.T) {
	f := newFixture(t)
	pred := expr.NewBinary(expr.OpGt, expr.NewColRef(3, "salary"), expr.NewConst(sqltypes.NewInt(150)))
	n := algebra.NewNode(&algebra.Filter{Pred: pred}, f.empScan())
	m := run(t, f, n)
	if m.Len() != 3 {
		t.Errorf("rows = %d", m.Len())
	}
}

func TestIndexRange(t *testing.T) {
	f := newFixture(t)
	n := algebra.NewNode(&algebra.IndexRange{
		Src: f.empSrc, Index: "ix_dept",
		Lo:   algebra.RangeBound{Vals: []expr.Expr{expr.NewConst(sqltypes.NewInt(20))}, Inclusive: true},
		Hi:   algebra.RangeBound{Vals: []expr.Expr{expr.NewConst(sqltypes.NewInt(20))}, Inclusive: true},
		Cols: f.empCols,
	})
	m := run(t, f, n)
	if m.Len() != 3 {
		t.Errorf("dept=20 rows = %d", m.Len())
	}
}

func TestIndexRangeWithParam(t *testing.T) {
	f := newFixture(t)
	f.ctx.Params["d"] = sqltypes.NewInt(10)
	n := algebra.NewNode(&algebra.IndexRange{
		Src: f.empSrc, Index: "ix_dept",
		Lo:   algebra.RangeBound{Vals: []expr.Expr{expr.NewParam("d")}, Inclusive: true},
		Hi:   algebra.RangeBound{Vals: []expr.Expr{expr.NewParam("d")}, Inclusive: true},
		Cols: f.empCols,
	})
	m := run(t, f, n)
	if m.Len() != 3 {
		t.Errorf("dept=@d rows = %d", m.Len())
	}
}

func TestCompute(t *testing.T) {
	f := newFixture(t)
	double := expr.NewBinary(expr.OpMul, expr.NewColRef(3, "salary"), expr.NewConst(sqltypes.NewInt(2)))
	n := algebra.NewNode(&algebra.Compute{Exprs: []algebra.ProjExpr{
		{Out: algebra.OutCol{ID: 50, Name: "id2", Kind: sqltypes.KindInt}, E: expr.NewColRef(1, "id")},
		{Out: algebra.OutCol{ID: 51, Name: "dbl", Kind: sqltypes.KindInt}, E: double},
	}}, f.empScan())
	m := run(t, f, n)
	if m.Len() != 8 || m.Rows()[0][1].Int() != 200 {
		t.Errorf("compute = %v", m.Rows()[0])
	}
}

func joinOn() []expr.EquiPair {
	return []expr.EquiPair{{Left: 2, Right: 10}} // emp.dept = dept.id
}

func TestHashJoinInner(t *testing.T) {
	f := newFixture(t)
	n := algebra.NewNode(&algebra.HashJoin{Type: algebra.InnerJoin, Pairs: joinOn()},
		f.empScan(), f.deptScan())
	m := run(t, f, n)
	if m.Len() != 8 {
		t.Errorf("rows = %d", m.Len())
	}
	if len(m.Rows()[0]) != 5 {
		t.Errorf("row width = %d", len(m.Rows()[0]))
	}
}

func TestHashJoinSemiAntiOuter(t *testing.T) {
	f := newFixture(t)
	// Restrict dept to id=10 only.
	deptFiltered := algebra.NewNode(&algebra.Filter{
		Pred: expr.NewBinary(expr.OpEq, expr.NewColRef(10, "id"), expr.NewConst(sqltypes.NewInt(10))),
	}, f.deptScan())

	semi := algebra.NewNode(&algebra.HashJoin{Type: algebra.SemiJoin, Pairs: joinOn()},
		f.empScan(), deptFiltered)
	if got := run(t, f, semi).Len(); got != 3 {
		t.Errorf("semi rows = %d", got)
	}
	anti := algebra.NewNode(&algebra.HashJoin{Type: algebra.AntiJoin, Pairs: joinOn()},
		f.empScan(),
		algebra.NewNode(&algebra.Filter{
			Pred: expr.NewBinary(expr.OpEq, expr.NewColRef(10, "id"), expr.NewConst(sqltypes.NewInt(10))),
		}, f.deptScan()))
	if got := run(t, f, anti).Len(); got != 5 {
		t.Errorf("anti rows = %d", got)
	}
	outer := algebra.NewNode(&algebra.HashJoin{Type: algebra.LeftOuterJoin, Pairs: joinOn()},
		f.empScan(),
		algebra.NewNode(&algebra.Filter{
			Pred: expr.NewBinary(expr.OpEq, expr.NewColRef(10, "id"), expr.NewConst(sqltypes.NewInt(10))),
		}, f.deptScan()))
	m := run(t, f, outer)
	if m.Len() != 8 {
		t.Errorf("outer rows = %d", m.Len())
	}
	nulls := 0
	for _, r := range m.Rows() {
		if r[3].IsNull() {
			nulls++
		}
	}
	if nulls != 5 {
		t.Errorf("outer null-extended rows = %d", nulls)
	}
}

func TestHashJoinResidual(t *testing.T) {
	f := newFixture(t)
	res := expr.NewBinary(expr.OpGt, expr.NewColRef(3, "salary"), expr.NewConst(sqltypes.NewInt(150)))
	n := algebra.NewNode(&algebra.HashJoin{Type: algebra.InnerJoin, Pairs: joinOn(), Residual: res},
		f.empScan(), f.deptScan())
	if got := run(t, f, n).Len(); got != 3 {
		t.Errorf("residual rows = %d", got)
	}
}

func TestLoopJoinParameterized(t *testing.T) {
	f := newFixture(t)
	// Inner side: index range on emp.dept driven by @p0 bound from dept.id.
	inner := algebra.NewNode(&algebra.IndexRange{
		Src: f.empSrc, Index: "ix_dept",
		Lo:   algebra.RangeBound{Vals: []expr.Expr{expr.NewParam("p0")}, Inclusive: true},
		Hi:   algebra.RangeBound{Vals: []expr.Expr{expr.NewParam("p0")}, Inclusive: true},
		Cols: f.empCols,
	})
	n := algebra.NewNode(&algebra.LoopJoin{
		Type:     algebra.InnerJoin,
		ParamMap: map[string]expr.ColumnID{"p0": 10},
	}, f.deptScan(), inner)
	m := run(t, f, n)
	if m.Len() != 8 {
		t.Errorf("parameterized loop join rows = %d", m.Len())
	}
	// Every output row's dept.id must equal emp.dept.
	for _, r := range m.Rows() {
		if r[0].Int() != r[3].Int() {
			t.Fatalf("mismatched row: %v", r)
		}
	}
}

func TestLoopJoinOnPredicate(t *testing.T) {
	f := newFixture(t)
	on := expr.NewBinary(expr.OpEq, expr.NewColRef(2, "dept"), expr.NewColRef(10, "id"))
	n := algebra.NewNode(&algebra.LoopJoin{Type: algebra.InnerJoin, On: on},
		f.empScan(), f.deptScan())
	if got := run(t, f, n).Len(); got != 8 {
		t.Errorf("loop join rows = %d", got)
	}
}

func TestHashAgg(t *testing.T) {
	f := newFixture(t)
	n := algebra.NewNode(&algebra.HashAgg{
		GroupCols: []algebra.OutCol{f.empCols[1]},
		Aggs: []algebra.AggSpec{
			{Out: algebra.OutCol{ID: 50, Name: "cnt", Kind: sqltypes.KindInt}, Func: algebra.AggCount},
			{Out: algebra.OutCol{ID: 51, Name: "total", Kind: sqltypes.KindInt}, Func: algebra.AggSum, Arg: expr.NewColRef(3, "salary")},
			{Out: algebra.OutCol{ID: 52, Name: "avg", Kind: sqltypes.KindFloat}, Func: algebra.AggAvg, Arg: expr.NewColRef(3, "salary")},
			{Out: algebra.OutCol{ID: 53, Name: "mx", Kind: sqltypes.KindInt}, Func: algebra.AggMax, Arg: expr.NewColRef(3, "salary")},
			{Out: algebra.OutCol{ID: 54, Name: "mn", Kind: sqltypes.KindInt}, Func: algebra.AggMin, Arg: expr.NewColRef(3, "salary")},
		},
	}, f.empScan())
	m := run(t, f, n)
	if m.Len() != 3 {
		t.Fatalf("groups = %d", m.Len())
	}
	byDept := map[int64]rowset.Row{}
	for _, r := range m.Rows() {
		byDept[r[0].Int()] = r
	}
	d10 := byDept[10]
	if d10[1].Int() != 3 || d10[2].Int() != 375 || d10[4].Int() != 200 || d10[5].Int() != 75 {
		t.Errorf("dept 10 = %v", d10)
	}
	if d10[3].Float() != 125.0 {
		t.Errorf("avg = %v", d10[3])
	}
}

func TestStreamAggMatchesHashAgg(t *testing.T) {
	f := newFixture(t)
	sorted := algebra.NewNode(&algebra.Sort{Order: algebra.Ordering{{Col: 2}}}, f.empScan())
	n := algebra.NewNode(&algebra.StreamAgg{
		GroupCols: []algebra.OutCol{f.empCols[1]},
		Aggs: []algebra.AggSpec{
			{Out: algebra.OutCol{ID: 50, Name: "cnt", Kind: sqltypes.KindInt}, Func: algebra.AggCount},
		},
	}, sorted)
	m := run(t, f, n)
	if m.Len() != 3 {
		t.Fatalf("groups = %d", m.Len())
	}
	total := int64(0)
	for _, r := range m.Rows() {
		total += r[1].Int()
	}
	if total != 8 {
		t.Errorf("count sum = %d", total)
	}

	// Over keys with NULLs and an INT and a FLOAT that compare equal, the
	// stream aggregate's runs are the hash aggregate's groups: all NULLs
	// one group, 1 and 1.0 another.
	var rows [][]expr.Expr
	for i, k := range []sqltypes.Value{sqltypes.Null, sqltypes.NewInt(1), sqltypes.Null, sqltypes.NewInt(2),
		sqltypes.NewFloat(1), sqltypes.Null, sqltypes.NewInt(1)} {
		rows = append(rows, []expr.Expr{expr.NewConst(k), expr.NewConst(sqltypes.NewInt(int64(i)))})
	}
	keys := func() *algebra.Node {
		return algebra.NewNode(&algebra.ConstScan{Cols: []algebra.OutCol{
			{ID: 70, Name: "k", Kind: sqltypes.KindInt}, {ID: 71, Name: "v", Kind: sqltypes.KindInt},
		}, Rows: rows})
	}
	group := []algebra.OutCol{{ID: 70, Name: "k", Kind: sqltypes.KindInt}}
	aggs := []algebra.AggSpec{
		{Out: algebra.OutCol{ID: 72, Name: "cnt", Kind: sqltypes.KindInt}, Func: algebra.AggCount},
		{Out: algebra.OutCol{ID: 73, Name: "sum", Kind: sqltypes.KindInt}, Func: algebra.AggSum, Arg: expr.NewColRef(71, "v")},
	}
	groups := func(n *algebra.Node) []string {
		var out []string
		for _, r := range run(t, f, n).Rows() {
			out = append(out, fmt.Sprintf("%v %v %v", r[0].Display(), r[1], r[2]))
		}
		slices.Sort(out)
		return out
	}
	stream := groups(algebra.NewNode(&algebra.StreamAgg{GroupCols: group, Aggs: aggs},
		algebra.NewNode(&algebra.Sort{Order: algebra.Ordering{{Col: 70}}}, keys())))
	hash := groups(algebra.NewNode(&algebra.HashAgg{GroupCols: group, Aggs: aggs}, keys()))
	if len(stream) != 3 || !slices.Equal(stream, hash) {
		t.Errorf("stream aggregate groups %v, hash aggregate %v; want the same 3", stream, hash)
	}
}

func TestScalarAggOverEmptyInput(t *testing.T) {
	f := newFixture(t)
	empty := algebra.NewNode(&algebra.Filter{
		Pred: expr.NewBinary(expr.OpLt, expr.NewColRef(1, "id"), expr.NewConst(sqltypes.NewInt(0))),
	}, f.empScan())
	for _, stream := range []bool{false, true} {
		var op algebra.Operator
		aggs := []algebra.AggSpec{
			{Out: algebra.OutCol{ID: 50, Name: "cnt", Kind: sqltypes.KindInt}, Func: algebra.AggCount},
			{Out: algebra.OutCol{ID: 51, Name: "mx", Kind: sqltypes.KindInt}, Func: algebra.AggMax, Arg: expr.NewColRef(3, "salary")},
		}
		if stream {
			op = &algebra.StreamAgg{Aggs: aggs}
		} else {
			op = &algebra.HashAgg{Aggs: aggs}
		}
		var kid *algebra.Node = empty
		m := run(t, f, algebra.NewNode(op, kid))
		if m.Len() != 1 {
			t.Fatalf("stream=%v rows = %d", stream, m.Len())
		}
		if m.Rows()[0][0].Int() != 0 || !m.Rows()[0][1].IsNull() {
			t.Errorf("stream=%v scalar agg = %v", stream, m.Rows()[0])
		}
	}
}

func TestDistinctAgg(t *testing.T) {
	f := newFixture(t)
	n := algebra.NewNode(&algebra.HashAgg{
		Aggs: []algebra.AggSpec{
			{Out: algebra.OutCol{ID: 50, Name: "d", Kind: sqltypes.KindInt}, Func: algebra.AggCount, Arg: expr.NewColRef(2, "dept"), Distinct: true},
		},
	}, f.empScan())
	m := run(t, f, n)
	if m.Rows()[0][0].Int() != 3 {
		t.Errorf("count distinct dept = %v", m.Rows()[0][0])
	}
}

func TestSortAndTop(t *testing.T) {
	f := newFixture(t)
	sorted := algebra.NewNode(&algebra.Sort{Order: algebra.Ordering{{Col: 3, Desc: true}}}, f.empScan())
	m := run(t, f, sorted)
	if m.Rows()[0][2].Int() != 300 || m.Rows()[7][2].Int() != 50 {
		t.Errorf("sort order wrong: %v ... %v", m.Rows()[0], m.Rows()[7])
	}
	top := algebra.NewNode(&algebra.TopN{N: 2, Order: algebra.Ordering{{Col: 3, Desc: true}}}, f.empScan())
	m2 := run(t, f, top)
	if m2.Len() != 2 || m2.Rows()[0][2].Int() != 300 || m2.Rows()[1][2].Int() != 250 {
		t.Errorf("top = %v", m2.Rows())
	}
}

func TestStartupFilter(t *testing.T) {
	f := newFixture(t)
	f.ctx.Params["cid"] = sqltypes.NewInt(5)
	// STARTUP(@cid > 50) blocks the scan entirely.
	blocked := algebra.NewNode(&algebra.StartupFilter{
		Pred: expr.NewBinary(expr.OpGt, expr.NewParam("cid"), expr.NewConst(sqltypes.NewInt(50))),
	}, f.empScan())
	if got := run(t, f, blocked).Len(); got != 0 {
		t.Errorf("blocked startup returned %d rows", got)
	}
	f.ctx.Params["cid"] = sqltypes.NewInt(100)
	if got := run(t, f, blocked).Len(); got != 8 {
		t.Errorf("enabled startup returned %d rows", got)
	}
}

func TestConcat(t *testing.T) {
	f := newFixture(t)
	out := []algebra.OutCol{{ID: 90, Name: "k", Kind: sqltypes.KindInt}}
	n := algebra.NewNode(&algebra.Concat{
		OutColsList: out,
		InMaps:      [][]expr.ColumnID{{1}, {10}},
	}, f.empScan(), f.deptScan())
	m := run(t, f, n)
	if m.Len() != 11 {
		t.Errorf("concat rows = %d", m.Len())
	}
}

func TestConstAndEmptyScan(t *testing.T) {
	f := newFixture(t)
	cs := algebra.NewNode(&algebra.ConstScan{
		Cols: []algebra.OutCol{{ID: 70, Name: "x", Kind: sqltypes.KindInt}},
		Rows: [][]expr.Expr{{expr.NewConst(sqltypes.NewInt(1))}, {expr.NewConst(sqltypes.NewInt(2))}},
	})
	if got := run(t, f, cs).Len(); got != 2 {
		t.Errorf("const rows = %d", got)
	}
	es := algebra.NewNode(&algebra.EmptyScan{Cols: []algebra.OutCol{{ID: 71, Name: "x"}}})
	if got := run(t, f, es).Len(); got != 0 {
		t.Errorf("empty rows = %d", got)
	}
}

func TestSpoolReplays(t *testing.T) {
	f := newFixture(t)
	sp := algebra.NewNode(&algebra.Spool{}, f.empScan())
	built, err := Build(sp, f.ctx)
	if err != nil {
		t.Fatal(err)
	}
	it := rowsOf(built)
	count := func() int {
		n := 0
		for {
			_, err := it.NextRow()
			if err != nil {
				break
			}
			n++
		}
		return n
	}
	if err := it.Open(); err != nil {
		t.Fatal(err)
	}
	if got := count(); got != 8 {
		t.Fatalf("first pass = %d", got)
	}
	// Re-open replays without touching the child.
	if err := it.Open(); err != nil {
		t.Fatal(err)
	}
	if got := count(); got != 8 {
		t.Fatalf("second pass = %d", got)
	}
}

// TestKeptSpoolSeesCommits: a spool filled in one execution of a kept tree
// is not replayed by the next, even under the same parameter values — that
// execution reads another snapshot — while within one execution a re-Open
// still replays.
func TestKeptSpoolSeesCommits(t *testing.T) {
	f := newFixture(t)
	minSalary := expr.NewBinary(expr.OpGe, expr.NewColRef(3, "salary"), expr.NewParam("min"))
	plan := algebra.NewNode(&algebra.Spool{}, algebra.NewNode(&algebra.Filter{Pred: minSalary}, f.empScan()))
	params := map[string]sqltypes.Value{"min": sqltypes.NewInt(100)}
	execCtx := func() *Context { return &Context{RT: f.rt, Env: expr.Env{Params: params}} }
	count := func(r *Run) int {
		n := 0
		for b, err := r.Pull(); err != io.EOF; b, err = r.Pull() {
			if err != nil {
				t.Fatal(err)
			}
			n += b.Len()
		}
		return n
	}
	r, err := Open(plan, execCtx())
	if err != nil {
		t.Fatal(err)
	}
	if got := count(r); got != 6 {
		t.Fatalf("first execution: %d rows, want 6", got)
	}
	// Within the execution a re-Open replays what the spool holds.
	f.emp.Insert(rowset.Row{sqltypes.NewInt(9), sqltypes.NewInt(10), sqltypes.NewInt(500)})
	if err := r.it.Open(); err != nil {
		t.Fatal(err)
	}
	if got := count(r); got != 6 {
		t.Errorf("re-Open within the execution: %d rows, want the 6 it spooled", got)
	}
	r.Close()
	r.Release()
	for exec, want := range []int{7, 8} {
		ctx := execCtx()
		if !r.Fits(ctx) {
			t.Fatal("a released tree does not fit the context it was built for")
		}
		if err := r.Reopen(ctx); err != nil {
			t.Fatal(err)
		}
		if got := count(r); got != want {
			t.Errorf("kept tree, execution %d, same parameters: %d rows, want %d", exec+2, got, want)
		}
		r.Close()
		r.Release()
		f.emp.Insert(rowset.Row{sqltypes.NewInt(int64(10 + exec)), sqltypes.NewInt(10), sqltypes.NewInt(600)})
	}
}

func TestLogicalOperatorRejected(t *testing.T) {
	f := newFixture(t)
	n := algebra.NewNode(&algebra.Get{Src: f.empSrc, Cols: f.empCols})
	if _, err := Build(n, f.ctx); err == nil {
		t.Error("logical Get executed")
	}
}

func TestRemoteScanSameCodePath(t *testing.T) {
	f := newFixture(t)
	remoteSrc := &algebra.Source{Server: "remoteA", Catalog: "hr", Table: "emp", Def: f.empSrc.Def}
	n := algebra.NewNode(&algebra.RemoteScan{Src: remoteSrc, Cols: f.empCols})
	if got := run(t, f, n).Len(); got != 8 {
		t.Errorf("remote scan rows = %d", got)
	}
	// Unknown server errors cleanly at Open.
	bad := &algebra.Source{Server: "nowhere", Table: "emp", Def: f.empSrc.Def}
	it, err := Build(algebra.NewNode(&algebra.RemoteScan{Src: bad, Cols: f.empCols}), f.ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := it.Open(); err == nil {
		t.Error("unknown server opened")
	}
}
