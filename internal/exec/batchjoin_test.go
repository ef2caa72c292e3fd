package exec

import (
	"errors"
	"io"
	"sort"
	"strings"
	"testing"

	"dhqp/internal/algebra"
	"dhqp/internal/expr"
	"dhqp/internal/rowset"
	"dhqp/internal/sqltypes"
)

// countingIter serves fixed rows a batch at a time and tracks its
// Open/Close lifecycle; with fail set, the fetch that reaches row failAt
// returns fail instead.
type countingIter struct {
	rows   []rowset.Row
	pos    int
	fail   error
	failAt int
	opens  int
	closes int
	isOpen bool
}

func (c *countingIter) Open() error {
	c.opens++
	c.isOpen = true
	c.pos = 0
	return nil
}

func (c *countingIter) NextBatch(b *rowset.Batch) error {
	b.Reset(0)
	for ; c.pos < len(c.rows) && !b.Full(); c.pos++ {
		if c.fail != nil && c.pos == c.failAt {
			return c.fail
		}
		b.AppendRow(c.rows[c.pos])
	}
	if b.NumRows() == 0 {
		return io.EOF
	}
	return nil
}

func (c *countingIter) Close() error {
	c.closes++
	c.isOpen = false
	return nil
}

func intRow(vals ...int64) rowset.Row {
	r := make(rowset.Row, len(vals))
	for i, v := range vals {
		r[i] = sqltypes.NewInt(v)
	}
	return r
}

// Re-Open after an inner execution failed mid-drain must tear down the
// in-flight inner side rather than leave it open until the next outer row
// re-opens it, and the restarted join returns its whole result.
func TestLoopJoinReOpenClosesInFlightInner(t *testing.T) {
	boom := errors.New("inner failed")
	left := &countingIter{rows: []rowset.Row{intRow(1), intRow(2)}}
	right := &countingIter{rows: []rowset.Row{intRow(10), intRow(11)}, fail: boom, failAt: 1}
	ctx := &Context{Env: expr.Env{Params: map[string]sqltypes.Value{}}, BatchSize: 1}
	j := &batchLoopJoinIter{ctx: ctx, typ: algebra.InnerJoin, left: rowFeed{child: left}, right: right, batch: 1, lwidth: 1, rwidth: 1}
	rows := rowsOf(j)
	if err := j.Open(); err != nil {
		t.Fatal(err)
	}
	if _, err := rows.NextRow(); !errors.Is(err, boom) {
		t.Fatalf("first row: %v, want the inner's failure", err)
	}
	if !right.isOpen {
		t.Fatal("test setup: the failed execution should leave the inner open")
	}
	right.fail = nil
	if err := j.Open(); err != nil {
		t.Fatal(err)
	}
	if right.isOpen {
		t.Error("re-Open left the in-flight inner side open")
	}
	n := 0
	for {
		if _, err := rows.NextRow(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != 4 || right.opens != 3 || right.isOpen {
		t.Errorf("after re-Open: %d rows, %d inner opens, inner open %v; want 4 (2x2 cross), 3, false", n, right.opens, right.isOpen)
	}
}

// Same lifecycle contract for the batched iterator.
func TestBatchLoopJoinReOpenClosesInFlightInner(t *testing.T) {
	outer, inner := batchTestScans()
	n := algebra.NewNode(&algebra.BatchLoopJoin{
		Type:      algebra.InnerJoin,
		Pairs:     []expr.EquiPair{{Left: 80, Right: 90}},
		ParamBase: "tb",
		BatchSize: 2,
	}, outer, inner)
	ctx := &Context{Env: expr.Env{Params: map[string]sqltypes.Value{}}}
	built, err := Build(n, ctx)
	if err != nil {
		t.Fatal(err)
	}
	it := rowsOf(built)
	if err := it.Open(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := it.NextRow(); err != nil {
			t.Fatal(err)
		}
	}
	// Restart mid-batch and drain: the full result must come back.
	if err := it.Open(); err != nil {
		t.Fatal(err)
	}
	count := 0
	for {
		if _, err := it.NextRow(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		count++
	}
	if count != 4 {
		t.Errorf("rows after mid-batch re-Open = %d, want 4", count)
	}
}

// batchTestScans builds const scans with duplicate keys, NULL keys and
// unmatched keys on both sides:
//
//	outer k:  1, 1, 2, NULL, 5   (tags a..e)
//	inner ik: 1, 1, 3, NULL      (payloads w..z)
func batchTestScans() (*algebra.Node, *algebra.Node) {
	c := func(v sqltypes.Value) expr.Expr { return expr.NewConst(v) }
	i := func(v int64) expr.Expr { return c(sqltypes.NewInt(v)) }
	s := func(v string) expr.Expr { return c(sqltypes.NewString(v)) }
	outer := algebra.NewNode(&algebra.ConstScan{
		Cols: []algebra.OutCol{
			{ID: 80, Name: "k", Kind: sqltypes.KindInt},
			{ID: 81, Name: "tag", Kind: sqltypes.KindString},
		},
		Rows: [][]expr.Expr{
			{i(1), s("a")}, {i(1), s("b")}, {i(2), s("c")},
			{c(sqltypes.Null), s("d")}, {i(5), s("e")},
		},
	})
	inner := algebra.NewNode(&algebra.ConstScan{
		Cols: []algebra.OutCol{
			{ID: 90, Name: "ik", Kind: sqltypes.KindInt},
			{ID: 91, Name: "p", Kind: sqltypes.KindString},
		},
		Rows: [][]expr.Expr{
			{i(1), s("w")}, {i(1), s("x")}, {i(3), s("y")},
			{c(sqltypes.Null), s("z")},
		},
	})
	return outer, inner
}

func drainSorted(t *testing.T, it Iterator) []string {
	t.Helper()
	var out []string
	rows := rowsOf(it)
	for {
		r, err := rows.NextRow()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		parts := make([]string, len(r))
		for i, v := range r {
			parts[i] = v.Display()
		}
		out = append(out, strings.Join(parts, "|"))
	}
	sort.Strings(out)
	return out
}

// The batched join must produce row-for-row what the serial parameterized
// join produces — duplicate keys multiply, NULL keys never match but still
// null-extend (left outer) or survive (anti). The batch size of 2 forces
// three inner executions over the five outer rows, including one batch
// whose second slot is a NULL key (padded with an already-shipped key).
func TestBatchLoopJoinMatchesSerialAllJoinTypes(t *testing.T) {
	wantRows := map[algebra.JoinType]int{
		algebra.InnerJoin:     4,
		algebra.LeftOuterJoin: 7,
		algebra.SemiJoin:      2,
		algebra.AntiJoin:      3,
	}
	for typ, want := range wantRows {
		outer, inner := batchTestScans()
		batched := algebra.NewNode(&algebra.BatchLoopJoin{
			Type:      typ,
			Pairs:     []expr.EquiPair{{Left: 80, Right: 90}},
			ParamBase: "tb",
			BatchSize: 2,
		}, outer, inner)
		serial := algebra.NewNode(&algebra.LoopJoin{
			Type: typ,
			On:   expr.NewBinary(expr.OpEq, expr.NewColRef(80, "k"), expr.NewColRef(90, "ik")),
		}, outer, inner)

		bit, err := Build(batched, &Context{Env: expr.Env{Params: map[string]sqltypes.Value{}}})
		if err != nil {
			t.Fatalf("%v: %v", typ, err)
		}
		sit, err := Build(serial, &Context{Env: expr.Env{Params: map[string]sqltypes.Value{}}})
		if err != nil {
			t.Fatalf("%v: %v", typ, err)
		}
		if err := bit.Open(); err != nil {
			t.Fatal(err)
		}
		if err := sit.Open(); err != nil {
			t.Fatal(err)
		}
		got, ref := drainSorted(t, bit), drainSorted(t, sit)
		if len(got) != want {
			t.Errorf("%v: batched rows = %d, want %d", typ, len(got), want)
		}
		if strings.Join(got, "\n") != strings.Join(ref, "\n") {
			t.Errorf("%v: batched/serial multisets differ:\nbatched: %v\nserial:  %v", typ, got, ref)
		}
	}
}

// The spool replays only within one parameter binding: a changed binding
// (the spool sits inside a parameterized apply) must refill from the child.
func TestSpoolRefillsOnParamChange(t *testing.T) {
	child := &countingIter{rows: []rowset.Row{intRow(1), intRow(2), intRow(3)}}
	ctx := &Context{Env: expr.Env{Params: map[string]sqltypes.Value{"k": sqltypes.NewInt(1)}}}
	sp := rowsOf(&spoolIter{ctx: ctx, child: child, width: 1})
	drain := func() int {
		n := 0
		for {
			if _, err := sp.NextRow(); err != nil {
				return n
			}
			n++
		}
	}
	if err := sp.Open(); err != nil {
		t.Fatal(err)
	}
	if got := drain(); got != 3 {
		t.Fatalf("first fill = %d rows", got)
	}
	// Same binding: replay without touching the child.
	if err := sp.Open(); err != nil {
		t.Fatal(err)
	}
	if got := drain(); got != 3 || child.opens != 1 {
		t.Errorf("replay under unchanged binding: %d rows, %d child opens; want 3, 1", got, child.opens)
	}
	// Changed binding: the buffer is stale; refill.
	ctx.Params["k"] = sqltypes.NewInt(2)
	if err := sp.Open(); err != nil {
		t.Fatal(err)
	}
	if got := drain(); got != 3 {
		t.Fatalf("refill = %d rows", got)
	}
	if child.opens != 2 {
		t.Errorf("stale binding did not refill the spool (%d opens)", child.opens)
	}
}
