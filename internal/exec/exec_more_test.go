package exec

import (
	"io"
	"testing"

	"dhqp/internal/algebra"
	"dhqp/internal/expr"
	"dhqp/internal/sqltypes"
)

func TestLoopJoinSemiAndAnti(t *testing.T) {
	f := newFixture(t)
	on := expr.NewBinary(expr.OpEq, expr.NewColRef(2, "dept"), expr.NewColRef(10, "id"))
	deptFiltered := algebra.NewNode(&algebra.Filter{
		Pred: expr.NewBinary(expr.OpEq, expr.NewColRef(10, "id"), expr.NewConst(sqltypes.NewInt(10))),
	}, f.deptScan())
	semi := algebra.NewNode(&algebra.LoopJoin{Type: algebra.SemiJoin, On: on},
		f.empScan(), deptFiltered)
	if got := run(t, f, semi).Len(); got != 3 {
		t.Errorf("semi rows = %d", got)
	}
	anti := algebra.NewNode(&algebra.LoopJoin{Type: algebra.AntiJoin, On: on},
		f.empScan(),
		algebra.NewNode(&algebra.Filter{
			Pred: expr.NewBinary(expr.OpEq, expr.NewColRef(10, "id"), expr.NewConst(sqltypes.NewInt(10))),
		}, f.deptScan()))
	if got := run(t, f, anti).Len(); got != 5 {
		t.Errorf("anti rows = %d", got)
	}
	outer := algebra.NewNode(&algebra.LoopJoin{Type: algebra.LeftOuterJoin, On: on},
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
		t.Errorf("null-extended = %d", nulls)
	}
}

func TestHashJoinNullKeysNeverMatch(t *testing.T) {
	f := newFixture(t)
	// Left: const scan with one NULL key and one matching key.
	left := algebra.NewNode(&algebra.ConstScan{
		Cols: []algebra.OutCol{{ID: 90, Name: "k", Kind: sqltypes.KindInt}},
		Rows: [][]expr.Expr{
			{expr.NewConst(sqltypes.Null)},
			{expr.NewConst(sqltypes.NewInt(10))},
		},
	})
	join := algebra.NewNode(&algebra.HashJoin{
		Type:  algebra.InnerJoin,
		Pairs: []expr.EquiPair{{Left: 90, Right: 10}},
	}, left, f.deptScan())
	if got := run(t, f, join).Len(); got != 1 {
		t.Errorf("rows = %d (NULL must not join)", got)
	}
}

func TestTopWithoutOrderIsStreamingLimit(t *testing.T) {
	f := newFixture(t)
	top := algebra.NewNode(&algebra.TopN{N: 3}, f.empScan())
	if got := run(t, f, top).Len(); got != 3 {
		t.Errorf("rows = %d", got)
	}
}

func TestProviderCommandAgainstFakeSession(t *testing.T) {
	f := newFixture(t)
	// The native session rejects commands; ProviderCommand surfaces it.
	pc := algebra.NewNode(&algebra.ProviderCommand{
		Src:  &algebra.Source{Kind: algebra.SourceFullText, Server: "", Table: "cat", Query: "x"},
		Cols: []algebra.OutCol{{ID: 99, Name: "KEY", Kind: sqltypes.KindInt}},
	})
	it, err := Build(pc, f.ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := it.Open(); err == nil {
		t.Error("command against command-less provider should fail at Open")
	}
}

func TestConcatEmptyChildren(t *testing.T) {
	f := newFixture(t)
	out := []algebra.OutCol{{ID: 95, Name: "x", Kind: sqltypes.KindInt}}
	n := algebra.NewNode(&algebra.Concat{
		OutColsList: out,
		InMaps:      [][]expr.ColumnID{{96}, {1}},
	},
		algebra.NewNode(&algebra.EmptyScan{Cols: []algebra.OutCol{{ID: 96, Name: "x", Kind: sqltypes.KindInt}}}),
		f.empScan(),
	)
	if got := run(t, f, n).Len(); got != 8 {
		t.Errorf("rows = %d", got)
	}
}

func TestRemoteFetchBadBookmark(t *testing.T) {
	f := newFixture(t)
	keys := algebra.NewNode(&algebra.ConstScan{
		Cols: []algebra.OutCol{{ID: 97, Name: "KEY", Kind: sqltypes.KindInt}},
		Rows: [][]expr.Expr{{expr.NewConst(sqltypes.NewInt(9999))}},
	})
	fetch := algebra.NewNode(&algebra.RemoteFetch{
		Src: f.empSrc, KeyCol: 97, Cols: f.empCols,
	}, keys)
	it, err := Build(fetch, f.ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := it.Open(); err != nil {
		t.Fatal(err)
	}
	if _, err := rowsOf(it).NextRow(); err == nil || err == io.EOF {
		t.Errorf("bad bookmark: err = %v", err)
	}
	it.Close()
}

func TestRemoteFetchCombinesRows(t *testing.T) {
	f := newFixture(t)
	keys := algebra.NewNode(&algebra.ConstScan{
		Cols: []algebra.OutCol{{ID: 97, Name: "KEY", Kind: sqltypes.KindInt}},
		Rows: [][]expr.Expr{
			{expr.NewConst(sqltypes.NewInt(0))},
			{expr.NewConst(sqltypes.NewInt(2))},
		},
	})
	fetch := algebra.NewNode(&algebra.RemoteFetch{
		Src: f.empSrc, KeyCol: 97, Cols: f.empCols,
	}, keys)
	m := run(t, f, fetch)
	if m.Len() != 2 {
		t.Fatalf("rows = %d", m.Len())
	}
	// Output = key col + fetched emp columns.
	if len(m.Rows()[0]) != 4 {
		t.Errorf("row width = %d", len(m.Rows()[0]))
	}
	if m.Rows()[1][1].Int() != 3 {
		t.Errorf("fetched id = %v", m.Rows()[1][1])
	}
}

func TestRunPropagatesChildErrors(t *testing.T) {
	f := newFixture(t)
	// Division by zero inside a filter predicate surfaces as an error.
	bad := algebra.NewNode(&algebra.Filter{
		Pred: expr.NewBinary(expr.OpEq,
			expr.NewBinary(expr.OpDiv, expr.NewColRef(1, "id"), expr.NewConst(sqltypes.NewInt(0))),
			expr.NewConst(sqltypes.NewInt(1))),
	}, f.empScan())
	if _, err := materialize(bad, f.ctx); err == nil {
		t.Error("runtime error swallowed")
	}
}
