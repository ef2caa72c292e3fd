package algebra

import (
	"testing"

	"dhqp/internal/expr"
	"dhqp/internal/sqltypes"
)

// TestAllOperatorsDigestAndName touches every operator's OpName/Digest/
// Logical/OutCols surface; digests must be non-panicking and unique across
// distinct payloads of the same operator.
func TestAllOperatorsDigestAndName(t *testing.T) {
	src := &Source{Catalog: "db", Table: "t"}
	rsrc := &Source{Server: "srv", Catalog: "db", Table: "t"}
	colsA := cols(1, 2)
	on := expr.NewBinary(expr.OpEq, expr.NewColRef(1, "a"), expr.NewColRef(10, "b"))
	pred := expr.NewBinary(expr.OpGt, expr.NewColRef(1, "a"), expr.NewConst(sqltypes.NewInt(5)))
	aggs := []AggSpec{{Out: OutCol{ID: 9, Name: "n", Kind: sqltypes.KindInt}, Func: AggCount}}
	proj := []ProjExpr{{Out: OutCol{ID: 5, Name: "x", Kind: sqltypes.KindInt}, E: pred}}
	bound := RangeBound{Vals: []expr.Expr{expr.NewConst(sqltypes.NewInt(1))}, Inclusive: true}

	ops := []Operator{
		&Get{Src: src, Cols: colsA},
		&Select{Filter: pred},
		&Project{Exprs: proj},
		&Join{Type: InnerJoin, On: on},
		&Apply{Type: SemiJoin, ParamMap: map[string]expr.ColumnID{"p0": 1}, Residual: pred},
		&GroupBy{GroupCols: colsA, Aggs: aggs},
		&UnionAll{OutColsList: colsA, InMaps: [][]expr.ColumnID{{1, 2}}},
		&Top{N: 3, Ordering: Ordering{{Col: 1}}},
		&Values{Cols: colsA, Rows: [][]expr.Expr{{expr.NewConst(sqltypes.NewInt(1)), expr.NewConst(sqltypes.NewInt(2))}}},
		&TableScan{Src: src, Cols: colsA},
		&IndexRange{Src: src, Index: "ix", Lo: bound, Hi: bound, Cols: colsA},
		&RemoteScan{Src: rsrc, Cols: colsA},
		&RemoteRange{Src: rsrc, Index: "ix", Lo: bound, Hi: bound, Cols: colsA},
		&RemoteFetch{Src: rsrc, KeyCol: 1, Cols: colsA},
		&RemoteQuery{Server: "srv", SQL: "SELECT 1", Cols: colsA},
		&ProviderCommand{Src: rsrc, Cols: colsA},
		&Filter{Pred: pred},
		&StartupFilter{Pred: pred},
		&Compute{Exprs: proj},
		&HashJoin{Type: InnerJoin, Pairs: []expr.EquiPair{{Left: 1, Right: 10}}},
		&LoopJoin{Type: LeftOuterJoin, On: on, ParamMap: map[string]expr.ColumnID{"p0": 1}},
		&StreamAgg{GroupCols: colsA, Aggs: aggs},
		&HashAgg{GroupCols: colsA, Aggs: aggs},
		&Sort{Order: Ordering{{Col: 1, Desc: true}}},
		&TopN{N: 3, Order: Ordering{{Col: 1}}},
		&Concat{OutColsList: colsA, InMaps: [][]expr.ColumnID{{1, 2}}},
		&Spool{},
		&ConstScan{Cols: colsA},
		&EmptyScan{Cols: colsA},
	}
	names := map[string]bool{}
	for _, op := range ops {
		if op.OpName() == "" {
			t.Errorf("%T has empty OpName", op)
		}
		if names[op.OpName()] {
			t.Errorf("duplicate OpName %q", op.OpName())
		}
		names[op.OpName()] = true
		_ = op.Digest() // must not panic
	}
	// Digest distinguishes payloads.
	a := (&Select{Filter: pred}).Digest()
	b := (&Select{Filter: on}).Digest()
	if a == b {
		t.Error("select digests collide across predicates")
	}
	if (&Sort{Order: Ordering{{Col: 1}}}).Digest() == (&Sort{Order: Ordering{{Col: 2}}}).Digest() {
		t.Error("sort digests collide")
	}
	if (&Apply{Type: SemiJoin}).Digest() == (&Apply{Type: InnerJoin}).Digest() {
		t.Error("apply digests collide across types")
	}
}

// TestOutColsPassThroughOps checks kid-column propagation for the unary and
// binary pass-through operators.
func TestOutColsPassThroughOps(t *testing.T) {
	kid := [][]OutCol{cols(1, 2), cols(10)}
	passKid0 := []Operator{
		&Select{}, &Top{}, &Filter{}, &StartupFilter{}, &Sort{}, &TopN{}, &Spool{},
	}
	for _, op := range passKid0 {
		got := op.OutCols(kid)
		if len(got) != 2 || got[0].ID != 1 {
			t.Errorf("%s OutCols = %v", op.OpName(), got)
		}
	}
	for _, op := range []Operator{
		&Join{Type: InnerJoin}, &HashJoin{Type: InnerJoin}, &LoopJoin{Type: InnerJoin},
	} {
		if got := op.OutCols(kid); len(got) != 3 {
			t.Errorf("%s OutCols = %v", op.OpName(), got)
		}
	}
	for _, op := range []Operator{
		&Join{Type: SemiJoin}, &Apply{Type: AntiJoin}, &LoopJoin{Type: SemiJoin},
	} {
		if got := op.OutCols(kid); len(got) != 2 {
			t.Errorf("%s OutCols = %v", op.OpName(), got)
		}
	}
}

func TestSourceKindsDigest(t *testing.T) {
	kinds := []*Source{
		{Kind: SourceBaseTable, Catalog: "c", Table: "t"},
		{Kind: SourceFullText, Server: "#ft", Table: "cat", Query: "q"},
		{Kind: SourcePassThrough, Server: "s", Query: "cmd"},
		{Kind: SourceMailTVF, Server: "#mail", Path: "p.mmf"},
	}
	seen := map[string]bool{}
	for _, s := range kinds {
		str := s.String()
		if str == "" || seen[str] {
			t.Errorf("source string %q empty or duplicated", str)
		}
		seen[str] = true
	}
}
