package algebra

import (
	"strings"
	"testing"

	"dhqp/internal/expr"
	"dhqp/internal/sqltypes"
)

func cols(ids ...expr.ColumnID) []OutCol {
	out := make([]OutCol, len(ids))
	for i, id := range ids {
		out[i] = OutCol{ID: id, Name: "c", Kind: sqltypes.KindInt}
	}
	return out
}

func TestIDsAndColSetOf(t *testing.T) {
	cs := cols(3, 1, 2)
	ids := IDs(cs)
	if len(ids) != 3 || ids[0] != 3 {
		t.Errorf("IDs = %v", ids)
	}
	set := ColSetOf(cs)
	if !set.Has(1) || !set.Has(3) || set.Has(9) {
		t.Errorf("ColSetOf = %v", set)
	}
}

func TestNodeOutColsThroughTree(t *testing.T) {
	left := NewNode(&Get{Src: &Source{Table: "a"}, Cols: cols(1, 2)})
	right := NewNode(&Get{Src: &Source{Server: "r0", Table: "b"}, Cols: cols(10)})
	join := NewNode(&Join{Type: InnerJoin}, left, right)
	out := join.OutCols()
	if len(out) != 3 || out[2].ID != 10 {
		t.Errorf("join OutCols = %v", out)
	}
	semi := NewNode(&Join{Type: SemiJoin}, left, right)
	if got := semi.OutCols(); len(got) != 2 {
		t.Errorf("semi OutCols = %v", got)
	}
	sel := NewNode(&Select{Filter: expr.NewConst(sqltypes.NewBool(true))}, join)
	if got := sel.OutCols(); len(got) != 3 {
		t.Errorf("select OutCols = %v", got)
	}
	gb := NewNode(&GroupBy{
		GroupCols: cols(1),
		Aggs:      []AggSpec{{Out: OutCol{ID: 50, Name: "cnt"}, Func: AggCount}},
	}, sel)
	if got := gb.OutCols(); len(got) != 2 || got[1].ID != 50 {
		t.Errorf("groupby OutCols = %v", got)
	}
}

func TestNodeString(t *testing.T) {
	n := NewNode(&Select{Filter: expr.NewConst(sqltypes.NewBool(true))},
		NewNode(&Get{Src: &Source{Table: "t"}, Cols: cols(1)}))
	s := n.String()
	if !strings.Contains(s, "Select") || !strings.Contains(s, "Get") {
		t.Errorf("String = %q", s)
	}
	if !strings.Contains(s, "  Get") {
		t.Error("child not indented")
	}
}

func TestSourceString(t *testing.T) {
	base := &Source{Server: "remote0", Catalog: "tpch", Schema: "dbo", Table: "customer"}
	if got := base.String(); got != "remote0.tpch.dbo.customer" {
		t.Errorf("base = %q", got)
	}
	if !base.IsRemote() {
		t.Error("remote flag")
	}
	local := &Source{Table: "nation"}
	if local.IsRemote() {
		t.Error("local flagged remote")
	}
	ft := &Source{Kind: SourceFullText, Table: "docs", Query: "db"}
	if !strings.HasPrefix(ft.String(), "fulltext:") {
		t.Errorf("ft = %q", ft.String())
	}
	pt := &Source{Kind: SourcePassThrough, Server: "idx", Query: "select 1"}
	if !strings.HasPrefix(pt.String(), "openquery:") {
		t.Errorf("pt = %q", pt.String())
	}
	mail := &Source{Kind: SourceMailTVF, Path: "/m.mmf"}
	if mail.String() != "mail:/m.mmf" {
		t.Errorf("mail = %q", mail.String())
	}
}

func TestOrdering(t *testing.T) {
	o := Ordering{{Col: 1}, {Col: 2, Desc: true}}
	if o.String() != "col1, col2 DESC" {
		t.Errorf("String = %q", o.String())
	}
	if !o.Equal(Ordering{{Col: 1}, {Col: 2, Desc: true}}) {
		t.Error("Equal")
	}
	if o.Equal(Ordering{{Col: 1}}) {
		t.Error("Equal on different lengths")
	}
	req := Ordering{{Col: 1}}
	if !req.SatisfiedBy(o) {
		t.Error("prefix should satisfy")
	}
	if o.SatisfiedBy(req) {
		t.Error("shorter actual should not satisfy")
	}
	var empty Ordering
	if !empty.SatisfiedBy(o) || !empty.SatisfiedBy(nil) {
		t.Error("empty requirement should always be satisfied")
	}
}

func TestDigestsDistinguishPayloads(t *testing.T) {
	a := &Get{Src: &Source{Table: "t1"}, Cols: cols(1)}
	b := &Get{Src: &Source{Table: "t2"}, Cols: cols(1)}
	if a.Digest() == b.Digest() {
		t.Error("different tables share digest")
	}
	j1 := &Join{Type: InnerJoin, On: expr.NewBinary(expr.OpEq, expr.NewColRef(1, "a"), expr.NewColRef(2, "b"))}
	j2 := &Join{Type: SemiJoin, On: j1.On}
	if j1.Digest() == j2.Digest() {
		t.Error("join types share digest")
	}
	text := "SELECT t0.a AS c1 FROM t AS t0 WHERE (t0.a = @__k0)"
	rq1 := &RemoteQuery{Server: "r", SQL: text, Binds: []Bind{{Name: "__k0", Val: sqltypes.NewInt(5), Lit: "5"}}}
	rq2 := &RemoteQuery{Server: "r", SQL: text, Binds: []Bind{{Name: "__k0", Val: sqltypes.NewInt(6), Lit: "6"}}}
	if rq1.Digest() == rq2.Digest() {
		t.Error("bound values ignored in digest")
	}
	rq3 := &RemoteQuery{Server: "r", SQL: text, Binds: []Bind{{Name: "__k0", Val: sqltypes.NewString("5"), Lit: "'5'"}}}
	if rq1.Digest() == rq3.Digest() {
		t.Error("bound value kinds ignored in digest")
	}
}

func TestPhysicalOutCols(t *testing.T) {
	child := cols(1, 2)
	hj := &HashJoin{Type: InnerJoin}
	if got := hj.OutCols([][]OutCol{child, cols(10)}); len(got) != 3 {
		t.Errorf("hash join out = %v", got)
	}
	rf := &RemoteFetch{Src: &Source{Table: "docs"}, KeyCol: 1, Cols: cols(20, 21)}
	if got := rf.OutCols([][]OutCol{child}); len(got) != 4 || got[2].ID != 20 {
		t.Errorf("remote fetch out = %v", got)
	}
	sa := &StreamAgg{GroupCols: cols(1), Aggs: []AggSpec{{Out: OutCol{ID: 9}, Func: AggSum, Arg: expr.NewColRef(2, "v")}}}
	if got := sa.OutCols(nil); len(got) != 2 || got[1].ID != 9 {
		t.Errorf("stream agg out = %v", got)
	}
	if (&Spool{}).Digest() != "" {
		t.Error("spool digest")
	}
	if (&EmptyScan{Cols: cols(1)}).OutCols(nil)[0].ID != 1 {
		t.Error("empty scan out")
	}
}

func TestAggSpecString(t *testing.T) {
	a := AggSpec{Out: OutCol{ID: 1, Name: "n"}, Func: AggCount}
	if got := a.String(); got != "COUNT(*) AS n#1" {
		t.Errorf("count(*) = %q", got)
	}
	d := AggSpec{Out: OutCol{ID: 2, Name: "d"}, Func: AggSum, Arg: expr.NewColRef(3, "x"), Distinct: true}
	if got := d.String(); got != "SUM(DISTINCT x) AS d#2" {
		t.Errorf("sum distinct = %q", got)
	}
}

func TestJoinTypeAndAggFuncStrings(t *testing.T) {
	if InnerJoin.String() != "Inner" || AntiJoin.String() != "Anti" {
		t.Error("join type strings")
	}
	if AggAvg.String() != "AVG" || AggMin.String() != "MIN" {
		t.Error("agg func strings")
	}
}

func TestLogicalFlag(t *testing.T) {
	logicals := []Operator{&Get{Src: &Source{}}, &Select{}, &Project{}, &Join{}, &GroupBy{}, &UnionAll{}, &Top{}, &Values{}}
	for _, op := range logicals {
		if !op.Logical() {
			t.Errorf("%s should be logical", op.OpName())
		}
	}
	physicals := []Operator{
		&TableScan{Src: &Source{}}, &IndexRange{Src: &Source{}}, &RemoteScan{Src: &Source{}},
		&RemoteRange{Src: &Source{}}, &RemoteFetch{Src: &Source{}}, &RemoteQuery{},
		&Filter{}, &StartupFilter{}, &Compute{}, &HashJoin{}, &LoopJoin{},
		&StreamAgg{}, &HashAgg{}, &Sort{}, &TopN{}, &Concat{}, &Spool{}, &ConstScan{}, &EmptyScan{},
	}
	for _, op := range physicals {
		if op.Logical() {
			t.Errorf("%s should be physical", op.OpName())
		}
	}
}

func TestRangeBoundDigest(t *testing.T) {
	b := RangeBound{Vals: []expr.Expr{expr.NewConst(sqltypes.NewInt(5))}, Inclusive: true}
	if b.digest() != "[5]" {
		t.Errorf("digest = %q", b.digest())
	}
	open := RangeBound{Vals: []expr.Expr{expr.NewParam("x")}}
	if open.digest() != "[@x)" {
		t.Errorf("digest = %q", open.digest())
	}
	if (RangeBound{}).digest() != "-" {
		t.Error("unbounded digest")
	}
}
