package memo

import (
	"strings"
	"testing"

	"dhqp/internal/algebra"
	"dhqp/internal/constraint"
	"dhqp/internal/expr"
	"dhqp/internal/sqltypes"
	"dhqp/internal/stats"
)

// testMD is a Metadata stub with fixed cardinalities and optional
// histograms/check constraints.
type testMD struct {
	cards  map[string]float64
	hists  map[expr.ColumnID]*stats.Histogram
	checks map[string]constraint.Map
}

func (md *testMD) TableCardinality(src *algebra.Source) float64 {
	if c, ok := md.cards[src.Table]; ok {
		return c
	}
	return 100
}

func (md *testMD) Histogram(col expr.ColumnID) *stats.Histogram {
	return md.hists[col]
}

func (md *testMD) CheckDomains(src *algebra.Source, cols []algebra.OutCol) constraint.Map {
	if m, ok := md.checks[src.Table]; ok {
		return m
	}
	return nil
}

func col(id expr.ColumnID, name string) algebra.OutCol {
	return algebra.OutCol{ID: id, Name: name, Kind: sqltypes.KindInt}
}

func getNode(table, server string, ids ...expr.ColumnID) *algebra.Node {
	cols := make([]algebra.OutCol, len(ids))
	for i, id := range ids {
		cols[i] = col(id, table+"_c")
	}
	return algebra.NewNode(&algebra.Get{
		Src:  &algebra.Source{Server: server, Table: table},
		Cols: cols,
	})
}

func TestInsertDedup(t *testing.T) {
	m := New(&testMD{})
	g1 := m.Insert(getNode("t", "", 1, 2))
	g2 := m.Insert(getNode("t", "", 1, 2))
	if g1 != g2 {
		t.Error("identical trees produced different groups")
	}
	if len(m.Groups) != 1 {
		t.Errorf("groups = %d", len(m.Groups))
	}
	g3 := m.Insert(getNode("u", "", 3))
	if g3 == g1 {
		t.Error("different tables share a group")
	}
}

func TestInsertExprIntoTargetGroup(t *testing.T) {
	m := New(&testMD{})
	a := m.Insert(getNode("a", "", 1))
	b := m.Insert(getNode("b", "", 2))
	on := expr.NewBinary(expr.OpEq, expr.NewColRef(1, "x"), expr.NewColRef(2, "y"))
	j := m.InsertExpr(&algebra.Join{Type: algebra.InnerJoin, On: on}, []GroupID{a, b}, -1)
	// Commuted join joins the same group.
	got := m.InsertExpr(&algebra.Join{Type: algebra.InnerJoin, On: on}, []GroupID{b, a}, j)
	if got != j {
		t.Error("alternative not added to target group")
	}
	if len(m.Group(j).Exprs) != 2 {
		t.Errorf("group has %d exprs", len(m.Group(j).Exprs))
	}
	// Re-inserting the commuted form is a no-op.
	again := m.InsertExpr(&algebra.Join{Type: algebra.InnerJoin, On: on}, []GroupID{b, a}, j)
	if again != j || len(m.Group(j).Exprs) != 2 {
		t.Error("duplicate alternative re-inserted")
	}
}

func TestInsertX(t *testing.T) {
	m := New(&testMD{})
	a := m.Insert(getNode("a", "", 1))
	b := m.Insert(getNode("b", "", 2))
	c := m.Insert(getNode("c", "", 3))
	// (a ⋈ b) ⋈ c as an XNode with a nested new join.
	x := &XNode{
		Op: &algebra.Join{Type: algebra.InnerJoin},
		Kids: []XChild{
			NodeChild(&XNode{
				Op:   &algebra.Join{Type: algebra.InnerJoin},
				Kids: []XChild{GroupChild(a), GroupChild(b)},
			}),
			GroupChild(c),
		},
	}
	root := m.InsertX(x, -1)
	if int(root) < 0 || len(m.Groups) != 5 {
		t.Errorf("groups = %d", len(m.Groups))
	}
}

func TestPropsCardinalityChain(t *testing.T) {
	md := &testMD{cards: map[string]float64{"big": 10000}}
	m := New(md)
	get := getNode("big", "", 1)
	filter := algebra.NewNode(
		&algebra.Select{Filter: expr.NewBinary(expr.OpEq, expr.NewColRef(1, "k"), expr.NewConst(sqltypes.NewInt(5)))},
		get)
	g := m.Insert(filter)
	p := m.Group(g).Props
	// Default eq selectivity 0.10 without histogram.
	if p.Cardinality != 1000 {
		t.Errorf("card = %v", p.Cardinality)
	}
	if p.RowWidth <= 0 {
		t.Error("row width")
	}
}

func TestPropsJoinCardinalityWithHistograms(t *testing.T) {
	vals := make([]sqltypes.Value, 100)
	for i := range vals {
		vals[i] = sqltypes.NewInt(int64(i))
	}
	h := stats.Build(vals, 10)
	md := &testMD{
		cards: map[string]float64{"l": 1000, "r": 100},
		hists: map[expr.ColumnID]*stats.Histogram{1: h, 2: h},
	}
	m := New(md)
	on := expr.NewBinary(expr.OpEq, expr.NewColRef(1, "lk"), expr.NewColRef(2, "rk"))
	j := algebra.NewNode(&algebra.Join{Type: algebra.InnerJoin, On: on},
		getNode("l", "", 1), getNode("r", "", 2))
	g := m.Insert(j)
	// 1000 * 100 / 100 distinct = 1000.
	if got := m.Group(g).Props.Cardinality; got != 1000 {
		t.Errorf("join card = %v", got)
	}
}

func TestPropsServersTracking(t *testing.T) {
	m := New(&testMD{})
	j := algebra.NewNode(&algebra.Join{Type: algebra.InnerJoin},
		getNode("customer", "remote0", 1),
		getNode("supplier", "remote0", 2))
	g := m.Insert(j)
	p := m.Group(g).Props
	srv, ok := p.SoleServer()
	if !ok || srv != "remote0" {
		t.Errorf("SoleServer = %q, %v", srv, ok)
	}
	// Mixing with a local table loses sole-server status.
	j2 := algebra.NewNode(&algebra.Join{Type: algebra.InnerJoin},
		algebra.NewNode(j.Op, j.Kids...),
		getNode("nation", "", 3))
	g2 := m.Insert(j2)
	if _, ok := m.Group(g2).Props.SoleServer(); ok {
		t.Error("mixed locality reported sole server")
	}
}

func TestPropsStaticPruning(t *testing.T) {
	// CHECK says col1 in (50, +inf); filter says col1 = 20 → unsatisfiable.
	md := &testMD{checks: map[string]constraint.Map{
		"part": {1: constraint.FromComparison(expr.OpGt, sqltypes.NewInt(50))},
	}}
	m := New(md)
	filter := algebra.NewNode(
		&algebra.Select{Filter: expr.NewBinary(expr.OpEq, expr.NewColRef(1, "k"), expr.NewConst(sqltypes.NewInt(20)))},
		getNode("part", "", 1))
	g := m.Insert(filter)
	p := m.Group(g).Props
	if !p.Unsatisfiable {
		t.Error("contradiction not detected")
	}
	if p.Cardinality != 0 {
		t.Errorf("card = %v", p.Cardinality)
	}
}

func TestPropsGroupByAndTopAndValues(t *testing.T) {
	md := &testMD{cards: map[string]float64{"t": 1000}}
	m := New(md)
	gb := algebra.NewNode(&algebra.GroupBy{
		GroupCols: []algebra.OutCol{col(1, "k")},
		Aggs:      []algebra.AggSpec{{Out: col(9, "cnt"), Func: algebra.AggCount}},
	}, getNode("t", "", 1))
	g := m.Insert(gb)
	if got := m.Group(g).Props.Cardinality; got != 100 {
		t.Errorf("groupby card = %v (want 10%% default NDV)", got)
	}
	top := algebra.NewNode(&algebra.Top{N: 5}, getNode("t", "", 2))
	gt := m.Insert(top)
	if got := m.Group(gt).Props.Cardinality; got != 5 {
		t.Errorf("top card = %v", got)
	}
	empty := algebra.NewNode(&algebra.Values{Cols: []algebra.OutCol{col(3, "x")}})
	ge := m.Insert(empty)
	if !m.Group(ge).Props.Unsatisfiable {
		t.Error("empty values not unsatisfiable")
	}
	// Scalar aggregate has cardinality 1.
	scalar := algebra.NewNode(&algebra.GroupBy{
		Aggs: []algebra.AggSpec{{Out: col(8, "cnt"), Func: algebra.AggCount}},
	}, getNode("t", "", 4))
	gs := m.Insert(scalar)
	if got := m.Group(gs).Props.Cardinality; got != 1 {
		t.Errorf("scalar agg card = %v", got)
	}
}

func TestPropsUnionAllPartitionedDomains(t *testing.T) {
	md := &testMD{checks: map[string]constraint.Map{
		"p92": {1: constraint.FromComparison(expr.OpLt, sqltypes.NewInt(100))},
		"p93": {2: constraint.FromComparison(expr.OpGe, sqltypes.NewInt(100))},
	}}
	m := New(md)
	u := algebra.NewNode(&algebra.UnionAll{
		OutColsList: []algebra.OutCol{col(10, "k")},
		InMaps:      [][]expr.ColumnID{{1}, {2}},
	}, getNode("p92", "", 1), getNode("p93", "", 2))
	g := m.Insert(u)
	d := m.Group(g).Props.Domains.DomainOf(10)
	if !d.Contains(sqltypes.NewInt(50)) || !d.Contains(sqltypes.NewInt(150)) {
		t.Errorf("union domain = %v", d)
	}
	// Cardinality sums.
	if got := m.Group(g).Props.Cardinality; got != 200 {
		t.Errorf("union card = %v", got)
	}
}

func TestWinnersCache(t *testing.T) {
	m := New(&testMD{})
	g := m.Insert(getNode("t", "", 1))
	if _, ok := m.Winner(g, Any); ok {
		t.Error("winner before set")
	}
	w := &Winner{Cost: 42}
	m.SetWinner(g, Any, w)
	got, ok := m.Winner(g, Any)
	if !ok || got.Cost != 42 {
		t.Error("winner not cached")
	}
	ordered := PhysProps{Order: algebra.Ordering{{Col: 1}}}
	if _, ok := m.Winner(g, ordered); ok {
		t.Error("ordered winner should be distinct")
	}
	m.ClearWinners()
	if _, ok := m.Winner(g, Any); ok {
		t.Error("ClearWinners did not clear")
	}
}

func TestFiredTracking(t *testing.T) {
	m := New(&testMD{})
	g := m.Insert(getNode("t", "", 1))
	e := m.Group(g).Exprs[0]
	if e.Fired("JoinCommute") {
		t.Error("unfired rule reported fired")
	}
	e.MarkFired("JoinCommute")
	if !e.Fired("JoinCommute") {
		t.Error("fired rule not recorded")
	}
}

func TestMemoString(t *testing.T) {
	m := New(&testMD{})
	m.Insert(getNode("t", "", 1))
	s := m.String()
	if !strings.Contains(s, "G0") || !strings.Contains(s, "Get") {
		t.Errorf("String = %q", s)
	}
}

func TestNilMetadataDefaults(t *testing.T) {
	m := New(nil)
	g := m.Insert(getNode("t", "", 1))
	if m.Group(g).Props.Cardinality != 1000 {
		t.Errorf("default card = %v", m.Group(g).Props.Cardinality)
	}
	if m.HistogramFor(1) != nil {
		t.Error("nil metadata histogram")
	}
}

// TestRemoteQueryDigestCarriesBinds: two pushed statements with one text
// and different lifted values are different expressions — the memo must not
// fold the second into the first's group.
func TestRemoteQueryDigestCarriesBinds(t *testing.T) {
	m := New(&testMD{})
	text := "SELECT t0.a AS c1 FROM t AS t0 WHERE (t0.a = @__k0)"
	rq := func(v int64) *algebra.RemoteQuery {
		return &algebra.RemoteQuery{Server: "r", SQL: text, Cols: []algebra.OutCol{col(1, "a")},
			Binds: []algebra.Bind{{Name: "__k0", Val: sqltypes.NewInt(v), Lit: sqltypes.NewInt(v).String()}}}
	}
	g1 := m.InsertExpr(rq(3), nil, -1)
	g2 := m.InsertExpr(rq(4), nil, -1)
	if g1 == g2 {
		t.Fatal("statements differing only in a bound value share a group")
	}
	if m.InsertExpr(rq(3), nil, -1) != g1 {
		t.Error("identical statements produced different groups")
	}
}
