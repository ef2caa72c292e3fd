package rules

import (
	"strings"
	"testing"

	"dhqp/internal/algebra"
	"dhqp/internal/constraint"
	"dhqp/internal/decoder"
	"dhqp/internal/expr"
	"dhqp/internal/memo"
	"dhqp/internal/oledb"
	"dhqp/internal/schema"
	"dhqp/internal/sqltypes"
	"dhqp/internal/stats"
)

type md struct{ checks map[string]constraint.Map }

func (m *md) TableCardinality(*algebra.Source) float64 { return 1000 }
func (m *md) Histogram(expr.ColumnID) *stats.Histogram { return nil }
func (m *md) CheckDomains(src *algebra.Source, cols []algebra.OutCol) constraint.Map {
	if m.checks == nil {
		return nil
	}
	return m.checks[src.Table]
}

func ctxWith(m *memo.Memo) *Context {
	next := expr.ColumnID(500)
	return &Context{
		Memo:  m,
		Phase: PhaseFull,
		CapsFor: func(server string) (oledb.Capabilities, bool) {
			return oledb.Capabilities{
				SQLSupport: oledb.SQLFull, SupportsCommand: true,
				SupportsIndexes: true, NestedSelects: true,
				Profile: expr.FullRemotable(),
			}, true
		},
		NewCol:      func() expr.ColumnID { next++; return next },
		TableCardFn: func(*algebra.Source) float64 { return 1000 },
	}
}

func getNode(server, table string, ids ...expr.ColumnID) *algebra.Node {
	def := &schema.Table{Catalog: "db", Name: table}
	cols := make([]algebra.OutCol, len(ids))
	for i, id := range ids {
		def.Columns = append(def.Columns, schema.Column{Name: "c", Kind: sqltypes.KindInt})
		cols[i] = algebra.OutCol{ID: id, Name: "c", Kind: sqltypes.KindInt}
	}
	return algebra.NewNode(&algebra.Get{
		Src:  &algebra.Source{Server: server, Catalog: "db", Table: table, Def: def},
		Cols: cols,
	})
}

func TestGuidanceFiltersByOperatorAndPhase(t *testing.T) {
	joinRules := Guidance(&algebra.Join{}, PhaseFull)
	names := map[string]bool{}
	for _, r := range joinRules {
		names[r.Name()] = true
	}
	for _, want := range []string{"JoinCommute", "JoinAssociate", "GroupJoinsByLocality", "ParameterizeJoin"} {
		if !names[want] {
			t.Errorf("join guidance missing %s", want)
		}
	}
	if names["PushSelectIntoJoin"] {
		t.Error("select rule offered for a join")
	}
	// Phase gating: associate is full-only.
	quick := Guidance(&algebra.Join{}, PhaseQuick)
	for _, r := range quick {
		if r.Name() == "JoinAssociate" {
			t.Error("full-phase rule offered at quick plan")
		}
	}
	// Promise ordering: pushdown outranks commute for selects... check
	// descending promises generally. Guidance keeps the registry's order,
	// so the registry itself must be sorted.
	for _, rs := range [][]ExplorationRule{Guidance(&algebra.Select{}, PhaseFull), joinRules, explorationRules} {
		for i := 1; i < len(rs); i++ {
			if rs[i].Promise() > rs[i-1].Promise() {
				t.Errorf("%s (promise %d) follows %s (promise %d)", rs[i].Name(), rs[i].Promise(), rs[i-1].Name(), rs[i-1].Promise())
			}
		}
	}
}

func TestJoinCommuteRule(t *testing.T) {
	m := memo.New(&md{})
	a, b := m.Insert(getNode("", "a", 1)), m.Insert(getNode("", "b", 2))
	g := m.InsertExpr(&algebra.Join{Type: algebra.InnerJoin}, []memo.GroupID{a, b}, -1)
	e := m.Group(g).Exprs[0]
	alts := (&JoinCommute{}).Apply(e, ctxWith(m))
	if len(alts) != 1 {
		t.Fatalf("alts = %d", len(alts))
	}
	m.InsertX(alts[0], g)
	if len(m.Group(g).Exprs) != 2 {
		t.Error("commuted alternative not added")
	}
	// Anti joins do not commute.
	g2 := m.InsertExpr(&algebra.Join{Type: algebra.AntiJoin}, []memo.GroupID{a, b}, -1)
	if alts := (&JoinCommute{}).Apply(m.Group(g2).Exprs[0], ctxWith(m)); alts != nil {
		t.Error("anti join commuted")
	}
}

func TestPushSelectIntoJoinRule(t *testing.T) {
	m := memo.New(&md{})
	a, b := m.Insert(getNode("", "a", 1)), m.Insert(getNode("", "b", 10))
	join := m.InsertExpr(&algebra.Join{Type: algebra.InnerJoin}, []memo.GroupID{a, b}, -1)
	pred := expr.Conjoin([]expr.Expr{
		expr.NewBinary(expr.OpGt, expr.NewColRef(1, "a"), expr.NewConst(sqltypes.NewInt(5))),
		expr.NewBinary(expr.OpEq, expr.NewColRef(1, "a"), expr.NewColRef(10, "b")),
	})
	sel := m.InsertExpr(&algebra.Select{Filter: pred}, []memo.GroupID{join}, -1)
	alts := (&PushSelectIntoJoin{}).Apply(m.Group(sel).Exprs[0], ctxWith(m))
	if len(alts) != 1 {
		t.Fatalf("alts = %d", len(alts))
	}
	// The alternative's root is a Join whose On holds the cross conjunct.
	j, ok := alts[0].Op.(*algebra.Join)
	if !ok || j.On == nil {
		t.Fatalf("root = %T", alts[0].Op)
	}
	// Left child carries the single-side filter.
	if alts[0].Kids[0].Node == nil {
		t.Error("left-side filter not pushed")
	}
}

func TestPushSelectKeepsRightFilterAboveOuterJoin(t *testing.T) {
	m := memo.New(&md{})
	a, b := m.Insert(getNode("", "a", 1)), m.Insert(getNode("", "b", 10))
	join := m.InsertExpr(&algebra.Join{Type: algebra.LeftOuterJoin}, []memo.GroupID{a, b}, -1)
	pred := expr.NewBinary(expr.OpGt, expr.NewColRef(10, "b"), expr.NewConst(sqltypes.NewInt(5)))
	sel := m.InsertExpr(&algebra.Select{Filter: pred}, []memo.GroupID{join}, -1)
	alts := (&PushSelectIntoJoin{}).Apply(m.Group(sel).Exprs[0], ctxWith(m))
	// Right-only conjunct under a left outer join cannot move: no new
	// alternative (everything stays "keep").
	if len(alts) != 0 {
		t.Errorf("outer-join semantics violated: %d alts", len(alts))
	}
}

func TestParameterizeJoinRule(t *testing.T) {
	m := memo.New(&md{})
	a, b := m.Insert(getNode("", "a", 1)), m.Insert(getNode("srv", "b", 10))
	on := expr.NewBinary(expr.OpEq, expr.NewColRef(1, "a"), expr.NewColRef(10, "b"))
	g := m.InsertExpr(&algebra.Join{Type: algebra.InnerJoin, On: on}, []memo.GroupID{a, b}, -1)
	alts := (&ParameterizeJoin{}).Apply(m.Group(g).Exprs[0], ctxWith(m))
	if len(alts) != 1 {
		t.Fatalf("alts = %d", len(alts))
	}
	apply, ok := alts[0].Op.(*algebra.Apply)
	if !ok || len(apply.ParamMap) != 1 {
		t.Fatalf("root = %T %+v", alts[0].Op, apply)
	}
	// The inner side is a new Select with a parameter predicate.
	inner := alts[0].Kids[1].Node
	if inner == nil {
		t.Fatal("inner not a new node")
	}
	isel, ok := inner.Op.(*algebra.Select)
	if !ok || !expr.HasParams(isel.Filter) {
		t.Fatalf("inner = %T", inner.Op)
	}
	// Disabled by the ablation knob.
	ctx := ctxWith(m)
	ctx.DisableParameterization = true
	if alts := (&ParameterizeJoin{}).Apply(m.Group(g).Exprs[0], ctx); alts != nil {
		t.Error("knob ignored")
	}
	// Non-equi joins cannot parameterize.
	g2 := m.InsertExpr(&algebra.Join{Type: algebra.InnerJoin,
		On: expr.NewBinary(expr.OpLt, expr.NewColRef(1, "a"), expr.NewColRef(10, "b"))},
		[]memo.GroupID{a, b}, -1)
	if alts := (&ParameterizeJoin{}).Apply(m.Group(g2).Exprs[0], ctxWith(m)); alts != nil {
		t.Error("non-equi join parameterized")
	}
}

func TestGroupJoinsByLocalityRule(t *testing.T) {
	m := memo.New(&md{})
	ra := m.Insert(getNode("srv", "ra", 1))
	local := m.Insert(getNode("", "loc", 10))
	rc := m.Insert(getNode("srv", "rc", 20))
	on1 := expr.NewBinary(expr.OpEq, expr.NewColRef(1, "x"), expr.NewColRef(10, "y"))
	inner := m.InsertExpr(&algebra.Join{Type: algebra.InnerJoin, On: on1}, []memo.GroupID{ra, local}, -1)
	on2 := expr.NewBinary(expr.OpEq, expr.NewColRef(1, "x"), expr.NewColRef(20, "z"))
	g := m.InsertExpr(&algebra.Join{Type: algebra.InnerJoin, On: on2}, []memo.GroupID{inner, rc}, -1)
	alts := (&GroupJoinsByLocality{}).Apply(m.Group(g).Exprs[0], ctxWith(m))
	if len(alts) == 0 {
		t.Fatal("locality grouping produced nothing")
	}
	// The regrouped tree must pair the two same-server relations in one
	// subtree: the new lower join's children are ra and rc.
	found := false
	for _, x := range alts {
		for _, kid := range x.Kids {
			if kid.Node != nil {
				if j, ok := kid.Node.Op.(*algebra.Join); ok && j.On != nil {
					found = true
				}
			}
		}
	}
	if !found {
		t.Errorf("no regrouped join subtree")
	}
}

func TestPruneEmptyUnionArmsRule(t *testing.T) {
	checks := map[string]constraint.Map{}
	m := memo.New(&md{checks: checks})
	a := m.Insert(getNode("", "a", 1))
	// An unsatisfiable arm: Values with zero rows.
	emptyArm := m.Insert(algebra.NewNode(&algebra.Values{
		Cols: []algebra.OutCol{{ID: 2, Name: "c", Kind: sqltypes.KindInt}},
	}))
	u := m.InsertExpr(&algebra.UnionAll{
		OutColsList: []algebra.OutCol{{ID: 9, Name: "c", Kind: sqltypes.KindInt}},
		InMaps:      [][]expr.ColumnID{{1}, {2}},
	}, []memo.GroupID{a, emptyArm}, -1)
	alts := (&PruneEmptyUnionArms{}).Apply(m.Group(u).Exprs[0], ctxWith(m))
	if len(alts) != 1 {
		t.Fatalf("alts = %d", len(alts))
	}
	nu, ok := alts[0].Op.(*algebra.UnionAll)
	if !ok || len(alts[0].Kids) != 1 || len(nu.InMaps) != 1 {
		t.Errorf("pruned union = %T kids=%d", alts[0].Op, len(alts[0].Kids))
	}
}

func TestImplGetVariants(t *testing.T) {
	m := memo.New(&md{})
	ctx := ctxWith(m)
	localG := m.Insert(getNode("", "t", 1))
	cands := (&ImplGet{}).Candidates(m.Group(localG).Exprs[0], ctx)
	if len(cands) != 1 || cands[0].Op.OpName() != "TableScan" {
		t.Errorf("local get = %v", cands[0].Op.OpName())
	}
	remoteG := m.Insert(getNode("srv", "t", 2))
	cands = (&ImplGet{}).Candidates(m.Group(remoteG).Exprs[0], ctx)
	if cands[0].Op.OpName() != "RemoteScan" {
		t.Errorf("remote get = %v", cands[0].Op.OpName())
	}
	ftG := m.Insert(algebra.NewNode(&algebra.Get{
		Src:  &algebra.Source{Kind: algebra.SourceFullText, Server: "#ft", Table: "cat", Query: "x"},
		Cols: []algebra.OutCol{{ID: 3, Name: "KEY", Kind: sqltypes.KindInt}},
	}))
	cands = (&ImplGet{}).Candidates(m.Group(ftG).Exprs[0], ctx)
	if cands[0].Op.OpName() != "ProviderCommand" {
		t.Errorf("fulltext get = %v", cands[0].Op.OpName())
	}
}

func TestBuildRemoteQueryFiresOncePerGroup(t *testing.T) {
	m := memo.New(&md{})
	a, b := m.Insert(getNode("srv", "a", 1)), m.Insert(getNode("srv", "b", 10))
	on := expr.NewBinary(expr.OpEq, expr.NewColRef(1, "a"), expr.NewColRef(10, "b"))
	g := m.InsertExpr(&algebra.Join{Type: algebra.InnerJoin, On: on}, []memo.GroupID{a, b}, -1)
	ctx := ctxWith(m)
	rule := &BuildRemoteQuery{}
	first := rule.Candidates(m.Group(g).Exprs[0], ctx)
	if len(first) != 1 {
		t.Fatalf("candidates = %d", len(first))
	}
	// The candidate carries the tree; its text is written only if a plan
	// keeps it.
	if rq := findRemoteQuery(first[0]); rq == nil || rq.SQL != "" {
		t.Errorf("RemoteQuery = %+v, want one without text", rq)
	}
	if res, err := decoder.Decode(first[0].Pushed, first[0].Caps); err != nil || !strings.Contains(res.SQL, "INNER JOIN") {
		t.Errorf("pushed tree decodes to %v, %v", res, err)
	}
	// Add a commuted alternative; the rule must not fire on it (not the
	// group's first expression).
	m.InsertExpr(&algebra.Join{Type: algebra.InnerJoin, On: on}, []memo.GroupID{b, a}, g)
	if alts := rule.Candidates(m.Group(g).Exprs[1], ctx); alts != nil {
		t.Error("rule fired on a non-leading expression")
	}
	// Mixed locality: no candidate.
	localB := m.Insert(getNode("", "lb", 20))
	g2 := m.InsertExpr(&algebra.Join{Type: algebra.InnerJoin}, []memo.GroupID{a, localB}, -1)
	if alts := rule.Candidates(m.Group(g2).Exprs[0], ctx); alts != nil {
		t.Error("mixed-locality group remoted")
	}
}

func findRemoteQuery(c *Candidate) *algebra.RemoteQuery {
	if rq, ok := c.Op.(*algebra.RemoteQuery); ok {
		return rq
	}
	for _, k := range c.Kids {
		if k.Fixed != nil {
			if rq := findRemoteQuery(k.Fixed); rq != nil {
				return rq
			}
		}
	}
	return nil
}

func TestImplSelectIndexCandidates(t *testing.T) {
	m := memo.New(&md{})
	def := &schema.Table{
		Catalog: "db", Name: "t",
		Columns: []schema.Column{{Name: "k", Kind: sqltypes.KindInt}, {Name: "v", Kind: sqltypes.KindInt}},
		Indexes: []schema.Index{{Name: "ix_k", Columns: []int{0}}},
	}
	g := m.Insert(algebra.NewNode(&algebra.Get{
		Src: &algebra.Source{Catalog: "db", Table: "t", Def: def},
		Cols: []algebra.OutCol{
			{ID: 1, Name: "k", Kind: sqltypes.KindInt},
			{ID: 2, Name: "v", Kind: sqltypes.KindInt},
		},
	}))
	pred := expr.Conjoin([]expr.Expr{
		expr.NewBinary(expr.OpEq, expr.NewColRef(1, "k"), expr.NewConst(sqltypes.NewInt(5))),
		expr.NewBinary(expr.OpGt, expr.NewColRef(2, "v"), expr.NewConst(sqltypes.NewInt(0))),
	})
	selG := m.InsertExpr(&algebra.Select{Filter: pred}, []memo.GroupID{g}, -1)
	cands := (&ImplSelect{}).Candidates(m.Group(selG).Exprs[0], ctxWith(m))
	var sawIndexPath bool
	for _, c := range cands {
		s := c.Op.OpName()
		if s == "IndexRange" {
			sawIndexPath = true
		}
		if s == "Filter" && len(c.Kids) == 1 && c.Kids[0].Fixed != nil &&
			c.Kids[0].Fixed.Op.OpName() == "IndexRange" {
			sawIndexPath = true
		}
	}
	if !sawIndexPath {
		t.Error("no index-range candidate for a sargable predicate")
	}
}

func TestImplSelectStartupWrap(t *testing.T) {
	checks := map[string]constraint.Map{
		"part": {1: constraint.FromComparison(expr.OpGe, sqltypes.NewInt(100))},
	}
	m := memo.New(&md{checks: checks})
	g := m.Insert(getNode("", "part", 1))
	pred := expr.NewBinary(expr.OpEq, expr.NewColRef(1, "c"), expr.NewParam("id"))
	selG := m.InsertExpr(&algebra.Select{Filter: pred}, []memo.GroupID{g}, -1)
	cands := (&ImplSelect{}).Candidates(m.Group(selG).Exprs[0], ctxWith(m))
	for _, c := range cands {
		if c.Op.OpName() != "StartupFilter" {
			t.Errorf("candidate %s not startup-wrapped", c.Op.OpName())
		}
	}
}

func TestImplJoinSpoolKnob(t *testing.T) {
	m := memo.New(&md{})
	a, b := m.Insert(getNode("", "a", 1)), m.Insert(getNode("", "b", 10))
	g := m.InsertExpr(&algebra.Join{Type: algebra.InnerJoin,
		On: expr.NewBinary(expr.OpLt, expr.NewColRef(1, "a"), expr.NewColRef(10, "b"))},
		[]memo.GroupID{a, b}, -1)
	ctx := ctxWith(m)
	withSpool := (&ImplJoin{}).Candidates(m.Group(g).Exprs[0], ctx)
	ctx.DisableSpool = true
	without := (&ImplJoin{}).Candidates(m.Group(g).Exprs[0], ctx)
	if len(withSpool) != len(without)+1 {
		t.Errorf("spool variant counts: %d vs %d", len(withSpool), len(without))
	}
}

func TestPhaseString(t *testing.T) {
	if PhaseTP.String() != "transaction processing" ||
		PhaseQuick.String() != "quick plan" ||
		PhaseFull.String() != "full optimization" {
		t.Error("phase names")
	}
	if Phase(9).String() == "" {
		t.Error("unknown phase should still render")
	}
}
