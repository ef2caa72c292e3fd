package opt

import (
	"strings"
	"testing"

	"dhqp/internal/algebra"
	"dhqp/internal/constraint"
	"dhqp/internal/decoder"
	"dhqp/internal/expr"
	"dhqp/internal/oledb"
	"dhqp/internal/rules"
	"dhqp/internal/schema"
	"dhqp/internal/sqltypes"
	"dhqp/internal/stats"
)

// md is a fixed-cardinality metadata stub.
type md struct {
	cards map[string]float64
}

func (m *md) TableCardinality(src *algebra.Source) float64 {
	if c, ok := m.cards[src.Table]; ok {
		return c
	}
	return 100
}
func (m *md) Histogram(expr.ColumnID) *stats.Histogram { return nil }
func (m *md) CheckDomains(src *algebra.Source, cols []algebra.OutCol) constraint.Map {
	return nil
}

func caps() oledb.Capabilities {
	return oledb.Capabilities{
		ProviderName: "SQLOLEDB", SQLSupport: oledb.SQLFull,
		SupportsCommand: true, SupportsIndexes: true, SupportsBookmarks: true,
		NestedSelects: true, Profile: expr.FullRemotable(),
	}
}

func rctx() *rules.Context {
	return &rules.Context{
		CapsFor: func(server string) (oledb.Capabilities, bool) {
			if server == "" {
				return oledb.Capabilities{}, true
			}
			return caps(), true
		},
		NewCol:      func() expr.ColumnID { return 9999 },
		TableCardFn: func(*algebra.Source) float64 { return 100 },
	}
}

func tableDef(name string, cols ...string) *schema.Table {
	def := &schema.Table{Catalog: "db", Name: name}
	for _, c := range cols {
		def.Columns = append(def.Columns, schema.Column{Name: c, Kind: sqltypes.KindInt})
	}
	return def
}

func get(server, table string, ids ...expr.ColumnID) *algebra.Node {
	var names []string
	for range ids {
		names = append(names, "c")
	}
	def := tableDef(table, names...)
	cols := make([]algebra.OutCol, len(ids))
	for i, id := range ids {
		cols[i] = algebra.OutCol{ID: id, Name: def.Columns[i].Name, Kind: sqltypes.KindInt}
	}
	return algebra.NewNode(&algebra.Get{
		Src:  &algebra.Source{Server: server, Catalog: "db", Table: table, Def: def},
		Cols: cols,
	})
}

func optimize(t *testing.T, root *algebra.Node, order algebra.Ordering) (*algebra.Node, *Report) {
	t.Helper()
	o := New(DefaultConfig(), rctx())
	plan, report, err := o.Optimize(root, &md{cards: map[string]float64{}}, order)
	if err != nil {
		t.Fatal(err)
	}
	return plan, report
}

func TestOptimizeScan(t *testing.T) {
	plan, report := optimize(t, get("", "t", 1), nil)
	if plan.Op.OpName() != "TableScan" {
		t.Errorf("plan = %s", plan.String())
	}
	if report.FinalCost <= 0 || report.Groups == 0 {
		t.Errorf("report = %+v", report)
	}
}

func TestSortEnforcer(t *testing.T) {
	plan, _ := optimize(t, get("", "t", 1, 2), algebra.Ordering{{Col: 2}})
	if plan.Op.OpName() != "Sort" {
		t.Fatalf("expected sort enforcer on top:\n%s", plan.String())
	}
}

func TestFilterPassesOrderRequirementDown(t *testing.T) {
	filter := algebra.NewNode(&algebra.Select{
		Filter: expr.NewBinary(expr.OpGt, expr.NewColRef(1, "a"), expr.NewConst(sqltypes.NewInt(0))),
	}, get("", "t", 1, 2))
	plan, _ := optimize(t, filter, algebra.Ordering{{Col: 1}})
	// The sort may sit above or below the filter; both are valid. It must
	// exist exactly once.
	if strings.Count(plan.String(), "Sort") != 1 {
		t.Errorf("plan:\n%s", plan.String())
	}
}

func TestUnsatisfiableGroupBecomesEmptyScan(t *testing.T) {
	// col1 = 1 AND col1 = 2 is unsatisfiable.
	pred := expr.Conjoin([]expr.Expr{
		expr.NewBinary(expr.OpEq, expr.NewColRef(1, "a"), expr.NewConst(sqltypes.NewInt(1))),
		expr.NewBinary(expr.OpEq, expr.NewColRef(1, "a"), expr.NewConst(sqltypes.NewInt(2))),
	})
	filter := algebra.NewNode(&algebra.Select{Filter: pred}, get("", "t", 1))
	plan, _ := optimize(t, filter, nil)
	if !strings.Contains(plan.String(), "EmptyScan") {
		t.Errorf("static pruning failed:\n%s", plan.String())
	}
}

func TestRemoteSingleServerPushesWholeQuery(t *testing.T) {
	on := expr.NewBinary(expr.OpEq, expr.NewColRef(1, "a"), expr.NewColRef(10, "b"))
	join := algebra.NewNode(&algebra.Join{Type: algebra.InnerJoin, On: on},
		get("srv", "t1", 1), get("srv", "t2", 10))
	plan, _ := optimize(t, join, nil)
	if !strings.Contains(plan.String(), "RemoteQuery") {
		t.Errorf("single-server join not pushed:\n%s", plan.String())
	}
}

func TestPhaseCapLimitsRules(t *testing.T) {
	on := expr.NewBinary(expr.OpEq, expr.NewColRef(1, "a"), expr.NewColRef(10, "b"))
	join := algebra.NewNode(&algebra.Join{Type: algebra.InnerJoin, On: on},
		get("srv", "t1", 1), get("srv", "t2", 10))
	cfg := DefaultConfig()
	cfg.MaxPhase = rules.PhaseTP
	cfg.TPThreshold = 0
	o := New(cfg, rctx())
	plan, report, err := o.Optimize(join, &md{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// BuildRemoteQuery is a quick-plan rule; the TP phase must not use it.
	if strings.Contains(plan.String(), "RemoteQuery") {
		t.Errorf("TP phase used a quick-plan rule:\n%s", plan.String())
	}
	if report.PhaseReached != rules.PhaseTP {
		t.Errorf("phase = %v", report.PhaseReached)
	}
}

func TestEarlyExitOnCheapPlans(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TPThreshold = 1e12 // everything is cheap enough
	o := New(cfg, rctx())
	_, report, err := o.Optimize(get("", "t", 1), &md{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if report.PhaseReached != rules.PhaseTP {
		t.Errorf("early exit failed: reached %v", report.PhaseReached)
	}
	if len(report.PhaseCosts) != 1 {
		t.Errorf("phase costs = %v", report.PhaseCosts)
	}
}

func TestCostsNeverIncreaseAcrossPhases(t *testing.T) {
	on1 := expr.NewBinary(expr.OpEq, expr.NewColRef(1, "a"), expr.NewColRef(10, "b"))
	on2 := expr.NewBinary(expr.OpEq, expr.NewColRef(10, "b"), expr.NewColRef(20, "c"))
	join := algebra.NewNode(&algebra.Join{Type: algebra.InnerJoin, On: on2},
		algebra.NewNode(&algebra.Join{Type: algebra.InnerJoin, On: on1},
			get("srv", "t1", 1), get("", "t2", 10)),
		get("srv", "t3", 20))
	cfg := DefaultConfig()
	cfg.TPThreshold, cfg.QuickThreshold = 0, 0
	o := New(cfg, rctx())
	_, report, err := o.Optimize(join, &md{cards: map[string]float64{"t1": 5000, "t2": 50, "t3": 500}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(report.PhaseCosts); i++ {
		if report.PhaseCosts[i] > report.PhaseCosts[i-1]*1.0001 {
			t.Errorf("phase %d cost %v exceeds phase %d cost %v",
				i, report.PhaseCosts[i], i-1, report.PhaseCosts[i-1])
		}
	}
	if report.PhaseReached != rules.PhaseFull {
		t.Errorf("phase = %v", report.PhaseReached)
	}
}

func TestTopNProvidesOrdering(t *testing.T) {
	top := algebra.NewNode(&algebra.Top{N: 5, Ordering: algebra.Ordering{{Col: 1}}},
		get("", "t", 1, 2))
	plan, _ := optimize(t, top, algebra.Ordering{{Col: 1}})
	// TopN delivers the ordering itself; no extra Sort on top.
	if plan.Op.OpName() == "Sort" {
		t.Errorf("redundant enforcer:\n%s", plan.String())
	}
	if !strings.Contains(plan.String(), "TopN") {
		t.Errorf("plan:\n%s", plan.String())
	}
}

func TestGroupByImplementations(t *testing.T) {
	gb := algebra.NewNode(&algebra.GroupBy{
		GroupCols: []algebra.OutCol{{ID: 1, Name: "k", Kind: sqltypes.KindInt}},
		Aggs:      []algebra.AggSpec{{Out: algebra.OutCol{ID: 50, Name: "n", Kind: sqltypes.KindInt}, Func: algebra.AggCount}},
	}, get("", "t", 1, 2))
	plan, _ := optimize(t, gb, nil)
	if !strings.Contains(plan.String(), "Agg") {
		t.Errorf("plan:\n%s", plan.String())
	}
}

func TestMemoAccessorAfterOptimize(t *testing.T) {
	o := New(DefaultConfig(), rctx())
	if _, _, err := o.Optimize(get("", "t", 1), &md{}, nil); err != nil {
		t.Fatal(err)
	}
	if o.Memo() == nil || len(o.Memo().Groups) == 0 {
		t.Error("memo not retained")
	}
}

func TestNoImplementationError(t *testing.T) {
	// A memo.Metadata returning unsatisfiable-free groups with an operator
	// nobody implements cannot happen through the public surface; instead
	// verify Optimize fails cleanly on a nil root via recovery behaviour.
	defer func() { recover() }()
	o := New(DefaultConfig(), rctx())
	o.Optimize(nil, &md{}, nil)
}

// TestScatterWritesOnlyKeptStatements optimizes a partial-aggregate
// scatter over eight linked servers — every member's Get, Select and
// GroupBy groups can be pushed — and counts the statements written: one
// per RemoteQuery in the plan, none for the candidates the plan does not
// keep.
func TestScatterWritesOnlyKeptStatements(t *testing.T) {
	const members = 8
	var arms []*algebra.Node
	var inMaps [][]expr.ColumnID
	for i := 0; i < members; i++ {
		base := expr.ColumnID(10 * (i + 1))
		arms = append(arms, get("srv"+string(rune('a'+i)), "orders", base, base+1))
		inMaps = append(inMaps, []expr.ColumnID{base, base + 1})
	}
	out := []algebra.OutCol{{ID: 1, Name: "region", Kind: sqltypes.KindInt}, {ID: 2, Name: "amount", Kind: sqltypes.KindInt}}
	union := algebra.NewNode(&algebra.UnionAll{OutColsList: out, InMaps: inMaps}, arms...)
	filter := algebra.NewNode(&algebra.Select{Filter: expr.NewBinary(expr.OpGe, expr.NewColRef(2, "amount"), expr.NewConst(sqltypes.NewInt(100)))}, union)
	root := algebra.NewNode(&algebra.GroupBy{
		GroupCols: []algebra.OutCol{out[0]},
		Aggs:      []algebra.AggSpec{{Out: algebra.OutCol{ID: 3, Name: "total", Kind: sqltypes.KindInt}, Func: algebra.AggSum, Arg: expr.NewColRef(2, "amount")}},
	}, filter)

	writes := 0
	defer func(w func(*algebra.Node, oledb.Capabilities) (*decoder.Result, error)) { writeSQL = w }(writeSQL)
	writeSQL = func(n *algebra.Node, caps oledb.Capabilities) (*decoder.Result, error) {
		writes++
		return decoder.Decode(n, caps)
	}
	plan, _ := optimize(t, root, nil)
	var kept []*algebra.RemoteQuery
	var walk func(n *algebra.Node)
	walk = func(n *algebra.Node) {
		if rq, ok := n.Op.(*algebra.RemoteQuery); ok {
			kept = append(kept, rq)
		}
		for _, k := range n.Kids {
			walk(k)
		}
	}
	walk(plan)
	if len(kept) != members {
		t.Fatalf("%d RemoteQuery operators, want one per member:\n%s", len(kept), plan)
	}
	if writes != len(kept) {
		t.Errorf("%d statements written for %d kept RemoteQuery operators", writes, len(kept))
	}
	for _, rq := range kept {
		if !strings.Contains(rq.SQL, "GROUP BY") || !strings.Contains(rq.SQL, "WHERE") {
			t.Errorf("%s: pushed %q, want the member's partial aggregate", rq.Server, rq.SQL)
		}
	}
}
