package engine

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"dhqp/internal/algebra"
	"dhqp/internal/netsim"
	"dhqp/internal/oracle"
	"dhqp/internal/providers/sqlful"
	"dhqp/internal/schema"
	"dhqp/internal/sqltypes"
)

// planGoldenPath holds the EXPLAIN text of every plan TestPlanGolden
// compiles, each operator line followed by the optimizer's row and cost
// estimates.
const planGoldenPath = "testdata/plans.golden"

// scatterStmt is the repository benchmark's fed_scatter_agg statement.
const scatterStmt = `SELECT o_region, COUNT(o_id), SUM(amount), AVG(amount) FROM orders WHERE amount >= %d AND o_cust < %d GROUP BY o_region`

// buildScatterFixture is fed_scatter_agg's elastic view in miniature:
// members × perMember order rows over four INT columns, the head's cached
// remote cardinalities refreshed after the load.
func buildScatterFixture(t testing.TB, members, perMember int) *Server {
	t.Helper()
	head := NewServer("head", "fed")
	var placements []ShardPlacement
	for i := 0; i < members; i++ {
		m := NewServer("w"+itoa(i), "fed")
		m.MustExec(`CREATE TABLE bootstrap (x INT)`) // the database must exist before forwarded DDL lands
		link := netsim.LAN()
		if err := head.AddLinkedServer("server"+itoa(i+1), sqlful.New(m, link, sqlful.FullSQLCapabilities()), link); err != nil {
			t.Fatal(err)
		}
		placements = append(placements, ShardPlacement{Server: "server" + itoa(i+1), Lo: int64(i * perMember), Hi: int64((i + 1) * perMember)})
	}
	cols := []schema.Column{
		{Name: "o_id", Kind: sqltypes.KindInt}, {Name: "o_cust", Kind: sqltypes.KindInt},
		{Name: "o_region", Kind: sqltypes.KindInt}, {Name: "amount", Kind: sqltypes.KindInt},
	}
	if err := head.CreateElasticView("orders", "o_id", cols, placements); err != nil {
		t.Fatal(err)
	}
	vals := make([]string, 0, members*perMember)
	for i := 0; i < members*perMember; i++ {
		vals = append(vals, fmt.Sprintf("(%d, %d, %d, %d)", i, i%977, i%5, i*37%1000))
	}
	head.MustExec("INSERT INTO orders VALUES " + strings.Join(vals, ", "))
	for i := 0; i < members; i++ {
		head.InvalidateRemoteSchema("server" + itoa(i+1))
	}
	return head
}

// explainText renders a plan as EXPLAIN prints it, each line followed by
// " | rows=<estimate> cost=<estimate>".
func explainText(plan *algebra.Node) string {
	return plan.RenderAnnotated(func(n *algebra.Node) string {
		if n.Est == nil {
			return "| rows=? cost=?"
		}
		return "| rows=" + strconv.FormatFloat(n.Est.Rows, 'g', -1, 64) + " cost=" + strconv.FormatFloat(n.Est.Cost, 'g', -1, 64)
	})
}

// goldenPlans compiles every TestStatementOracle statement (seed 1) in
// every placement, and the scatter statement at 4 and 32 members.
func goldenPlans(t *testing.T) string {
	var b strings.Builder
	db := oracle.NewDB()
	cases := db.Cases(1, oraclePerFamily)
	for _, p := range oraclePlacements(t, db) {
		for i, st := range cases {
			plan, _, _, err := p.s.Plan(st.SQL())
			if err != nil {
				t.Fatalf("%s: %s: %v", p.name, st.SQL(), err)
			}
			fmt.Fprintf(&b, "## %s case %d: %s\n%s", p.name, i, st.SQL(), explainText(plan))
		}
	}
	for _, members := range []int{4, 32} {
		head := buildScatterFixture(t, members, 50)
		sql := fmt.Sprintf(scatterStmt, 100, 1000)
		plan, _, _, err := head.Plan(sql)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "## scatter %d members: %s\n%s", members, sql, explainText(plan))
	}
	return b.String()
}

// sameGoldenLine compares two golden lines: the text before " | " exactly,
// the row and cost estimates within a relative 1e-9.
func sameGoldenLine(got, want string) bool {
	gt, gest, _ := strings.Cut(got, " | ")
	wt, west, _ := strings.Cut(want, " | ")
	if gt != wt {
		return false
	}
	gf, wf := strings.Fields(gest), strings.Fields(west)
	if len(gf) != len(wf) {
		return false
	}
	for i := range gf {
		gk, gv, _ := strings.Cut(gf[i], "=")
		wk, wv, _ := strings.Cut(wf[i], "=")
		if gk != wk {
			return false
		}
		g, gerr := strconv.ParseFloat(gv, 64)
		w, werr := strconv.ParseFloat(wv, 64)
		if gerr != nil || werr != nil {
			if gv != wv {
				return false
			}
			continue
		}
		if math.Abs(g-w) > 1e-9*math.Max(1, math.Abs(w)) {
			return false
		}
	}
	return true
}

// TestPlanGolden holds the optimizer to a recorded set of plans: the same
// operators, the same pushed texts and binds, costs within 1e-9. The file
// changes only with a deliberate change of plan; a throwaway test that
// writes goldenPlans(t) to planGoldenPath regenerates it.
func TestPlanGolden(t *testing.T) {
	want, err := os.ReadFile(planGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	gotLines := strings.Split(goldenPlans(t), "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Errorf("%d golden lines, want %d", len(gotLines), len(wantLines))
	}
	header := ""
	bad := 0
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if strings.HasPrefix(wantLines[i], "## ") {
			header = wantLines[i]
		}
		if !sameGoldenLine(gotLines[i], wantLines[i]) {
			t.Errorf("%s\nline %d:\n got %s\nwant %s", header, i+1, gotLines[i], wantLines[i])
			if bad++; bad > 10 {
				t.Fatal("too many differences")
			}
		}
	}
}
