package engine

import (
	"strings"
	"testing"

	"dhqp/internal/algebra"
	"dhqp/internal/netsim"
	"dhqp/internal/oledb"
	"dhqp/internal/providers/sqlful"
)

func netsimLAN() *netsim.Link { return netsim.LAN() }

func sqlfulNew(target *Server, link *netsim.Link) oledb.DataSource {
	return sqlful.New(target, link, sqlful.FullSQLCapabilities())
}

// remoteFixture builds a local server linked to one remote holding a
// 2000-row customer table (large enough that pushdown clearly wins).
func remoteFixture(t *testing.T) *Server {
	t.Helper()
	local := NewServer("local", "appdb")
	remote := NewServer("remoteSrv", "salesdb")
	remote.MustExec(`CREATE TABLE customer (c_id INT PRIMARY KEY, c_nation INT, c_name VARCHAR(32))`)
	var b strings.Builder
	names := []string{"ann", "bob", "cat", "dan"}
	for start := 0; start < 2000; start += 500 {
		b.Reset()
		b.WriteString("INSERT INTO customer VALUES ")
		for i := start; i < start+500; i++ {
			if i > start {
				b.WriteString(", ")
			}
			b.WriteString("(" + itoa(i) + ", " + itoa(i%3) + ", '" + names[i%4] + itoa(i) + "')")
		}
		remote.MustExec(b.String())
	}
	link := netsimLAN()
	prov := sqlfulNew(remote, link)
	if err := local.AddLinkedServer("remote0", prov, link); err != nil {
		t.Fatal(err)
	}
	return local
}

func TestTopOrderByPushdown(t *testing.T) {
	local := remoteFixture(t)
	query := `SELECT TOP 3 c_name, c_id FROM remote0.salesdb.dbo.customer ORDER BY c_id DESC`
	plan, _, _, err := local.Plan(query)
	if err != nil {
		t.Fatal(err)
	}
	s := plan.String()
	if !strings.Contains(s, "RemoteQuery") || !strings.Contains(s, "TOP 3") {
		t.Errorf("TOP/ORDER BY not pushed:\n%s", s)
	}
	res := q(t, local, query)
	if len(res.Rows) != 3 || res.Rows[0][1].Int() != 1999 {
		t.Errorf("rows = %v", res.Rows)
	}
	// Descending order preserved end to end.
	if !(res.Rows[0][1].Int() > res.Rows[1][1].Int() && res.Rows[1][1].Int() > res.Rows[2][1].Int()) {
		t.Errorf("order violated: %v", res.Rows)
	}
}

func TestDistinctAggregatePushdown(t *testing.T) {
	local := remoteFixture(t)
	query := `SELECT COUNT(DISTINCT c_nation) AS n FROM remote0.salesdb.dbo.customer`
	plan, _, _, err := local.Plan(query)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.String(), "DISTINCT") {
		t.Errorf("DISTINCT aggregate not pushed:\n%s", plan.String())
	}
	res := q(t, local, query)
	if res.Rows[0][0].Int() != 3 {
		t.Errorf("distinct nations = %v", res.Rows[0][0])
	}
}

func TestHavingOverRemoteGroupBy(t *testing.T) {
	local := remoteFixture(t)
	query := `SELECT c_nation, COUNT(*) AS n FROM remote0.salesdb.dbo.customer
		GROUP BY c_nation HAVING COUNT(*) > 666 ORDER BY c_nation`
	res := q(t, local, query)
	// 2000 customers over 3 nations: nation 0 and 1 have 667, nation 2 has 666.
	if len(res.Rows) != 2 || res.Rows[0][0].Int() != 0 || res.Rows[0][1].Int() != 667 {
		t.Errorf("rows = %v", res.Rows)
	}
	// The whole shape (group-by + having via derived table) is decodable
	// for a SQL-92-full target.
	plan, _, _, _ := local.Plan(query)
	if !strings.Contains(plan.String(), "RemoteQuery") {
		t.Logf("note: HAVING shape evaluated locally:\n%s", plan.String())
	}
}

func TestInListPushdown(t *testing.T) {
	local := remoteFixture(t)
	query := `SELECT c_id FROM remote0.salesdb.dbo.customer WHERE c_id IN (1, 5, 9)`
	plan, _, _, err := local.Plan(query)
	if err != nil {
		t.Fatal(err)
	}
	rq := findRemoteQuery(plan)
	if rq == nil || !strings.Contains(rq.SQL, "IN (@__k0, @__k1, @__k2)") {
		t.Fatalf("IN list not pushed:\n%s", plan.String())
	}
	if len(rq.Binds) != 3 {
		t.Fatalf("binds = %v", rq.Binds)
	}
	for i, want := range []int64{1, 5, 9} {
		if b := rq.Binds[i]; b.Name != "__k"+itoa(i) || b.Val.Int() != want {
			t.Errorf("bind %d = %s %v, want %d", i, b.Name, b.Val, want)
		}
	}
	if lit := rq.LiteralSQL(); !strings.Contains(lit, "IN (1, 5, 9)") {
		t.Errorf("literal SQL = %q", lit)
	}
	if got := len(q(t, local, query).Rows); got != 3 {
		t.Errorf("rows = %d", got)
	}
}

// findRemoteQuery returns the first pushed statement in a plan, or nil.
func findRemoteQuery(n *algebra.Node) *algebra.RemoteQuery {
	if rq, ok := n.Op.(*algebra.RemoteQuery); ok {
		return rq
	}
	for _, k := range n.Kids {
		if rq := findRemoteQuery(k); rq != nil {
			return rq
		}
	}
	return nil
}

func TestLikePushdown(t *testing.T) {
	local := remoteFixture(t)
	query := `SELECT c_id FROM remote0.salesdb.dbo.customer WHERE c_name LIKE 'ann%'`
	plan, _, _, err := local.Plan(query)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.String(), "LIKE") || !strings.Contains(plan.String(), "RemoteQuery") {
		t.Errorf("LIKE not pushed:\n%s", plan.String())
	}
	if got := len(q(t, local, query).Rows); got != 500 {
		t.Errorf("rows = %d", got)
	}
}

func TestUnionAllAcrossServersStaysLocal(t *testing.T) {
	local, _, _ := linkTwo(t)
	// UNION ALL of local and remote relations must evaluate locally (the
	// decoder has no UNION corollary).
	query := `SELECT n_id AS k FROM nation UNION ALL SELECT c_id AS k FROM remote0.salesdb.dbo.customer`
	res := q(t, local, query)
	if len(res.Rows) != 43 {
		t.Errorf("rows = %d", len(res.Rows))
	}
}

// TestExistsSubqueryPushedAsRemoteExists: a fully-remote EXISTS shape
// decodes back to a correlated EXISTS on the linked server (§4.1.4's
// delayed subquery unrolling regaining its SQL corollary).
func TestExistsSubqueryPushedAsRemoteExists(t *testing.T) {
	local := remoteFixture(t)
	query := `SELECT c1.c_name FROM remote0.salesdb.dbo.customer c1
		WHERE c1.c_nation = 0 AND EXISTS (
			SELECT * FROM remote0.salesdb.dbo.customer c2
			WHERE c2.c_id = c1.c_id + 1 AND c2.c_nation = 1)`
	plan, _, _, err := local.Plan(query)
	if err != nil {
		t.Fatal(err)
	}
	s := plan.String()
	if !strings.Contains(s, "RemoteQuery") || !strings.Contains(s, "EXISTS (SELECT 1") {
		t.Errorf("EXISTS shape not pushed:\n%s", s)
	}
	res := q(t, local, query)
	// Customers with c_nation 0 are ids ≡ 0 mod 3; id+1 always has nation
	// 1, so every nation-0 customer except id 1999's successor qualifies.
	if len(res.Rows) == 0 {
		t.Error("no rows")
	}
	// Cross-check against the unpushed evaluation on the remote directly.
	want := q(t, local, `SELECT COUNT(*) AS n FROM remote0.salesdb.dbo.customer c1
		WHERE c1.c_nation = 0 AND EXISTS (
			SELECT * FROM remote0.salesdb.dbo.customer c2
			WHERE c2.c_id = c1.c_id + 1 AND c2.c_nation = 1)`)
	if int64(len(res.Rows)) != want.Rows[0][0].Int() {
		t.Errorf("rows = %d, count = %v", len(res.Rows), want.Rows[0][0])
	}
}
