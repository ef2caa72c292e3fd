package engine

import (
	"strings"
	"testing"

	"dhqp/internal/netsim"
	"dhqp/internal/sqltypes"
)

// liftFixture links a head to one member holding a 300-row customer table
// (c_nation = c_id % 3) and returns both servers and the link.
func liftFixture(t *testing.T) (*Server, *Server, *netsim.Link) {
	t.Helper()
	head := NewServer("head", "appdb")
	member := NewServer("member", "salesdb")
	member.MustExec(`CREATE TABLE customer (c_id INT PRIMARY KEY, c_nation INT, c_name VARCHAR(32))`)
	var b strings.Builder
	b.WriteString("INSERT INTO customer VALUES ")
	for i := 0; i < 300; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString("(" + itoa(i) + ", " + itoa(i%3) + ", 'c" + itoa(i) + "')")
	}
	member.MustExec(b.String())
	link := netsimLAN()
	if err := head.AddLinkedServer("remote0", sqlfulNew(member, link), link); err != nil {
		t.Fatal(err)
	}
	return head, member, link
}

// TestLiftedConstantsHitMemberPlanCache: statements that differ only in a
// predicate constant ship one text, so the member compiles it once and
// every later statement hits its plan cache — with the right answer each
// time.
func TestLiftedConstantsHitMemberPlanCache(t *testing.T) {
	head, member, _ := liftFixture(t)
	run := func(lo int) {
		t.Helper()
		res, err := head.Query(`SELECT c_nation, COUNT(*) AS n FROM remote0.salesdb.dbo.customer WHERE c_id >= `+itoa(lo)+` GROUP BY c_nation ORDER BY c_nation`, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 3 {
			t.Fatalf("c_id >= %d: rows = %v", lo, res.Rows)
		}
		for _, row := range res.Rows {
			want := int64(0)
			for id := lo; id < 300; id++ {
				if int64(id%3) == row[0].Int() {
					want++
				}
			}
			if row[1].Int() != want {
				t.Errorf("c_id >= %d, nation %d: count %d, want %d", lo, row[0].Int(), row[1].Int(), want)
			}
		}
	}
	run(0)
	member.ResetPlanCacheStats()
	for lo := 1; lo < 20; lo++ {
		run(lo * 7)
	}
	if st := member.PlanCacheStats(); st.Misses != 0 || st.Hits != 19 {
		t.Errorf("member plan cache after 19 new literals: %+v, want 19 hits and no miss", st)
	}
}

// TestRequestBytesCountNamedParameters: a pushed statement ships its text
// and 16 bytes for each parameter the text names — lifted constants and the
// statement parameters it references — and none for the statement's other
// parameters.
func TestRequestBytesCountNamedParameters(t *testing.T) {
	head, _, link := liftFixture(t)
	query := `SELECT c_nation, COUNT(*) AS n FROM remote0.salesdb.dbo.customer WHERE c_id < @p AND c_nation = 1 GROUP BY c_nation`
	params := map[string]sqltypes.Value{"p": sqltypes.NewInt(-1), "unused": sqltypes.NewInt(7), "other": sqltypes.NewString("x")}
	if _, err := head.Query(query, params); err != nil {
		t.Fatal(err)
	}
	plan, _, _, err := head.Plan(query)
	if err != nil {
		t.Fatal(err)
	}
	rq := findRemoteQuery(plan)
	if rq == nil {
		t.Fatalf("statement not pushed:\n%s", plan)
	}
	if len(rq.Params) != 1 || rq.Params[0] != "p" || len(rq.Binds) != 1 {
		t.Fatalf("params %v binds %v, want [p] and one bind", rq.Params, rq.Binds)
	}
	link.Reset()
	res, err := head.Query(query, params)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("rows = %v, want none", res.Rows)
	}
	// No row comes back, so the one round trip carries only the request.
	st := link.Stats()
	if want := int64(len(rq.SQL) + 16*2); st.Calls != 1 || st.Bytes != want {
		t.Errorf("link: %d calls, %d bytes; want 1 call, %d bytes", st.Calls, st.Bytes, want)
	}
}

// TestStatementParamNamedLikeLiftedOne: a user parameter named like a
// generated one keeps its own value; the lifted constant moves to another
// name.
func TestStatementParamNamedLikeLiftedOne(t *testing.T) {
	head, _, _ := liftFixture(t)
	query := `SELECT c_nation, COUNT(*) AS n FROM remote0.salesdb.dbo.customer WHERE c_nation <> 2 AND c_nation = @__k0 GROUP BY c_nation`
	res, err := head.Query(query, map[string]sqltypes.Value{"__k0": sqltypes.NewInt(1)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 1 || res.Rows[0][1].Int() != 100 {
		t.Errorf("rows = %v, want [[1 100]]", res.Rows)
	}
	plan, _, _, err := head.Plan(query)
	if err != nil {
		t.Fatal(err)
	}
	rq := findRemoteQuery(plan)
	if rq == nil || len(rq.Binds) != 1 || rq.Binds[0].Name == "__k0" {
		t.Fatalf("pushed statement %+v: the lifted name must avoid @__k0\n%s", rq, plan)
	}
}

// TestUnionAllOfBranchesDifferingInConstant: two pushed branches whose
// texts differ only in a lifted constant stay two branches.
func TestUnionAllOfBranchesDifferingInConstant(t *testing.T) {
	head, _, _ := liftFixture(t)
	query := `SELECT COUNT(*) AS n FROM remote0.salesdb.dbo.customer WHERE c_nation < 1
		UNION ALL SELECT COUNT(*) AS n FROM remote0.salesdb.dbo.customer WHERE c_nation < 2`
	plan, _, _, err := head.Plan(query)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(plan.String(), "RemoteQuery("); got != 2 {
		t.Fatalf("%d pushed branches, want 2:\n%s", got, plan)
	}
	// The two branches run in the parallel exchange, so either may arrive
	// first: UNION ALL promises a multiset.
	res := q(t, head, query)
	if got := canonical(res, false); len(got) != 2 || got[0] != "(100)" || got[1] != "(200)" {
		t.Errorf("rows = %v, want (100) and (200) in either order", res.Rows)
	}
}
