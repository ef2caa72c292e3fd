package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"dhqp/internal/netsim"
	"dhqp/internal/providers/simplep"
	"dhqp/internal/schema"
	"dhqp/internal/sqltypes"
)

// shipWindowFixture is the fed_row_ship shape in miniature: a 32-member
// elastic view of keysPer keys per member (server1..server32, two spare
// linked servers for topology changes) joined to a local customer table.
const (
	shipMembers = 32
	shipKeysPer = 50
	shipCust    = 100

	shipStmt = `SELECT o.o_id, c.c_name, o.amount FROM orders o JOIN cust c ON o.o_cust = c.c_id WHERE o.o_id >= @lo AND o.o_id < @hi`
	// The same rows with the range written so that no conjunct compares the
	// shard key itself to a parameter: no startup filter can be derived, the
	// predicate still reaches every member.
	shipStmtNoStartup = `SELECT o.o_id, c.c_name, o.amount FROM orders o JOIN cust c ON o.o_cust = c.c_id WHERE o.o_id + 0 >= @lo AND o.o_id + 0 < @hi`
)

func buildShipWindowFixture(t *testing.T) (*Server, []*netsim.Link) {
	t.Helper()
	head, links := buildElasticHead(t, shipMembers+2)
	var placements []ShardPlacement
	for i := 0; i < shipMembers; i++ {
		placements = append(placements, ShardPlacement{Server: "server" + itoa(i+1), Lo: int64(i * shipKeysPer), Hi: int64((i + 1) * shipKeysPer)})
	}
	cols := []schema.Column{
		{Name: "o_id", Kind: sqltypes.KindInt}, {Name: "o_cust", Kind: sqltypes.KindInt},
		{Name: "amount", Kind: sqltypes.KindInt, Nullable: true},
	}
	if err := head.CreateElasticView("orders", "o_id", cols, placements); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for start := 0; start < shipMembers*shipKeysPer; start += 400 {
		b.Reset()
		b.WriteString("INSERT INTO orders VALUES ")
		for i := start; i < start+400; i++ {
			if i > start {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%d, %d, %d)", i, i*13%shipCust, i*7%100)
		}
		head.MustExec(b.String())
	}
	head.MustExec(`CREATE TABLE cust (c_id INT PRIMARY KEY, c_name VARCHAR(24))`)
	b.Reset()
	b.WriteString("INSERT INTO cust VALUES ")
	for i := 0; i < shipCust; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, 'cust-%03d')", i, i)
	}
	head.MustExec(b.String())
	for i := range links {
		head.InvalidateRemoteSchema("server" + itoa(i+1))
	}
	return head, links
}

// contacted lists the servers whose links carried a call since the reset.
func contacted(links []*netsim.Link) []string {
	var out []string
	for i, l := range links {
		if l.Stats().Calls > 0 {
			out = append(out, "server"+itoa(i+1))
		}
	}
	return out
}

// shipOwners lists the servers holding a member whose range meets [lo, hi)
// under the live shard map.
func shipOwners(t *testing.T, head *Server, lo, hi int64) []string {
	t.Helper()
	seen := map[string]bool{}
	for _, m := range head.ShardMapInfo() {
		var mlo, mhi int64
		if _, err := fmt.Sscanf(m.Range, "[%d,%d)", &mlo, &mhi); err != nil {
			t.Fatalf("member range %q: %v", m.Range, err)
		}
		if lo < mhi && mlo < hi && lo < hi {
			seen[m.Server] = true
		}
	}
	var out []string
	for i := 0; i < shipMembers+2; i++ {
		if s := "server" + itoa(i+1); seen[s] {
			out = append(out, s)
		}
	}
	return out
}

// TestRangeStartupPrunesToOwners: the shipped-window statement returns the
// rows the unpruned form returns and contacts exactly the members whose
// ranges meet the window — before and after the shard map changes under a
// cached plan.
func TestRangeStartupPrunesToOwners(t *testing.T) {
	head, links := buildShipWindowFixture(t)
	reset := func() {
		for _, l := range links {
			l.Reset()
		}
	}
	check := func(lo, hi int64) {
		t.Helper()
		params := map[string]sqltypes.Value{"lo": sqltypes.NewInt(lo), "hi": sqltypes.NewInt(hi)}
		// Compiling reads every member's statistics; count the execution.
		if _, err := head.Query(shipStmt, params); err != nil {
			t.Fatalf("[%d,%d): %v", lo, hi, err)
		}
		reset()
		got, err := head.Query(shipStmt, params)
		if err != nil {
			t.Fatalf("[%d,%d): %v", lo, hi, err)
		}
		reached := contacted(links)
		reset()
		want, err := head.Query(shipStmtNoStartup, params)
		if err != nil {
			t.Fatalf("[%d,%d) unpruned: %v", lo, hi, err)
		}
		if n := len(contacted(links)); n < shipMembers {
			t.Fatalf("[%d,%d): the unpruned form reached %d servers — it is pruning too, so it proves nothing", lo, hi, n)
		}
		if int64(len(got.Rows)) != max(hi-lo, 0) || !sameRowMultiset(got.Rows, want.Rows) {
			t.Errorf("[%d,%d): %d rows, unpruned %d, want %d and the same multiset", lo, hi, len(got.Rows), len(want.Rows), max(hi-lo, 0))
		}
		if owners := shipOwners(t, head, lo, hi); lo < hi && strings.Join(reached, ",") != strings.Join(owners, ",") {
			t.Errorf("[%d,%d): contacted %v, owners are %v", lo, hi, reached, owners)
		}
	}
	windows := func(seed int64) {
		t.Helper()
		rng := rand.New(rand.NewSource(seed))
		const total = shipMembers * shipKeysPer
		for i := 0; i < 12; i++ {
			w := int64(1 + rng.Intn(3*shipKeysPer))
			lo := int64(rng.Intn(total - int(w) + 1))
			check(lo, lo+w)
		}
		check(100, 150)       // exactly one member
		check(149, 151)       // one key either side of a boundary
		check(150, 150)       // empty window on a boundary
		check(0, total)       // everything
		check(total-1, total) // last key
		check(120, 110)       // @lo > @hi: no rows, whoever is asked
	}
	windows(1)

	// A NULL bound qualifies no row and reaches no member.
	reset()
	res, err := head.Query(shipStmt, map[string]sqltypes.Value{"lo": sqltypes.Null, "hi": sqltypes.NewInt(100)})
	if err != nil || len(res.Rows) != 0 {
		t.Fatalf("NULL bound: %d rows, %v", len(res.Rows), err)
	}
	if reached := contacted(links); len(reached) != 0 {
		t.Errorf("NULL bound contacted %v", reached)
	}

	// The plan above is cached. Split [100,150) at 125 onto a spare server
	// and move [200,250) off server5: the predicates must follow the map.
	if err := head.SplitShard("orders", 125, ShardPlacement{Server: "server33"}); err != nil {
		t.Fatal(err)
	}
	check(120, 130)
	if got := shipOwners(t, head, 126, 140); len(got) != 1 || got[0] != "server33" {
		t.Fatalf("after split, [126,140) is owned by %v, want server33", got)
	}
	check(126, 140)
	check(100, 125)
	if err := head.RebalanceShard("orders", 210, ShardPlacement{Server: "server34"}); err != nil {
		t.Fatal(err)
	}
	if got := shipOwners(t, head, 205, 215); len(got) != 1 || got[0] != "server34" {
		t.Fatalf("after rebalance, [205,215) is owned by %v, want server34", got)
	}
	check(205, 215)
	check(190, 260)
	windows(2)
}

// TestRemoteMemberModeGrid puts remote members under the batch-size grid:
// one row a batch must read the same rows, in the same order, out of
// shipped batches that larger sizes consume whole — through pushed statements
// behind startup filters, through the serial and the parallel exchange, and
// through a command-less provider's scan narrowed to a reordered pair of
// its columns (vectors moved, not rows rebuilt).
func TestRemoteMemberModeGrid(t *testing.T) {
	head, _ := buildShipWindowFixture(t)
	files := simplep.New(netsim.LAN())
	csv := "sku:int,price:float,cat,qty:int\n"
	for i := 0; i < 40; i++ {
		csv += fmt.Sprintf("%d,%d.5,c%d,%d\n", i, i, i%3, 100-i)
	}
	if err := files.LoadCSV("items", csv); err != nil {
		t.Fatal(err)
	}
	if err := head.AddLinkedServer("files", files, nil); err != nil {
		t.Fatal(err)
	}
	params := map[string]sqltypes.Value{"lo": sqltypes.NewInt(130), "hi": sqltypes.NewInt(270)}
	run := func(sql string) (*Result, error) { return head.Query(sql, params) }
	ordered := []string{
		shipStmt + ` ORDER BY o.o_id`,
		`SELECT amount, o_id FROM orders WHERE o_id >= @lo AND o_id < @hi ORDER BY o_id`,
		`SELECT qty, sku FROM files.x.dbo.items`,
	}
	for _, sql := range ordered[:2] {
		if plan, _, _, err := head.Plan(sql); err != nil || !strings.Contains(plan.String(), "StartupFilter") {
			t.Fatalf("%s: no startup filter in the plan (%v):\n%v", sql, err, plan)
		}
	}
	if plan, _, _, err := head.Plan(ordered[2]); err != nil || !strings.Contains(plan.String(), "RemoteScan") {
		t.Fatalf("%s: not a remote scan (%v):\n%v", ordered[2], err, plan)
	}
	checkBatchGrid(t, head, ordered, run)
	// One member after another, the members' own order is the result's.
	head.Configure(func(c *Config) { c.MaxDOP = 1 })
	checkBatchGrid(t, head, []string{shipStmt, `SELECT o_id, amount FROM orders WHERE o_id >= @lo AND o_id < @hi`}, run)
}

// TestExplainRendersPrunedBranches: EXPLAIN ANALYZE says which branches a
// startup predicate kept closed instead of reporting them as zero-row
// executions.
func TestExplainRendersPrunedBranches(t *testing.T) {
	head, _ := buildShipWindowFixture(t)
	ea, err := head.ExplainAnalyze(shipStmt, map[string]sqltypes.Value{"lo": sqltypes.NewInt(110), "hi": sqltypes.NewInt(140)})
	if err != nil {
		t.Fatal(err)
	}
	out := ea.String()
	if got := strings.Count(out, "pruned at startup"); got != shipMembers-1 {
		t.Errorf("%d branches render as pruned at startup, want %d:\n%s", got, shipMembers-1, out)
	}
	opened := 0
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "StartupFilter") && strings.Contains(line, "actual=30 opens=1") {
			opened++
		}
	}
	if opened != 1 {
		t.Errorf("%d startup filters render as opened with 30 rows, want 1:\n%s", opened, out)
	}
}
