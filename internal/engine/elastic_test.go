package engine

import (
	"strings"
	"testing"
	"time"

	"dhqp/internal/netsim"
	"dhqp/internal/providers/sqlful"
	"dhqp/internal/schema"
	"dhqp/internal/shardmap"
	"dhqp/internal/sqltypes"
)

// buildElasticHead creates a head server with n linked member servers
// (server1..serverN, each an empty "fed" catalog) and returns the head and
// the members' links.
func buildElasticHead(t *testing.T, n int) (*Server, []*netsim.Link) {
	t.Helper()
	head := NewServer("head", "fed")
	var links []*netsim.Link
	for i := 0; i < n; i++ {
		m := NewServer("member"+itoa(i+1), "fed")
		m.MustExec(`CREATE TABLE bootstrap (x INT)`) // ensure the fed catalog exists
		link := netsim.LAN()
		if err := head.AddLinkedServer("server"+itoa(i+1), sqlful.New(m, link, sqlful.FullSQLCapabilities()), link); err != nil {
			t.Fatal(err)
		}
		links = append(links, link)
	}
	return head, links
}

func orderCols() []schema.Column {
	return []schema.Column{
		{Name: "o_id", Kind: sqltypes.KindInt},
		{Name: "amount", Kind: sqltypes.KindInt, Nullable: true},
	}
}

// elasticChecksum folds every row of the view into an order-independent
// (sum of o_id*31+amount) signature plus a count.
func elasticChecksum(t *testing.T, s *Server, view string) (int64, int64) {
	t.Helper()
	res := q(t, s, `SELECT o_id, amount FROM `+view)
	var sum int64
	for _, r := range res.Rows {
		sum += r[0].Int()*31 + r[1].Int()
	}
	return int64(len(res.Rows)), sum
}

func seedElastic(t *testing.T, head *Server, view string, n int) {
	t.Helper()
	var b strings.Builder
	b.WriteString("INSERT INTO " + view + " VALUES ")
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString("(" + itoa(i) + ", " + itoa(i*7%100) + ")")
	}
	head.MustExec(b.String())
}

func TestElasticViewCreateInsertSelect(t *testing.T) {
	head, _ := buildElasticHead(t, 2)
	err := head.CreateElasticView("orders", "o_id", orderCols(), []ShardPlacement{
		{Server: "", Lo: shardmap.NoLowerBound, Hi: 40},
		{Server: "server1", Lo: 40, Hi: 80},
		{Server: "server2", Lo: 80, Hi: shardmap.NoUpperBound},
	})
	if err != nil {
		t.Fatal(err)
	}
	if v := head.ShardMapVersion(); v != 1 {
		t.Fatalf("version = %d, want 1", v)
	}
	seedElastic(t, head, "orders", 120)

	count, sum := elasticChecksum(t, head, "orders")
	if count != 120 {
		t.Fatalf("count = %d, want 120", count)
	}
	// Point select routes through member pruning.
	res := q(t, head, `SELECT amount FROM orders WHERE o_id = 55`)
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 55*7%100 {
		t.Fatalf("point select rows = %v", res.Rows)
	}
	// Aggregates (including AVG) split into per-member partials.
	res = q(t, head, `SELECT COUNT(o_id) AS n, SUM(amount) AS s, AVG(amount) AS a FROM orders`)
	if len(res.Rows) != 1 {
		t.Fatalf("agg rows = %v", res.Rows)
	}
	var wantSum int64
	for i := 0; i < 120; i++ {
		wantSum += int64(i * 7 % 100)
	}
	if res.Rows[0][0].Int() != 120 || res.Rows[0][1].Int() != wantSum {
		t.Fatalf("agg = %v, want n=120 s=%d", res.Rows[0], wantSum)
	}
	gotAvg, wantAvg := res.Rows[0][2].Float(), float64(wantSum)/120
	if gotAvg < wantAvg-1e-9 || gotAvg > wantAvg+1e-9 {
		t.Fatalf("avg = %v, want %v", gotAvg, wantAvg)
	}
	// DML through the view updates a member row in place.
	if n, err := head.Exec(`UPDATE orders SET amount = 999 WHERE o_id = 55`); err != nil || n != 1 {
		t.Fatalf("update n=%d err=%v", n, err)
	}
	res = q(t, head, `SELECT amount FROM orders WHERE o_id = 55`)
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 999 {
		t.Fatalf("post-update rows = %v", res.Rows)
	}
	if n, err := head.Exec(`DELETE FROM orders WHERE o_id = 55`); err != nil || n != 1 {
		t.Fatalf("delete n=%d err=%v", n, err)
	}
	if c, _ := elasticChecksum(t, head, "orders"); c != 119 {
		t.Fatalf("count after delete = %d", c)
	}
	_ = sum
}

func TestElasticAddShardExtendsCoverage(t *testing.T) {
	head, _ := buildElasticHead(t, 1)
	err := head.CreateElasticView("orders", "o_id", orderCols(), []ShardPlacement{
		{Server: "", Lo: 0, Hi: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Key 150 is uncovered: the insert must fail, not silently vanish.
	if _, err := head.Exec(`INSERT INTO orders VALUES (150, 1)`); err == nil {
		t.Fatal("insert outside coverage succeeded")
	}
	if err := head.AddShard("orders", ShardPlacement{Server: "server1", Lo: 100, Hi: 200}); err != nil {
		t.Fatal(err)
	}
	if v := head.ShardMapVersion(); v != 2 {
		t.Fatalf("version = %d, want 2", v)
	}
	head.MustExec(`INSERT INTO orders VALUES (150, 1)`)
	res := q(t, head, `SELECT amount FROM orders WHERE o_id = 150`)
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestElasticSplitRebalanceRemove(t *testing.T) {
	head, _ := buildElasticHead(t, 2)
	err := head.CreateElasticView("orders", "o_id", orderCols(), []ShardPlacement{
		{Server: "", Lo: 0, Hi: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	seedElastic(t, head, "orders", 100)
	wantCount, wantSum := elasticChecksum(t, head, "orders")

	// Split [0,100) at 50: rows 50..99 move to server1.
	if err := head.SplitShard("orders", 50, ShardPlacement{Server: "server1"}); err != nil {
		t.Fatal(err)
	}
	if c, s := elasticChecksum(t, head, "orders"); c != wantCount || s != wantSum {
		t.Fatalf("after split: count=%d sum=%d, want %d/%d", c, s, wantCount, wantSum)
	}
	// The moved range must answer from the new member.
	res := q(t, head, `SELECT COUNT(o_id) AS n FROM orders WHERE o_id >= 50`)
	if res.Rows[0][0].Int() != 50 {
		t.Fatalf("upper half count = %v", res.Rows[0][0])
	}
	if head.ShardMoves() != 1 {
		t.Fatalf("moves = %d, want 1", head.ShardMoves())
	}

	// Rebalance the lower member onto server2.
	if err := head.RebalanceShard("orders", 10, ShardPlacement{Server: "server2"}); err != nil {
		t.Fatal(err)
	}
	if c, s := elasticChecksum(t, head, "orders"); c != wantCount || s != wantSum {
		t.Fatalf("after rebalance: count=%d sum=%d, want %d/%d", c, s, wantCount, wantSum)
	}

	// Remove the upper member: its rows merge into the neighbor.
	if err := head.RemoveShard("orders", 50); err != nil {
		t.Fatal(err)
	}
	if c, s := elasticChecksum(t, head, "orders"); c != wantCount || s != wantSum {
		t.Fatalf("after remove: count=%d sum=%d, want %d/%d", c, s, wantCount, wantSum)
	}
	infos := head.ShardMapInfo()
	if len(infos) != 1 {
		t.Fatalf("members after remove = %v", infos)
	}
	if infos[0].Server != "server2" || infos[0].Range != "[0,100)" {
		t.Fatalf("surviving member = %+v", infos[0])
	}
	// Writes still route correctly on the final topology.
	head.MustExec(`UPDATE orders SET amount = 0 WHERE o_id = 99`)
	res = q(t, head, `SELECT SUM(amount) AS s FROM orders WHERE o_id = 99`)
	if res.Rows[0][0].Int() != 0 {
		t.Fatalf("post-move update = %v", res.Rows[0][0])
	}
}

func TestElasticSkippedMembersNameShardRanges(t *testing.T) {
	head, links := buildElasticHead(t, 2)
	err := head.CreateElasticView("orders", "o_id", orderCols(), []ShardPlacement{
		{Server: "server1", Lo: 0, Hi: 50},
		{Server: "server2", Lo: 50, Hi: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	seedElastic(t, head, "orders", 100)
	const query = `SELECT o_id, amount FROM orders`
	q(t, head, query) // warm plan + schema
	head.Configure(func(c *Config) { c.BreakerThreshold, c.BreakerCooldown = 1, time.Hour })
	head.Configure(func(c *Config) { c.RemoteRetries = 1 })
	head.Configure(func(c *Config) { c.RetryBackoff = time.Microsecond })
	links[1].SetDown(true)
	if _, err := head.Query(query, nil); err == nil {
		t.Fatal("query with a downed member succeeded")
	}
	// Degraded mode: the skipped partition is reported against the shard
	// map — member range and map version — not a CREATE VIEW member list.
	head.Configure(func(c *Config) { c.PartialResults = true })
	res := q(t, head, query)
	if len(res.Skipped) != 1 {
		t.Fatalf("skipped = %v", res.Skipped)
	}
	if want := "server2[50,100)@v1"; res.Skipped[0] != want {
		t.Fatalf("skipped label = %q, want %q", res.Skipped[0], want)
	}
	if len(res.Rows) != 50 {
		t.Fatalf("partial rows = %d", len(res.Rows))
	}
}

func TestElasticAggSplitDisableKnob(t *testing.T) {
	head, _ := buildElasticHead(t, 1)
	err := head.CreateElasticView("orders", "o_id", orderCols(), []ShardPlacement{
		{Server: "", Lo: 0, Hi: 50},
		{Server: "server1", Lo: 50, Hi: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	seedElastic(t, head, "orders", 100)
	agg := `SELECT COUNT(o_id) AS n, SUM(amount) AS s, AVG(amount) AS a FROM orders`
	with := q(t, head, agg)
	head.Configure(func(c *Config) { c.DisableAggSplit = true })
	without := q(t, head, agg)
	for i := 0; i < 2; i++ {
		if with.Rows[0][i].Int() != without.Rows[0][i].Int() {
			t.Fatalf("col %d: %v vs %v", i, with.Rows[0], without.Rows[0])
		}
	}
	if with.Rows[0][2].Float() != without.Rows[0][2].Float() {
		t.Fatalf("avg: %v vs %v", with.Rows[0], without.Rows[0])
	}
}

// Regression: split/add mutations used to append the new member at the
// tail, so splitting any member that was not last (or adding a range below
// existing coverage) produced an unsorted list that failed map validation.
func TestElasticSplitMiddleMemberAndPrependShard(t *testing.T) {
	head, _ := buildElasticHead(t, 3)
	err := head.CreateElasticView("orders", "o_id", orderCols(), []ShardPlacement{
		{Server: "server1", Lo: 100, Hi: 200},
		{Server: "server2", Lo: 200, Hi: 300},
	})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString("INSERT INTO orders VALUES ")
	for i := 100; i < 300; i++ {
		if i > 100 {
			b.WriteString(", ")
		}
		b.WriteString("(" + itoa(i) + ", " + itoa(i*7%100) + ")")
	}
	head.MustExec(b.String())
	wantCount, wantSum := elasticChecksum(t, head, "orders")

	// Split the FIRST member (not the last): [100,200) -> [100,150) + [150,200).
	if err := head.SplitShard("orders", 150, ShardPlacement{Server: "server3"}); err != nil {
		t.Fatal(err)
	}
	if c, s := elasticChecksum(t, head, "orders"); c != wantCount || s != wantSum {
		t.Fatalf("after middle split: count=%d sum=%d want %d/%d", c, s, wantCount, wantSum)
	}
	res := q(t, head, `SELECT amount FROM orders WHERE o_id = 160`)
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 160*7%100 {
		t.Fatalf("post-split point select = %v", res.Rows)
	}

	// Add a shard BELOW all existing coverage.
	if err := head.AddShard("orders", ShardPlacement{Server: "server3", Lo: 0, Hi: 100}); err != nil {
		t.Fatal(err)
	}
	head.MustExec(`INSERT INTO orders VALUES (5, 42)`)
	res = q(t, head, `SELECT amount FROM orders WHERE o_id = 5`)
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 42 {
		t.Fatalf("prepended-shard point select = %v", res.Rows)
	}
	// Placements handed to CreateElasticView in reverse order also work.
	err = head.CreateElasticView("orders2", "o_id", orderCols(), []ShardPlacement{
		{Server: "server2", Lo: 50, Hi: 100},
		{Server: "server1", Lo: 0, Hi: 50},
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestViewWritesRefreshMemberStatistics loads an elastic view whose members
// the head first saw empty: the rows written through the view pass the
// auto-update threshold, so the next compile costs the members at their
// loaded size and pushes the filter to them, with no InvalidateRemoteSchema.
func TestViewWritesRefreshMemberStatistics(t *testing.T) {
	head, _ := buildElasticHead(t, 4)
	var places []ShardPlacement
	for i := 0; i < 4; i++ {
		places = append(places, ShardPlacement{Server: "server" + itoa(i+1), Lo: int64(i * 100), Hi: int64(i*100 + 100)})
	}
	places[0].Lo, places[3].Hi = shardmap.NoLowerBound, shardmap.NoUpperBound
	if err := head.CreateElasticView("orders", "o_id", orderCols(), places); err != nil {
		t.Fatal(err)
	}
	seedElastic(t, head, "orders", 400)
	plan, _, _, err := head.Plan(`SELECT o_id, amount FROM orders WHERE amount < 10`)
	if err != nil {
		t.Fatal(err)
	}
	text := plan.String()
	if strings.Contains(text, "Filter") || strings.Count(text, "WHERE") != 4 {
		t.Errorf("the filter is not pushed to the four members:\n%s", text)
	}
	if res := q(t, head, `SELECT o_id, amount FROM orders WHERE amount < 10`); len(res.Rows) != 40 {
		t.Errorf("%d rows, want 40", len(res.Rows))
	}
}
