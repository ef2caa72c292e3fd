package engine

import (
	"strings"
	"sync"
	"testing"
	"time"

	"dhqp/internal/algebra"
	"dhqp/internal/netsim"
	"dhqp/internal/providers/sqlful"
	"dhqp/internal/telemetry"
)

// sumLinkStats totals the per-server Calls/Bytes of an execution's link
// metrics.
func sumLinkStats(links []telemetry.LinkStats) (calls, bytes int64) {
	for _, l := range links {
		calls += l.Calls
		bytes += l.Bytes
	}
	return
}

// TestExplainAnalyzeFanOut is the acceptance check for the telemetry
// tentpole: on a 3-member partitioned-view query, ExplainAnalyze must show
// per-operator estimated and actual rows, and per-linked-server calls and
// bytes that sum exactly to the netsim link totals.
func TestExplainAnalyzeFanOut(t *testing.T) {
	head, links := buildFanOut(t, 3, 100)
	const query = `SELECT y, amount FROM all_sales`

	// Warm up: cache remote schema, histograms and the plan so the analyzed
	// execution's link traffic is execution traffic only.
	q(t, head, query)
	for _, l := range links {
		l.Reset()
	}

	ea, err := head.ExplainAnalyze(query, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ea.Stats == nil {
		t.Fatal("ExplainAnalyze returned nil Stats")
	}
	if ea.Stats.Rows != 300 {
		t.Errorf("Stats.Rows = %d, want 300", ea.Stats.Rows)
	}

	// Every plan node carries the optimizer's estimate and its actuals.
	var walk func(n *algebra.Node)
	walk = func(n *algebra.Node) {
		if n.Est == nil {
			t.Errorf("node %s: no estimate annotation", n.Op.OpName())
		}
		if ea.Actual(n) == nil {
			t.Errorf("node %s: no runtime counters", n.Op.OpName())
		}
		for _, k := range n.Kids {
			walk(k)
		}
	}
	walk(ea.Plan)

	// The root surfaces all 300 rows; the fan-out leaves 100 each.
	root := ea.Actual(ea.Plan)
	if root.ActualRows() != 300 {
		t.Errorf("root actual rows = %d, want 300", root.ActualRows())
	}

	// Per-server link metrics must match the raw link counters exactly:
	// the links were reset, so this execution is their entire traffic.
	if len(ea.Stats.Links) != 3 {
		t.Fatalf("link stats for %d servers, want 3: %+v", len(ea.Stats.Links), ea.Stats.Links)
	}
	for i, ls := range ea.Stats.Links {
		want := "server" + itoa(i+1)
		if ls.Server != want {
			t.Errorf("links[%d].Server = %q, want %q", i, ls.Server, want)
		}
		raw := links[i].Stats()
		if ls.Calls != raw.Calls || ls.Bytes != raw.Bytes {
			t.Errorf("%s: tracked calls/bytes = %d/%d, link totals = %d/%d",
				want, ls.Calls, ls.Bytes, raw.Calls, raw.Bytes)
		}
		if ls.Calls == 0 || ls.Bytes == 0 {
			t.Errorf("%s: no traffic attributed", want)
		}
	}

	// The rendered report shows estimated vs. actual and the link table.
	out := ea.String()
	for _, want := range []string{"est=", "actual=", "links:", "server1", "phases:", "execute="} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestExplainAnalyzeRemoteScanCardinality checks estimated vs. actual rows
// on a plain remote scan: with remote statistics on, the estimate matches
// the actual row count.
func TestExplainAnalyzeRemoteScanCardinality(t *testing.T) {
	local, _, _ := linkTwo(t)
	const query = `SELECT c_name FROM remote0.salesdb.dbo.customer`
	q(t, local, query)

	ea, err := local.ExplainAnalyze(query, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := ea.Actual(ea.Plan).ActualRows(); got != 40 {
		t.Errorf("actual rows = %d, want 40", got)
	}
	if ea.Plan.Est == nil {
		t.Fatal("no root estimate")
	}
	if est := ea.Plan.Est.Rows; est < 35 || est > 45 {
		t.Errorf("estimated rows = %.0f, want ~40 (remote histogram)", est)
	}
}

// TestExplainAnalyzeBatchLoopJoin checks the batched key-lookup join's
// actuals: the join surfaces exactly one row per probe key.
func TestExplainAnalyzeBatchLoopJoin(t *testing.T) {
	head := buildBatchFixture(t, 1000, 24000, sqlful.FullSQLCapabilities(), netsim.WAN())
	q(t, head, batchProbeQuery)

	ea, err := head.ExplainAnalyze(batchProbeQuery, nil)
	if err != nil {
		t.Fatal(err)
	}
	bj := ea.FindOp("BatchLoopJoin")
	if bj == nil {
		t.Fatalf("no BatchLoopJoin in plan:\n%s", ea.Plan.String())
	}
	if got := ea.Actual(bj).ActualRows(); got != 1000 {
		t.Errorf("BatchLoopJoin actual rows = %d, want 1000", got)
	}
	if bj.Est == nil || bj.Est.Rows <= 0 {
		t.Errorf("BatchLoopJoin estimate missing: %+v", bj.Est)
	}
	if calls, _ := sumLinkStats(ea.Stats.Links); calls == 0 {
		t.Error("no link calls attributed to the batched join")
	}
}

// TestExplainAnalyzeUnderFaults runs the fan-out under 10% injected
// transient faults: retries must absorb the faults without double-counting
// actual rows, and the fault-handling events must surface per server. The
// fetch size is cut to 16 rows so each 100-row member is seven fetches —
// enough round trips for the 10% plan to fire, and to fire mid-stream.
func TestExplainAnalyzeUnderFaults(t *testing.T) {
	head, links := buildFanOut(t, 3, 100)
	head.Configure(func(c *Config) { c.BatchSize = 16 })
	head.Configure(func(c *Config) { c.RemoteRetries = 8 })
	head.Configure(func(c *Config) { c.BreakerThreshold, c.BreakerCooldown = 1000, time.Hour })
	const query = `SELECT y, amount FROM all_sales`
	q(t, head, query)
	for i, l := range links {
		l.SetFaults(netsim.Faults{Seed: int64(i + 1), TransientProb: 0.10})
		l.Reset()
	}

	ea, err := head.ExplainAnalyze(query, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Replayed rows are discarded below the shims: actuals stay exact.
	if ea.Stats.Rows != 300 {
		t.Errorf("rows = %d, want 300 under faults", ea.Stats.Rows)
	}
	if got := ea.Actual(ea.Plan).ActualRows(); got != 300 {
		t.Errorf("root actual rows = %d, want exactly 300 (no retry double-count)", got)
	}
	if ea.Stats.Retries == 0 {
		t.Error("no retries recorded at 10% fault rate")
	}
	var faults, retries int64
	for _, ls := range ea.Stats.Links {
		faults += ls.Faults
		retries += ls.Retries
	}
	if faults == 0 {
		t.Error("no link faults attributed")
	}
	if retries != ea.Stats.Retries {
		t.Errorf("per-server retries sum to %d, total says %d", retries, ea.Stats.Retries)
	}
	// Link parity holds under faults too (faulted calls count on both sides).
	for i, ls := range ea.Stats.Links {
		raw := links[i].Stats()
		if ls.Calls != raw.Calls || ls.Bytes != raw.Bytes || ls.Faults != raw.Faults {
			t.Errorf("%s: tracked %d/%d/%d vs link %d/%d/%d (calls/bytes/faults)",
				ls.Server, ls.Calls, ls.Bytes, ls.Faults, raw.Calls, raw.Bytes, raw.Faults)
		}
	}
}

// TestQueryStatsRegistry checks the dm_exec_query_stats-style aggregation:
// repeated executions of one cached plan fold into a single row, and the
// registry stays consistent under concurrent queries (run with -race).
func TestQueryStatsRegistry(t *testing.T) {
	local, _, _ := linkTwo(t)
	const query = `SELECT c_name FROM remote0.salesdb.dbo.customer WHERE c_nation = 1`

	var lastBytes int64
	for i := 0; i < 3; i++ {
		res := q(t, local, query)
		if res.Stats == nil {
			t.Fatal("Result.Stats is nil")
		}
		if hit := res.Stats.PlanCacheHit; hit != (i > 0) {
			t.Errorf("run %d: PlanCacheHit = %v", i, hit)
		}
		lastBytes = res.Stats.LinkBytes()
		if lastBytes == 0 {
			t.Errorf("run %d: no link bytes on a remote query", i)
		}
	}
	rows := local.QueryStats()
	var row *telemetry.QueryStatRow
	for i := range rows {
		if rows[i].QueryText == query {
			row = &rows[i]
		}
	}
	if row == nil {
		t.Fatalf("query not in registry: %+v", rows)
	}
	if row.ExecutionCount != 3 {
		t.Errorf("ExecutionCount = %d, want 3", row.ExecutionCount)
	}
	if row.TotalRows != 3*row.LastRows || row.LastRows == 0 {
		t.Errorf("TotalRows = %d, LastRows = %d", row.TotalRows, row.LastRows)
	}
	// The remote executions are deterministic: equal bytes per run.
	if row.TotalLinkBytes != 3*lastBytes {
		t.Errorf("TotalLinkBytes = %d, want %d", row.TotalLinkBytes, 3*lastBytes)
	}

	// Concurrent executions of another statement aggregate without races.
	const conc = `SELECT n_name FROM nation WHERE n_id = 2`
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if _, err := local.Query(conc, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, r := range local.QueryStats() {
		if r.QueryText == conc && r.ExecutionCount != 40 {
			t.Errorf("concurrent ExecutionCount = %d, want 40", r.ExecutionCount)
		}
	}

	local.ResetQueryStats()
	if got := local.QueryStats(); len(got) != 0 {
		t.Errorf("registry not cleared: %+v", got)
	}
}

// TestCollectStatsSpans: with SetCollectStats on, Result.Stats carries the
// pipeline phase spans — compile phases on the compiling run, execute-only
// on cache hits. Off (the default), no spans are recorded.
func TestCollectStatsSpans(t *testing.T) {
	s := NewServer("local", "db")
	s.MustExec(`CREATE TABLE t (a INT)`)
	s.MustExec(`INSERT INTO t VALUES (1), (2)`)

	res := q(t, s, `SELECT a FROM t`)
	if len(res.Stats.Spans) != 0 {
		t.Errorf("spans recorded with collection off: %+v", res.Stats.Spans)
	}

	s.SetCollectStats(true)
	if !s.Config().CollectStats {
		t.Fatal("CollectStats not set")
	}
	res = q(t, s, `SELECT a FROM t WHERE a > 1`)
	names := map[string]bool{}
	for _, sp := range res.Stats.Spans {
		names[sp.Name] = true
	}
	for _, want := range []string{"parse", "bind", "optimize", "decode", "execute", "serialize"} {
		if !names[want] {
			t.Errorf("compiling run missing %q span: %+v", want, res.Stats.Spans)
		}
	}
	res = q(t, s, `SELECT a FROM t WHERE a > 1`) // cache hit
	names = map[string]bool{}
	for _, sp := range res.Stats.Spans {
		names[sp.Name] = true
	}
	if names["parse"] || !names["execute"] {
		t.Errorf("cache-hit spans = %+v, want execute only", res.Stats.Spans)
	}
}

// TestExplainAnalyzeRemoteSQLText: a pushed-down remote aggregation records
// the decoded statement text per linked server.
func TestExplainAnalyzeRemoteSQLText(t *testing.T) {
	local, _, _ := linkTwo(t)
	const query = `SELECT COUNT(*) AS n FROM remote0.salesdb.dbo.customer WHERE c_nation = 1`
	ea, err := local.ExplainAnalyze(query, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ea.RemoteSQL) == 0 {
		t.Fatalf("no remote SQL decoded:\n%s", ea.Plan.String())
	}
	if ea.RemoteSQL[0].Server != "remote0" {
		t.Errorf("remote SQL server = %q", ea.RemoteSQL[0].Server)
	}
	if !strings.Contains(strings.ToUpper(ea.RemoteSQL[0].Text), "COUNT") {
		t.Errorf("decoded text = %q, want pushed aggregation", ea.RemoteSQL[0].Text)
	}
}

// TestDisplayAlignment: cells pad to their column's width.
func TestDisplayAlignment(t *testing.T) {
	s := NewServer("local", "db")
	s.MustExec(`CREATE TABLE people (name VARCHAR(20), n INT)`)
	s.MustExec(`INSERT INTO people VALUES ('ann', 1), ('bartholomew', 22222)`)
	out := q(t, s, `SELECT name, n FROM people ORDER BY n`).Display()
	want := "name        | n\n" +
		"ann         | 1\n" +
		"bartholomew | 22222\n"
	if out != want {
		t.Errorf("Display:\n%q\nwant:\n%q", out, want)
	}
}

// TestBatchTransportFaultParity sweeps fault seeds over a multi-fetch
// fan-out: whichever fetches the 10% plan hits, rows and actuals stay exact
// (a replayed fetch is discarded whole, never counted), every faulted round
// trip is one retry, and the statement's per-link attribution equals the
// links' own counters.
func TestBatchTransportFaultParity(t *testing.T) {
	head, links := buildFanOut(t, 3, 100)
	head.Configure(func(c *Config) { c.BatchSize = 16 }) // seven fetches per member
	head.Configure(func(c *Config) { c.RemoteRetries = 8 })
	head.Configure(func(c *Config) { c.BreakerThreshold, c.BreakerCooldown = 1000, time.Hour })
	const query = `SELECT y, amount FROM all_sales`
	q(t, head, query)
	midStream := 0
	for seed := int64(1); seed <= 40; seed++ {
		for i, l := range links {
			l.SetFaults(netsim.Faults{Seed: seed*10 + int64(i), TransientProb: 0.10})
			l.Reset()
		}
		ea, err := head.ExplainAnalyze(query, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if ea.Stats.Rows != 300 || ea.Actual(ea.Plan).ActualRows() != 300 {
			t.Errorf("seed %d: rows = %d, root actual = %d, want 300 and 300", seed, ea.Stats.Rows, ea.Actual(ea.Plan).ActualRows())
		}
		var faults, retries, shipped int64
		for i, ls := range ea.Stats.Links {
			raw := links[i].Stats()
			if ls.Calls != raw.Calls || ls.Rows != raw.Rows || ls.Bytes != raw.Bytes || ls.Faults != raw.Faults {
				t.Errorf("seed %d %s: tracked %d/%d/%d/%d vs link %d/%d/%d/%d (calls/rows/bytes/faults)", seed, ls.Server,
					ls.Calls, ls.Rows, ls.Bytes, ls.Faults, raw.Calls, raw.Rows, raw.Bytes, raw.Faults)
			}
			faults += ls.Faults
			retries += ls.Retries
			shipped += ls.Rows
		}
		if retries != ea.Stats.Retries || retries != faults {
			t.Errorf("seed %d: %d faults, %d per-server retries, %d statement retries: want all equal", seed, faults, retries, ea.Stats.Retries)
		}
		// Rows shipped beyond the 300 delivered (and the three statements)
		// are replays of fetches that had already crossed: a mid-stream fault.
		if shipped > 303 {
			midStream++
		}
	}
	if midStream < 10 {
		t.Errorf("only %d of 40 seeds faulted mid-stream: the sweep is not exercising restart-and-discard", midStream)
	}
}
