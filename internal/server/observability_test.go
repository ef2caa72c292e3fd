package server

import (
	"context"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dhqp/internal/metrics"
	"dhqp/internal/sqltypes"
	"dhqp/internal/telemetry"
)

// TestFederatedTraceTree is the tentpole acceptance check: a traced query
// through the serving layer over a 3-member federation must come back with
// one coherent span tree — the coordinator's statement span at the root,
// a remote-call span per member underneath, and each member's own
// statement span nested under its remote call.
func TestFederatedTraceTree(t *testing.T) {
	// Nonzero (simulated) link latency: with free links the optimizer
	// prefers raw rowset scans; with real costs it ships SQL to members,
	// which is the plan shape whose trace spans members.
	head, links := buildFederation(t, 3, 5, time.Millisecond, false)
	srv, addr := startServer(t, head, Options{})
	defer srv.Close()
	c := dial(t, addr)
	defer c.Close()

	c.SetTrace(true)
	// Warm the plan cache, then zero both telemetry sides: links also
	// count setup-time traffic (schema fetches, remote statistics) that
	// statement-scoped metrics deliberately exclude, so parity below is
	// asserted over one cached execution.
	if _, err := c.Query(`SELECT y, SUM(amount) AS total FROM all_sales GROUP BY y`, nil); err != nil {
		t.Fatal(err)
	}
	for _, l := range links {
		l.Reset()
	}
	head.ResetMetrics()
	// An aggregate over the view pushes SQL to each member (not a bare
	// rowset scan), so every member executes a statement of its own.
	res, err := c.Query(`SELECT y, SUM(amount) AS total FROM all_sales GROUP BY y`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	if res.TraceID == "" {
		t.Fatal("traced query must carry a trace ID")
	}
	if len(res.Spans) == 0 {
		t.Fatal("traced query must return spans")
	}

	byID := make(map[uint64]telemetry.TraceSpan, len(res.Spans))
	servers := map[string]bool{}
	var roots []telemetry.TraceSpan
	for _, sp := range res.Spans {
		byID[sp.SpanID] = sp
		servers[sp.Server] = true
		if sp.ParentID == 0 {
			roots = append(roots, sp)
		}
	}
	if len(roots) != 1 || roots[0].Server != "head" || roots[0].Name != "statement" {
		t.Fatalf("want exactly one root span (head statement), got %+v", roots)
	}
	for _, want := range []string{"head", "w0", "w1", "w2"} {
		if !servers[want] {
			t.Fatalf("span tree misses server %s; have %v\n%s",
				want, servers, telemetry.RenderSpanTree(res.Spans))
		}
	}
	// Every member statement span must nest under a head-side remote-call
	// span, which in turn nests under the root: one tree, not four.
	for _, sp := range res.Spans {
		if sp.Server == "head" || sp.Name != "statement" {
			continue
		}
		parent, ok := byID[sp.ParentID]
		if !ok {
			t.Fatalf("member span %+v has dangling parent", sp)
		}
		if parent.Server != "head" || !strings.HasPrefix(parent.Name, "remote ") {
			t.Fatalf("member statement nests under %+v, want a head remote-call span", parent)
		}
		if parent.ParentID != roots[0].SpanID {
			t.Fatalf("remote-call span %+v not rooted under the statement", parent)
		}
	}

	// Parity: the metrics registry's per-server remote-call counters must
	// agree with the links' own telemetry.
	var linkCalls int64
	for _, l := range links {
		linkCalls += l.Stats().Calls
	}
	var metricCalls float64
	for _, smp := range head.Metrics().Samples() {
		if smp.Name == "dhqp_remote_calls_total" {
			metricCalls += smp.Value
		}
	}
	if int64(metricCalls) != linkCalls {
		t.Fatalf("dhqp_remote_calls_total = %v, link telemetry counted %d", metricCalls, linkCalls)
	}
	if linkCalls == 0 {
		t.Fatal("federated query must make remote calls")
	}

	// Untraced queries stay span-free.
	c.SetTrace(false)
	res, err = c.Query(`SELECT y, SUM(amount) AS total FROM all_sales GROUP BY y`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.TraceID != "" || len(res.Spans) != 0 {
		t.Fatalf("untraced query returned trace %q with %d spans", res.TraceID, len(res.Spans))
	}
}

// TestWaitStatsDMVOverWire asserts the wait-stats DMV, queried over TCP,
// reports the REMOTE_CALL waits the federated statement just accrued.
func TestWaitStatsDMVOverWire(t *testing.T) {
	head, _ := buildFederation(t, 2, 3, time.Millisecond, false)
	srv, addr := startServer(t, head, Options{})
	defer srv.Close()
	c := dial(t, addr)
	defer c.Close()

	if _, err := c.Query(`SELECT y, amount FROM all_sales`, nil); err != nil {
		t.Fatal(err)
	}
	// A parameter range that meets one of the two members' CHECK domains:
	// one startup filter opens its member, the other keeps its closed.
	window := map[string]sqltypes.Value{"lo": sqltypes.NewInt(1990), "hi": sqltypes.NewInt(1991)}
	if res, err := c.Query(`SELECT y, amount FROM all_sales WHERE y >= @lo AND y < @hi`, window); err != nil || len(res.Rows) != 3 {
		t.Fatalf("range over the wire: %v rows, err %v", res, err)
	}
	// A local DML whose WHERE has nothing sargable: 4 rows read, 1 changed.
	head.MustExec(`CREATE TABLE acct (id INT PRIMARY KEY, bal INT)`)
	head.MustExec(`INSERT INTO acct VALUES (1, 10), (2, 20), (3, 30), (4, 40)`)
	if n, err := c.Exec(`UPDATE acct SET bal = 0 WHERE bal = 30`, nil); err != nil || n != 1 {
		t.Fatalf("update over the wire: %d rows, err %v", n, err)
	}
	// Its SELECT-side twin: a primary-key point read reads the one row (of
	// a table large enough that the optimizer prefers the seek).
	head.MustExec(`CREATE TABLE keyed (id INT PRIMARY KEY, v INT)`)
	var vals []string
	for i := 0; i < 64; i++ {
		vals = append(vals, "("+strconv.Itoa(i)+", 0)")
	}
	head.MustExec(`INSERT INTO keyed VALUES ` + strings.Join(vals, ", "))
	rowsRead := head.Metrics().Counter("dhqp_exec_rows_read_total", "")
	read0 := rowsRead.Value()
	if res, err := c.Query(`SELECT v FROM keyed WHERE id = @id`, map[string]sqltypes.Value{"id": sqltypes.NewInt(2)}); err != nil || len(res.Rows) != 1 {
		t.Fatalf("point read over the wire: %v, err %v", res, err)
	}
	if n := rowsRead.Value() - read0; n != 1 {
		t.Fatalf("a primary-key point SELECT read %d rows, want 1", n)
	}
	res, err := c.Query(`SELECT * FROM sys.dm_os_wait_stats`, nil)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, row := range res.Rows {
		if row[0].Str() == metrics.WaitRemoteCall && row[1].Int() > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("wait-stats DMV misses REMOTE_CALL waits: %s", res.Display())
	}

	perf, err := c.Query(`SELECT * FROM sys.dm_os_performance_counters`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(perf.Rows) == 0 {
		t.Fatal("performance-counters DMV returned no rows")
	}
	seen := false
	counters := map[string]float64{}
	for _, row := range perf.Rows {
		if row[0].Str() == "dhqp_statements_total" && row[2].Float() > 0 {
			seen = true
		}
		if strings.HasPrefix(row[0].Str(), "dhqp_dml_rows_") || strings.HasPrefix(row[0].Str(), "dhqp_exec_") {
			counters[row[0].Str()] = row[2].Float()
		}
	}
	if !seen {
		t.Fatal("performance-counters DMV misses dhqp_statements_total")
	}
	if counters["dhqp_dml_rows_examined_total"] != 4 || counters["dhqp_dml_rows_affected_total"] != 1 {
		t.Fatalf("performance-counters DMV shows DML rows %v, want 4 examined and 1 affected", counters)
	}
	if p, o := counters["dhqp_exec_startup_pruned_total"], counters["dhqp_exec_startup_opened_total"]; p != 1 || o != 1 {
		t.Fatalf("performance-counters DMV shows %v startup filters pruned and %v opened, want 1 and 1", p, o)
	}
	// Rows per root batch is derivable: both counters are present and move.
	if b, r := counters["dhqp_exec_batches_total"], counters["dhqp_exec_batch_rows_total"]; b < 1 || r < b {
		t.Fatalf("performance-counters DMV shows %v batches holding %v rows", b, r)
	}
}

// TestMetricsHTTPShutdownDuringDrain closes the metrics endpoint while the
// serving layer drains — the fedsql shutdown path — with a scrape in
// flight, and asserts every goroutine (sessions, HTTP conns, the serving
// loop) unwinds.
func TestMetricsHTTPShutdownDuringDrain(t *testing.T) {
	baseline := runtime.NumGoroutine()
	head, _ := buildFederation(t, 2, 3, 0, false)
	srv, addr := startServer(t, head, Options{})
	h, err := metrics.ListenAndServe("127.0.0.1:0", head.Metrics(), srv.Healthy)
	if err != nil {
		t.Fatal(err)
	}

	c := dial(t, addr)
	if _, err := c.Query(`SELECT y, amount FROM all_sales`, nil); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + h.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz before drain: %d", resp.StatusCode)
	}

	// Drain the server and shut the metrics endpoint down concurrently,
	// with scrapes still arriving while both unwind.
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		if resp, err := http.Get("http://" + h.Addr() + "/metrics"); err == nil {
			resp.Body.Close()
		}
	}()
	go func() {
		defer wg.Done()
		srv.Close()
	}()
	go func() {
		defer wg.Done()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := h.Close(ctx); err != nil {
			t.Error(err)
		}
	}()
	wg.Wait()
	c.Close()
	waitGoroutines(t, baseline)
}
