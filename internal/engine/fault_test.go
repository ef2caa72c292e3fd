package engine

import (
	"context"
	"errors"
	stdruntime "runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"dhqp/internal/circuit"
	"dhqp/internal/netsim"
	"dhqp/internal/providers/sqlful"
)

// TestFanOutSurvivesTransientFaults is the headline acceptance scenario: a
// seeded 10% transient fault rate on one member's link, and a federated
// UNION ALL over three servers still completes — via retries — with results
// row-identical to the fault-free run, both serially and in parallel.
func TestFanOutSurvivesTransientFaults(t *testing.T) {
	head, links := buildFanOut(t, 3, 500)
	const query = `SELECT y, amount FROM all_sales`
	// Fault-free baseline (also warms the plan cache and remote schemas so
	// the faulty runs exercise the executor, not metadata fetch).
	want := sortedPairs(q(t, head, query))
	if len(want) != 1500 {
		t.Fatalf("baseline rows = %d", len(want))
	}

	links[1].SetFaults(netsim.Faults{Seed: 9, TransientProb: 0.10})
	for _, dop := range []int{1, 0} {
		head.Configure(func(c *Config) { c.MaxDOP = dop })
		res := q(t, head, query)
		got := sortedPairs(res)
		if len(got) != len(want) {
			t.Fatalf("MaxDOP=%d: rows = %d, want %d (retries=%d)", dop, len(got), len(want), res.Retries)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("MaxDOP=%d: row %d = %v, want %v", dop, i, got[i], want[i])
			}
		}
		if len(res.Skipped) != 0 {
			t.Errorf("MaxDOP=%d: skipped = %v, want none", dop, res.Skipped)
		}
	}
	if faults := links[1].Stats().Faults; faults == 0 {
		t.Error("fault plan injected nothing; the test proved nothing")
	}
}

// TestRetriesExhaustedNamesServer checks that when the retry budget runs
// out, the surfaced error identifies the failing linked server and branch.
func TestRetriesExhaustedNamesServer(t *testing.T) {
	head, links := buildFanOut(t, 2, 10)
	q(t, head, `SELECT y, amount FROM all_sales`) // warm plan + schema
	links[1].SetFaults(netsim.Faults{Seed: 1, TransientProb: 1})
	head.Configure(func(c *Config) { c.MaxDOP = 1 })
	_, err := head.Query(`SELECT y, amount FROM all_sales`, nil)
	if err == nil {
		t.Fatal("query over an always-failing link succeeded")
	}
	msg := err.Error()
	if !strings.Contains(msg, "server2") {
		t.Errorf("error does not name the failing server: %v", err)
	}
	if !strings.Contains(msg, "attempts exhausted") {
		t.Errorf("error does not report retry exhaustion: %v", err)
	}
}

// TestBreakerFailFastAndPartialResults runs the fail-forever scenario: a
// downed member trips its breaker, subsequent queries fail fast without
// touching the link, and SetPartialResults(true) turns them into degraded
// answers listing the skipped partition.
func TestBreakerFailFastAndPartialResults(t *testing.T) {
	head, links := buildFanOut(t, 3, 50)
	const query = `SELECT y, amount FROM all_sales`
	q(t, head, query) // warm plan + schema
	head.Configure(func(c *Config) { c.BreakerThreshold, c.BreakerCooldown = 2, time.Hour })
	head.Configure(func(c *Config) { c.RemoteRetries = 2 })
	head.Configure(func(c *Config) { c.RetryBackoff = time.Microsecond })
	links[0].SetDown(true)

	if _, err := head.Query(query, nil); err == nil {
		t.Fatal("query with a downed member succeeded")
	}
	if st := head.BreakerState("server1"); st != circuit.Open {
		t.Fatalf("breaker state after failures = %v, want open", st)
	}

	// Fail fast: with the breaker open (and the cooldown far away), the
	// downed server is not contacted at all.
	before := links[0].Stats().Calls
	if _, err := head.Query(query, nil); err == nil {
		t.Fatal("fail-fast query succeeded")
	}
	if after := links[0].Stats().Calls; after != before {
		t.Errorf("open breaker still contacted the server: %d -> %d calls", before, after)
	}

	// Degraded mode: survivors answer, the dead partition is reported.
	head.Configure(func(c *Config) { c.PartialResults = true })
	for _, dop := range []int{1, 0} {
		head.Configure(func(c *Config) { c.MaxDOP = dop })
		res, err := head.Query(query, nil)
		if err != nil {
			t.Fatalf("MaxDOP=%d: partial-results query failed: %v", dop, err)
		}
		if len(res.Rows) != 100 {
			t.Errorf("MaxDOP=%d: partial rows = %d, want 100 (two surviving members)", dop, len(res.Rows))
		}
		if len(res.Skipped) != 1 || res.Skipped[0] != "server1" {
			t.Errorf("MaxDOP=%d: skipped = %v, want [server1]", dop, res.Skipped)
		}
	}
}

// TestBreakerRecovery drives the half-open probe path: once the server
// comes back and the cooldown elapses, a probe closes the breaker and full
// results resume.
func TestBreakerRecovery(t *testing.T) {
	head, links := buildFanOut(t, 2, 20)
	const query = `SELECT y, amount FROM all_sales`
	q(t, head, query)
	head.Configure(func(c *Config) { c.BreakerThreshold, c.BreakerCooldown = 2, 20*time.Millisecond })
	head.Configure(func(c *Config) { c.RemoteRetries = 2 })
	head.Configure(func(c *Config) { c.RetryBackoff = time.Microsecond })

	links[0].SetDown(true)
	if _, err := head.Query(query, nil); err == nil {
		t.Fatal("query with a downed member succeeded")
	}
	if st := head.BreakerState("server1"); st != circuit.Open {
		t.Fatalf("breaker state = %v, want open", st)
	}

	links[0].SetDown(false)
	time.Sleep(40 * time.Millisecond) // past the cooldown
	res, err := head.Query(query, nil)
	if err != nil {
		t.Fatalf("query after recovery failed: %v", err)
	}
	if len(res.Rows) != 40 || len(res.Skipped) != 0 {
		t.Errorf("after recovery: rows = %d, skipped = %v", len(res.Rows), res.Skipped)
	}
	if st := head.BreakerState("server1"); st != circuit.Closed {
		t.Errorf("breaker state after successful probe = %v, want closed", st)
	}
}

// TestQueryTimeoutAborts checks SetQueryTimeout: a query over a link that
// really sleeps aborts around the deadline — instead of sleeping the full
// transfer out — and leaks no goroutines.
func TestQueryTimeoutAborts(t *testing.T) {
	head := NewServer("head", "fed")
	m := NewServer("member", "fed")
	m.MustExec(`CREATE TABLE sales (y INT, amount INT)`)
	var b strings.Builder
	b.WriteString("INSERT INTO sales VALUES ")
	for j := 0; j < 500; j++ {
		if j > 0 {
			b.WriteString(", ")
		}
		b.WriteString("(1990, " + itoa(j) + ")")
	}
	m.MustExec(b.String())
	link := &netsim.Link{LatencyPerCall: 300 * time.Millisecond, BytesPerSecond: 1e6}
	if err := head.AddLinkedServer("server1", sqlful.New(m, link, sqlful.FullSQLCapabilities()), link); err != nil {
		t.Fatal(err)
	}
	const query = `SELECT y, amount FROM server1.fed.dbo.sales`
	q(t, head, query) // warm plan, schema and stats over the fast (non-sleeping) link

	baseline := stdruntime.NumGoroutine()
	link.Sleep = true
	head.Configure(func(c *Config) { c.QueryTimeout = 50 * time.Millisecond })
	start := time.Now()
	_, err := head.Query(query, nil)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("query outlived its deadline without error")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error = %v, want a deadline error", err)
	}
	// 500 rows at 64 per metered batch is 8 round trips of 300ms+: without
	// cancellation the query takes seconds. With it, it must abort around
	// the 50ms deadline (generous slack for slow CI).
	if elapsed > time.Second {
		t.Errorf("deadline query took %v", elapsed)
	}

	// No goroutine leaks: the exchange, the only goroutines a statement
	// starts, winds down.
	deadline := time.Now().Add(5 * time.Second)
	for stdruntime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d > baseline %d", stdruntime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Clearing the timeout restores normal execution.
	link.Sleep = false
	head.Configure(func(c *Config) { c.QueryTimeout = 0 })
	if res := q(t, head, query); len(res.Rows) != 500 {
		t.Errorf("rows after clearing timeout = %d", len(res.Rows))
	}
}

// TestConcurrentQueriesWithFaults hammers the retry + breaker machinery
// from several client goroutines over faulty links; run with -race.
func TestConcurrentQueriesWithFaults(t *testing.T) {
	head, links := buildFanOut(t, 3, 50)
	q(t, head, `SELECT y, amount FROM all_sales`)
	links[0].SetFaults(netsim.Faults{Seed: 7, TransientProb: 0.05})
	links[2].SetFaults(netsim.Faults{Seed: 11, TransientProb: 0.05})
	head.Configure(func(c *Config) { c.RetryBackoff = time.Microsecond })
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				res, err := head.Query(`SELECT y, amount FROM all_sales`, nil)
				if err != nil {
					errs <- err
					return
				}
				if len(res.Rows) != 150 {
					errs <- errRowCount(len(res.Rows))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestViewDMLFailureNamesServer checks the distributed-DML abort path: when
// one member of a partitioned-view statement fails, the coordinator error
// names that server.
func TestViewDMLFailureNamesServer(t *testing.T) {
	head, links := buildFanOut(t, 2, 5)
	head.Configure(func(c *Config) { c.RemoteRetries = 1 })
	links[1].SetDown(true)
	_, err := head.Exec(`UPDATE all_sales SET amount = 0`)
	if err == nil {
		t.Fatal("view DML over a downed member succeeded")
	}
	if !strings.Contains(err.Error(), "server2") {
		t.Errorf("DML error does not name the failed server: %v", err)
	}
}
