package server

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"dhqp/internal/engine"
	"dhqp/internal/netsim"
	"dhqp/internal/providers/sqlful"
	"dhqp/internal/sqltypes"
)

// buildFederation assembles a head plus `members` member servers, each
// holding one year-partition of a sales table under the all_sales view,
// reached over netsim links (sleep=true makes latency real wall time, so
// queries are slow enough to cancel, kill and saturate).
func buildFederation(t *testing.T, members, rowsPer int, latency time.Duration, sleep bool) (*engine.Server, []*netsim.Link) {
	t.Helper()
	head := engine.NewServer("head", "fed")
	var arms []string
	var links []*netsim.Link
	for i := 0; i < members; i++ {
		yr := 1990 + i
		m := engine.NewServer(fmt.Sprintf("w%d", i), "fed")
		m.MustExec(fmt.Sprintf(
			`CREATE TABLE sales (y INT NOT NULL CHECK (y >= %d AND y < %d), amount INT)`, yr, yr+1))
		var b strings.Builder
		b.WriteString("INSERT INTO sales VALUES ")
		for j := 0; j < rowsPer; j++ {
			if j > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%d, %d)", yr, i*rowsPer+j)
		}
		m.MustExec(b.String())
		link := &netsim.Link{LatencyPerCall: latency, BytesPerSecond: 100e6, Sleep: sleep}
		name := fmt.Sprintf("server%d", i+1)
		if err := head.AddLinkedServer(name, sqlful.New(m, link, sqlful.FullSQLCapabilities()), link); err != nil {
			t.Fatal(err)
		}
		arms = append(arms, fmt.Sprintf("SELECT y, amount FROM %s.fed.dbo.sales", name))
		links = append(links, link)
	}
	head.MustExec(`CREATE VIEW all_sales AS ` + strings.Join(arms, " UNION ALL "))
	return head, links
}

// startServer wraps an engine in a serving layer on a loopback port.
func startServer(t *testing.T, eng *engine.Server, opt Options) (*Server, string) {
	t.Helper()
	srv := New(eng, opt)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return srv, addr.String()
}

func dial(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func sortedPairs(rows *Result) [][2]int64 {
	out := make([][2]int64, len(rows.Rows))
	for i, row := range rows.Rows {
		out[i] = [2]int64{row[0].Int(), row[1].Int()}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// waitGoroutines waits for the goroutine count to return to baseline after
// a drain; a stall means the serving layer leaked.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutine leak after drain: %d live, baseline %d\n%s",
		runtime.NumGoroutine(), baseline, buf[:n])
}

// TestServeBasic covers the happy path end to end: handshake, a federated
// SELECT with params, DML, the DMVs and the info frame.
func TestServeBasic(t *testing.T) {
	eng, _ := buildFederation(t, 2, 10, 0, false)
	want, err := eng.Query(`SELECT y, amount FROM all_sales`, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv, addr := startServer(t, eng, Options{})
	defer srv.Close()
	c := dial(t, addr)
	defer c.Close()
	if c.SessionID() == 0 || c.ServerName() != "head" {
		t.Fatalf("welcome: id=%d server=%q", c.SessionID(), c.ServerName())
	}

	res, err := c.Query(`SELECT y, amount FROM all_sales`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := sortedPairs(res); len(got) != len(want.Rows) {
		t.Fatalf("rows over the wire = %d, want %d", len(got), len(want.Rows))
	}
	res, err = c.Query(`SELECT amount FROM all_sales WHERE y = @y AND amount < @hi`,
		map[string]sqltypes.Value{"y": sqltypes.NewInt(1990), "hi": sqltypes.NewInt(3)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("parameterized rows = %d, want 3", len(res.Rows))
	}

	n, err := c.Exec(`CREATE TABLE note (id INT PRIMARY KEY, body VARCHAR(32))`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n, err = c.Exec(`INSERT INTO note VALUES (1, 'hello'), (2, 'world')`, nil); err != nil || n != 2 {
		t.Fatalf("insert: n=%d err=%v", n, err)
	}

	for _, dmv := range []string{
		`SELECT * FROM sys.dm_exec_sessions`,
		`SELECT * FROM sys.dm_exec_requests`,
		`SELECT * FROM sys.dm_exec_query_stats`,
		`SELECT * FROM sys.dm_exec_cached_plans`,
	} {
		if _, err := c.Query(dmv, nil); err != nil {
			t.Fatalf("%s: %v", dmv, err)
		}
	}
	res, err = c.Query(`SELECT * FROM sys.dm_exec_sessions`, nil)
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("dm_exec_sessions rows = %d err = %v, want 1 row", len(res.Rows), err)
	}

	info, err := c.ServerInfo()
	if err != nil {
		t.Fatal(err)
	}
	if info.Sessions != 1 || info.Draining {
		t.Fatalf("info = %+v", info)
	}
}

// TestConcurrentSessionsAdmission is the acceptance scenario: 12 concurrent
// TCP sessions fire federated scans at a 3-member setup with 2 admission
// slots and a 2-deep wait queue, one member link carrying seeded transient
// faults. Every client must get either row-identical results or a typed
// busy rejection — nothing else — and the burst must overflow admission.
func TestConcurrentSessionsAdmission(t *testing.T) {
	eng, links := buildFederation(t, 3, 40, 5*time.Millisecond, true)
	want, err := eng.Query(`SELECT y, amount FROM all_sales`, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantPairs := sortedPairs(&Result{Rows: want.Rows})
	links[1].SetFaults(netsim.Faults{Seed: 11, TransientProb: 0.05})

	srv, addr := startServer(t, eng, Options{
		MaxConcurrent: 2,
		MaxQueue:      2,
		QueueTimeout:  5 * time.Second,
	})
	defer srv.Close()

	const clients = 12
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		busy    int
		ok      int
		other   []error
		barrier = make(chan struct{})
	)
	for i := 0; i < clients; i++ {
		c := dial(t, addr)
		defer c.Close()
		wg.Add(1)
		go func(c *Client) {
			defer wg.Done()
			<-barrier
			res, err := c.Query(`SELECT y, amount FROM all_sales`, nil)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				got := sortedPairs(res)
				if len(got) != len(wantPairs) {
					other = append(other, fmt.Errorf("success with %d rows, want %d", len(got), len(wantPairs)))
					return
				}
				for i := range wantPairs {
					if got[i] != wantPairs[i] {
						other = append(other, fmt.Errorf("row %d = %v, want %v", i, got[i], wantPairs[i]))
						return
					}
				}
				ok++
			case IsBusy(err):
				busy++
			default:
				other = append(other, err)
			}
		}(c)
	}
	close(barrier)
	wg.Wait()
	for _, err := range other {
		t.Error(err)
	}
	if ok == 0 {
		t.Error("no client got rows")
	}
	if busy == 0 {
		t.Error("no client was shed busy: admission never overflowed")
	}
	t.Logf("clients=%d ok=%d busy=%d", clients, ok, busy)

	// The server must be healthy after the burst: every session can still
	// run the query to completion sequentially.
	c := dial(t, addr)
	defer c.Close()
	res, err := c.Query(`SELECT y, amount FROM all_sales`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := sortedPairs(res); len(got) != len(wantPairs) {
		t.Fatalf("post-burst rows = %d, want %d", len(got), len(wantPairs))
	}
}

// TestKillMidQuery: one session's long scan is killed by a peer via
// KILL <session_id>; the victim gets a cancelled-class KILLED error but its
// session survives, and an uninvolved concurrent session is unaffected.
func TestKillMidQuery(t *testing.T) {
	eng, _ := buildFederation(t, 3, 20, 60*time.Millisecond, true)
	if _, err := eng.Query(`SELECT y, amount FROM all_sales`, nil); err != nil {
		t.Fatal(err)
	}
	srv, addr := startServer(t, eng, Options{MaxConcurrent: 4})
	defer srv.Close()

	victim := dial(t, addr)
	defer victim.Close()
	killer := dial(t, addr)
	defer killer.Close()
	bystander := dial(t, addr)
	defer bystander.Close()

	victimErr := make(chan error, 1)
	go func() {
		_, err := victim.Query(`SELECT y, amount FROM all_sales`, nil)
		victimErr <- err
	}()
	bystanderErr := make(chan error, 1)
	go func() {
		_, err := bystander.Query(`SELECT y, amount FROM all_sales`, nil)
		bystanderErr <- err
	}()

	// Wait via the requests DMV (which bypasses admission) until the
	// victim's statement is running, then shoot it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("victim statement never showed up in dm_exec_requests")
		}
		res, err := killer.Query(`SELECT * FROM sys.dm_exec_requests`, nil)
		if err != nil {
			t.Fatal(err)
		}
		running := false
		for _, row := range res.Rows {
			if row[0].Int() == victim.SessionID() && row[2].Str() == "running" {
				running = true
			}
		}
		if running {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := killer.Kill(victim.SessionID()); err != nil {
		t.Fatalf("KILL: %v", err)
	}

	err := <-victimErr
	if err == nil {
		t.Fatal("victim query succeeded despite KILL")
	}
	if !IsKilled(err) {
		t.Fatalf("victim error = %v, want KILLED", err)
	}
	if !IsCancelledClass(err) {
		t.Fatalf("victim error %v does not classify as cancelled", err)
	}
	if err := <-bystanderErr; err != nil {
		t.Fatalf("bystander query failed: %v", err)
	}

	// The victim's session survived its statement's death.
	res, err := victim.Query(`SELECT COUNT(*) AS n FROM server1.fed.dbo.sales`, nil)
	if err != nil {
		t.Fatalf("victim session unusable after KILL: %v", err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("post-KILL rows = %d", len(res.Rows))
	}

	// Killing a session that does not exist is an error, not a hang.
	if err := killer.Kill(9999); err == nil {
		t.Error("KILL of unknown session succeeded")
	}
}

// TestClientCancel: the session's own out-of-band cancel aborts its
// in-flight statement with a CANCELLED (not KILLED) error, and the session
// keeps working.
func TestClientCancel(t *testing.T) {
	eng, _ := buildFederation(t, 3, 20, 60*time.Millisecond, true)
	if _, err := eng.Query(`SELECT y, amount FROM all_sales`, nil); err != nil {
		t.Fatal(err)
	}
	srv, addr := startServer(t, eng, Options{})
	defer srv.Close()
	c := dial(t, addr)
	defer c.Close()

	done := make(chan error, 1)
	go func() {
		_, err := c.Query(`SELECT y, amount FROM all_sales`, nil)
		done <- err
	}()
	time.Sleep(30 * time.Millisecond)
	if err := c.Cancel(); err != nil {
		t.Fatal(err)
	}
	err := <-done
	if err == nil {
		t.Fatal("cancelled query succeeded")
	}
	if !IsCancelledClass(err) || IsKilled(err) {
		t.Fatalf("error = %v, want cancelled-class and not killed", err)
	}
	if _, err := c.Query(`SELECT COUNT(*) AS n FROM server1.fed.dbo.sales`, nil); err != nil {
		t.Fatalf("session unusable after cancel: %v", err)
	}
}

// TestGracefulDrainNoLeaks: Close while statements are in flight and a
// session sits idle must cancel the stragglers, close every session, reject
// new connections and leave no serving goroutines behind.
func TestGracefulDrainNoLeaks(t *testing.T) {
	const inflightFor, drain = 30 * time.Millisecond, 50 * time.Millisecond
	baseline := runtime.NumGoroutine()
	// Each member answers in one 150 ms round trip, so the statement runs
	// past the drain deadline, which falls 80 ms after it starts.
	eng, _ := buildFederation(t, 3, 20, 150*time.Millisecond, true)
	for i := 0; i < 2; i++ { // the first run compiles, the second is timed
		start := time.Now()
		if _, err := eng.Query(`SELECT y, amount FROM all_sales`, nil); err != nil {
			t.Fatal(err)
		}
		if took := time.Since(start); i == 1 && took <= inflightFor+drain {
			t.Fatalf("precondition: the query takes %v, which does not outlive a drain %v after it starts", took, inflightFor+drain)
		}
	}
	srv, addr := startServer(t, eng, Options{DrainTimeout: drain})

	idle := dial(t, addr)
	defer idle.Close()
	busy := dial(t, addr)
	defer busy.Close()
	inflight := make(chan error, 1)
	go func() {
		_, err := busy.Query(`SELECT y, amount FROM all_sales`, nil)
		inflight <- err
	}()
	time.Sleep(inflightFor)

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-inflight; err == nil {
		t.Error("in-flight query outlived a drain shorter than its runtime")
	}
	if _, err := Dial(addr); err == nil {
		t.Error("dial succeeded after Close")
	}
	if err := srv.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	waitGoroutines(t, baseline)
}

// TestDrainWaitsForWriters: Close while DML statements are in flight must
// not sever their connections — a writer's commit may already be durable,
// so its client must receive the DONE acknowledgement even though the
// drain deadline passed mid-statement. No goroutines may leak.
func TestDrainWaitsForWriters(t *testing.T) {
	baseline := runtime.NumGoroutine()
	// The INSERT ... SELECT reads over slow links, so the writer statement
	// is reliably still running when Close fires with a tiny deadline.
	eng, _ := buildFederation(t, 2, 25, 30*time.Millisecond, true)
	eng.MustExec(`CREATE TABLE sink (y INT, amount INT)`)
	if _, err := eng.Query(`SELECT y, amount FROM all_sales`, nil); err != nil {
		t.Fatal(err)
	}
	srv, addr := startServer(t, eng, Options{DrainTimeout: 10 * time.Millisecond})

	type outcome struct {
		n   int64
		err error
	}
	const writerSessions = 2
	results := make(chan outcome, writerSessions)
	var clients []*Client
	for i := 0; i < writerSessions; i++ {
		c := dial(t, addr)
		defer c.Close()
		clients = append(clients, c)
	}
	for _, c := range clients {
		go func(c *Client) {
			n, err := c.Exec(`INSERT INTO sink SELECT y, amount FROM all_sales`, nil)
			results <- outcome{n, err}
		}(c)
	}
	time.Sleep(20 * time.Millisecond)

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	for i := 0; i < writerSessions; i++ {
		o := <-results
		if o.err != nil {
			t.Errorf("writer lost its acknowledgement across drain: %v", o.err)
			continue
		}
		total += o.n
	}
	res, err := eng.Query(`SELECT COUNT(*) AS n FROM sink`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Rows[0][0].Int(); n != total || total == 0 {
		t.Errorf("sink has %d rows, writers were told %d", n, total)
	}
	waitGoroutines(t, baseline)
}

// TestIdleTimeout: the janitor closes traffic-free sessions; a session with
// a running statement is not idle no matter how long it runs.
func TestIdleTimeout(t *testing.T) {
	eng, _ := buildFederation(t, 2, 5, 0, false)
	srv, addr := startServer(t, eng, Options{IdleTimeout: 40 * time.Millisecond})
	defer srv.Close()
	c := dial(t, addr)
	defer c.Close()
	time.Sleep(250 * time.Millisecond)
	if _, err := c.Query(`SELECT COUNT(*) AS n FROM server1.fed.dbo.sales`, nil); err == nil {
		t.Fatal("query succeeded on a session the janitor should have closed")
	}
}

// TestDoubleStatementRejected: a second query frame while one is in flight
// is a protocol error, not a queued statement.
func TestDoubleStatementRejected(t *testing.T) {
	eng, _ := buildFederation(t, 2, 10, 40*time.Millisecond, true)
	if _, err := eng.Query(`SELECT y, amount FROM all_sales`, nil); err != nil {
		t.Fatal(err)
	}
	srv, addr := startServer(t, eng, Options{})
	defer srv.Close()
	c := dial(t, addr)
	defer c.Close()
	// Drive the wire directly: two query frames back to back on one session.
	if err := c.writeFrame(&Frame{Type: FrameQuery, QueryID: 1, SQL: `SELECT y, amount FROM all_sales`}); err != nil {
		t.Fatal(err)
	}
	if err := c.writeFrame(&Frame{Type: FrameQuery, QueryID: 2, SQL: `SELECT y, amount FROM all_sales`}); err != nil {
		t.Fatal(err)
	}
	sawProtocolError := false
	for frames := 0; frames < 1000; frames++ {
		f, err := ReadFrame(c.fr.br)
		if err != nil {
			t.Fatal(err)
		}
		if f.Type == FrameError && f.Code == CodeProtocol {
			sawProtocolError = true
		}
		if f.Type == FrameDone {
			break
		}
	}
	if !sawProtocolError {
		t.Fatal("second in-flight statement was not rejected")
	}
}
