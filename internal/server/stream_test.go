package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"dhqp/internal/engine"
	"dhqp/internal/rowset"
	"dhqp/internal/schema"
	"dhqp/internal/sqltypes"
)

// gridEngine holds the executor mode grid's tables (internal/engine's
// vectorized_test.go): NULL and duplicate join keys, an empty table, the
// NULL-heavy t3 with every value kind, and star tables big enough to plan
// hash joins.
func gridEngine(t *testing.T) *engine.Server {
	t.Helper()
	s := engine.NewServer("grid", "vdb")
	s.MustExec(`CREATE TABLE t1 (a INT, b INT, s VARCHAR(16))`)
	s.MustExec(`INSERT INTO t1 VALUES
		(0, 5, 'x0'), (1, NULL, 'x1'), (2, 5, 'y2'), (NULL, 5, 'x3'),
		(4, 4, 'y4'), (5, NULL, 'x5'), (6, 5, 'y6'), (NULL, NULL, 'x7'),
		(8, 8, 'y8'), (9, 5, 'x9'), (2, 5, 'y10'), (4, 1, 'x11')`)
	s.MustExec(`CREATE TABLE t2 (k INT, v INT)`)
	s.MustExec(`INSERT INTO t2 VALUES (0, 100), (2, 200), (2, 201), (4, 400), (NULL, 999), (6, 600), (12, 120)`)
	s.MustExec(`CREATE TABLE t0 (z INT)`)
	s.MustExec(`CREATE TABLE t3 (i INT, f FLOAT, s VARCHAR(16), d DATE, bt BIT)`)
	s.MustExec(`INSERT INTO t3 VALUES
		(1, 1.5, 'aa', '2024-01-01', 1), (NULL, 2.5, NULL, '2024-01-02', 0),
		(3, NULL, 'cc', NULL, NULL), (4, 4.0, 'dd', '2024-01-04', 1),
		(NULL, NULL, NULL, NULL, NULL), (6, 1.5, 'aa', '2024-01-01', 0),
		(7, -7.25, 'gg', '2023-12-31', NULL), (NULL, 2.5, 'hh', NULL, 1),
		(9, NULL, NULL, '2024-01-09', 0), (3, 3.0, 'cc', '2024-01-03', NULL),
		(11, 11.5, 'kk', '2024-01-11', 1), (NULL, 1.5, 'aa', '2024-01-01', NULL)`)
	s.MustExec(`CREATE TABLE sf (id INT, d1 INT, d2 INT, val INT, fv FLOAT)`)
	s.MustExec(`CREATE TABLE sd1 (k INT, name VARCHAR(16))`)
	s.MustExec(`CREATE TABLE sd2 (k INT, w INT)`)
	var fact, dim []string
	for i := 0; i < 300; i++ {
		d1 := fmt.Sprint(i * 7 % 23)
		if i%17 == 0 {
			d1 = "NULL"
		}
		fact = append(fact, fmt.Sprintf("(%d, %s, %d, %d, %d.5)", i, d1, i*5%13, i%10, i%7))
	}
	for i := 0; i < 20; i++ {
		dim = append(dim, fmt.Sprintf("(%d, 'n%02d')", i, i%16))
	}
	s.MustExec(`INSERT INTO sf VALUES ` + strings.Join(fact, ", "))
	s.MustExec(`INSERT INTO sd1 VALUES ` + strings.Join(dim, ", ") + `, (NULL, 'nn'), (3, 'dup3')`)
	s.MustExec(`INSERT INTO sd2 VALUES (0, 3), (1, 5), (2, 7), (2, 2), (4, 9), (5, 1), (NULL, 4), (8, 6), (11, 5)`)
	return s
}

// gridQueries are the mode grid's shapes, plus mixed-kind result columns
// (UNION ALL and COALESCE across kinds) and a zero-row result.
var gridQueries = []string{
	`SELECT a, b, s FROM t1 WHERE a > 3`,
	`SELECT s FROM t1 WHERE a >= 1 AND b <= 5 AND s <> 'x9'`,
	`SELECT s FROM t1 WHERE s LIKE 'x%'`,
	`SELECT t1.s, t2.v FROM t1, t2 WHERE t1.a = t2.k`,
	`SELECT t1.s, t2.v FROM t1 LEFT JOIN t2 ON t1.a = t2.k`,
	`SELECT s FROM t1 WHERE NOT EXISTS (SELECT * FROM t2 WHERE t2.k = t1.a)`,
	`SELECT b, COUNT(*) AS c, SUM(a) AS sa FROM t1 GROUP BY b`,
	`SELECT COUNT(*) AS c, SUM(z) AS sz, MIN(z) AS mz FROM t0`,
	`SELECT a + b AS ab, a * 2 AS a2 FROM t1`,
	`SELECT TOP 4 a, s FROM t1 ORDER BY a DESC, s`,
	`SELECT i, f FROM t3 WHERE f > 2.0`,
	`SELECT i + 1 AS i1, f * 2.0 AS f2, i + f AS mixed FROM t3`,
	`SELECT s, d FROM t3 WHERE d >= '2024-01-02'`,
	`SELECT i, f, s, d, bt FROM t3`,
	`SELECT f, COUNT(*) AS n, SUM(i) AS si, AVG(f) AS af FROM t3 GROUP BY f`,
	`SELECT d, MIN(i) AS mi, MAX(f) AS mf FROM t3 GROUP BY d`,
	`SELECT a AS x FROM t1 UNION ALL SELECT i FROM t3`,
	`SELECT i FROM t3 UNION ALL SELECT s FROM t3 UNION ALL SELECT d FROM t3 UNION ALL SELECT bt FROM t3 UNION ALL SELECT f FROM t3`,
	`SELECT COALESCE(s, d) AS m, COALESCE(f, bt) AS n FROM t3`,
	`SELECT TOP 5 i, f, s FROM t3 ORDER BY f DESC, i`,
	`SELECT sd1.name, sd2.w, COUNT(*) AS n, SUM(sf.val) AS sv, AVG(sf.fv) AS af FROM sf, sd1, sd2
		WHERE sf.d1 = sd1.k AND sf.d2 = sd2.k GROUP BY sd1.name, sd2.w`,
	`SELECT sf.id, sd2.w FROM sf LEFT JOIN sd2 ON sf.d2 = sd2.k AND sd2.w > sf.val`,
	`SELECT a, s FROM t1 WHERE a > 100`,
}

// sameResult requires the wire result to carry the in-process result's
// columns and rows, in order, kind for kind and bit for bit.
func sameResult(t *testing.T, what string, wantCols []schema.Column, wantRows []rowset.Row, got *Result) {
	t.Helper()
	if len(got.Cols) != len(wantCols) {
		t.Fatalf("%s: %d columns over TCP, %d in process", what, len(got.Cols), len(wantCols))
	}
	for j, c := range wantCols {
		if got.Cols[j].Name != c.Name || got.Cols[j].Kind != c.Kind {
			t.Fatalf("%s: column %d is %s %s over TCP, %s %s in process", what, j, got.Cols[j].Name, got.Cols[j].Kind, c.Name, c.Kind)
		}
	}
	if len(got.Rows) != len(wantRows) {
		t.Fatalf("%s: %d rows over TCP, %d in process", what, len(got.Rows), len(wantRows))
	}
	for i, want := range wantRows {
		for j := range want {
			if !sameValue(got.Rows[i][j], want[j]) {
				t.Fatalf("%s: row %d col %d is %s %s over TCP, %s %s in process", what, i, j,
					got.Rows[i][j].Kind(), got.Rows[i][j].Display(), want[j].Kind(), want[j].Display())
			}
		}
	}
}

// TestTCPMatchesInProcess runs a statement corpus through Client.Query
// and through the engine in process, at batch sizes 1, 3 and the default,
// and requires identical answers: the grid shapes with mixed-kind and
// zero-row results, every DMV, a traced statement, and partial results.
func TestTCPMatchesInProcess(t *testing.T) {
	eng := gridEngine(t)
	eng.Configure(func(c *engine.Config) { c.MaxDOP = 1 }) // UNION ALL branches in order: results compare row by row
	srv, addr := startServer(t, eng, Options{})
	defer srv.Close()
	c := dial(t, addr)
	defer c.Close()
	for _, size := range []int{1, 3, 0} {
		eng.Configure(func(c *engine.Config) { c.BatchSize = size })
		for _, sql := range gridQueries {
			want, err := eng.Query(sql, nil)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			got, err := c.Query(sql, nil)
			if err != nil {
				t.Fatalf("batch %d: %s: %v", size, sql, err)
			}
			sameResult(t, fmt.Sprintf("batch %d: %s", size, sql), want.Cols, want.Rows, got)
		}
	}

	// The DMVs whose content is stable between two reads match their
	// in-process renderers exactly; the live ones match in shape.
	for _, dmv := range []struct {
		sql    string
		render func() *engine.Result
		stable bool
	}{
		{`SELECT * FROM sys.dm_exec_cached_plans`, func() *engine.Result { return PlanCacheResult(eng) }, true},
		{`SELECT * FROM sys.dm_shard_map`, func() *engine.Result { return ShardMapResult(eng) }, true},
		{`SELECT * FROM sys.dm_exec_query_stats`, func() *engine.Result { return QueryStatsResult(eng) }, true},
		{`SELECT * FROM sys.dm_os_wait_stats`, func() *engine.Result { return WaitStatsResult(eng) }, false},
		{`SELECT * FROM sys.dm_os_performance_counters`, func() *engine.Result { return PerformanceCountersResult(eng) }, false},
		{`SELECT * FROM sys.dm_exec_sessions`, srv.sessionsDMV, false},
		{`SELECT * FROM sys.dm_exec_requests`, srv.requestsDMV, false},
	} {
		want := dmv.render()
		got, err := c.Query(dmv.sql, nil)
		if err != nil {
			t.Fatalf("%s: %v", dmv.sql, err)
		}
		if dmv.stable {
			sameResult(t, dmv.sql, want.Cols, want.Rows, got)
		} else {
			sameResult(t, dmv.sql, want.Cols, nil, &Result{Cols: got.Cols})
		}
	}

	// A traced statement's done frame carries its span tree.
	c.SetTrace(true)
	got, err := c.Query(gridQueries[0], nil)
	c.SetTrace(false)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := eng.Query(gridQueries[0], nil)
	sameResult(t, "traced", want.Cols, want.Rows, got)
	if len(got.Spans) == 0 || got.Spans[0].Name != "statement" {
		t.Fatalf("traced statement returned spans %+v", got.Spans)
	}

	// Partial results: a downed member is skipped, and both sides say so.
	head, links := buildFederation(t, 3, 20, 0, false)
	head.Configure(func(c *engine.Config) { c.MaxDOP = 1 })
	const q = `SELECT y, amount FROM all_sales`
	if _, err := head.Query(q, nil); err != nil {
		t.Fatal(err)
	}
	head.Configure(func(c *engine.Config) { c.BreakerThreshold, c.BreakerCooldown = 1, time.Hour })
	head.Configure(func(c *engine.Config) { c.RemoteRetries = 1 })
	links[1].SetDown(true)
	if _, err := head.Query(q, nil); err == nil {
		t.Fatal("query with a downed member succeeded")
	}
	head.Configure(func(c *engine.Config) { c.PartialResults = true })
	fsrv, faddr := startServer(t, head, Options{})
	defer fsrv.Close()
	fc := dial(t, faddr)
	defer fc.Close()
	pwant, err := head.Query(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	pgot, err := fc.Query(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "partial", pwant.Cols, pwant.Rows, pgot)
	if len(pwant.Skipped) != 1 || fmt.Sprint(pgot.Skipped) != fmt.Sprint(pwant.Skipped) {
		t.Fatalf("skipped over TCP %v, in process %v", pgot.Skipped, pwant.Skipped)
	}
}

// rawClient speaks frames directly, so a test can stop reading mid-result.
type rawClient struct {
	conn net.Conn
	br   *bufio.Reader
	id   int64
}

func dialRaw(t *testing.T, addr string) *rawClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	rc := &rawClient{conn: conn, br: bufio.NewReader(conn)}
	rc.send(t, &Frame{Type: FrameHello})
	rc.id = rc.read(t).SessionID
	return rc
}

func (rc *rawClient) send(t *testing.T, f *Frame) {
	t.Helper()
	if err := WriteFrame(rc.conn, f); err != nil {
		t.Fatal(err)
	}
}

func (rc *rawClient) read(t *testing.T) *Frame {
	t.Helper()
	f, err := ReadFrame(rc.br)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// setSendBuffer sizes the kernel send buffer of a session's connection: a
// small one makes a client that stops reading block the server's writes
// after a few frames on any host's TCP tuning.
func setSendBuffer(t *testing.T, srv *Server, id int64, bytes int) {
	t.Helper()
	sess := srv.sessionByID(id)
	if sess == nil {
		t.Fatalf("session %d not registered", id)
	}
	_ = sess.conn.(*countingConn).Conn.(*net.TCPConn).SetWriteBuffer(bytes)
}

var (
	bigOnce sync.Once
	bigEng  *engine.Server
)

const bigRows = 200_000

// bigEngine holds a 200 000-row table, loaded once through the storage API
// and scanned once so its columnar image exists before anything measures.
func bigEngine(t *testing.T) *engine.Server {
	t.Helper()
	bigOnce.Do(func() {
		s := engine.NewServer("big", "db")
		s.MustExec(`CREATE TABLE big (id INT, pad VARCHAR(32))`)
		db, _ := s.Store().Database("db")
		tbl, _ := db.Table("big")
		for i := 0; i < bigRows; i++ {
			if _, err := tbl.Insert(rowset.Row{sqltypes.NewInt(int64(i)), sqltypes.NewString(fmt.Sprintf("padding-row-%08d", i))}); err != nil {
				panic(err)
			}
		}
		if res, err := s.Query(`SELECT id, pad FROM big`, nil); err != nil || len(res.Rows) != bigRows {
			panic(fmt.Sprintf("warm scan: %v", err))
		}
		bigEng = s
	})
	return bigEng
}

// counter reads one metric from the engine's registry.
func counter(eng *engine.Server, name string) float64 {
	for _, sm := range eng.Metrics().Samples() {
		if sm.Name == name && sm.Instance == "" {
			return sm.Value
		}
	}
	return math.NaN()
}

// waitRunning waits until the server has exactly n statements running.
func waitRunning(t *testing.T, srv *Server, n int, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for srv.Info().Running != n {
		if time.Now().After(deadline) {
			t.Fatalf("running = %d after %v, want %d", srv.Info().Running, within, n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestResultStreamsFromRootBatches: on a 200 000-row scan, a client sees
// the first rows frame while the statement is still running, the server's
// heap grows by batches in flight rather than by the result, and the
// stream then delivers every row in one rows frame per root batch.
func TestResultStreamsFromRootBatches(t *testing.T) {
	eng := bigEngine(t)
	srv, addr := startServer(t, eng, Options{})
	defer srv.Close()
	rc := dialRaw(t, addr)
	defer rc.conn.Close()
	setSendBuffer(t, srv, rc.id, 8<<10)

	batches0 := counter(eng, "dhqp_exec_batches_total")
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heap0 := ms.HeapAlloc

	rc.send(t, &Frame{Type: FrameQuery, QueryID: 1, SQL: `SELECT id, pad FROM big`})
	if f := rc.read(t); f.Type != FrameCols {
		t.Fatalf("first frame %q, want cols", f.Type)
	}
	first := rc.read(t)
	if first.Type != FrameRows || len(first.Rows) == 0 {
		t.Fatalf("second frame %q with %d rows, want rows", first.Type, len(first.Rows))
	}
	// The client has read one batch and stopped: the statement cannot
	// have reached EOF, so it must still be running.
	time.Sleep(50 * time.Millisecond)
	if n := srv.Info().Running; n != 1 {
		t.Fatalf("after the first rows frame %d statements run, want 1: the result was not streamed", n)
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	growth := int64(ms.HeapAlloc) - int64(heap0)
	// Materialized, the result would be 200 000 rows of two boxed values.
	// Streamed, the growth is the batches in flight plus the one
	// table-sized buffer any scan takes, its snapshot of the row pointers
	// (24 bytes a row; pooled, so usually reused, but -race makes
	// sync.Pool drop items and it is reallocated).
	materialized := int64(bigRows) * int64(24+2*40)
	t.Logf("heap growth while streaming %d KiB; a materialized result is %d KiB", growth>>10, materialized>>10)
	if growth > materialized/3 {
		t.Fatalf("server heap grew %d bytes mid-statement, a materialized result is %d", growth, materialized)
	}

	rows, frames := len(first.Rows), 1
	for {
		f := rc.read(t)
		if f.Type == FrameDone {
			if f.RowCount != bigRows {
				t.Fatalf("done reports %d rows, want %d", f.RowCount, bigRows)
			}
			break
		}
		if f.Type != FrameRows {
			t.Fatalf("unexpected %q frame mid-result", f.Type)
		}
		rows += len(f.Rows)
		frames++
	}
	if rows != bigRows {
		t.Fatalf("%d rows streamed, want %d", rows, bigRows)
	}
	if batches := int(counter(eng, "dhqp_exec_batches_total") - batches0); frames != batches {
		t.Fatalf("%d rows frames for %d root batches", frames, batches)
	}
}

// TestSlowReaderEnded: a client stops reading mid-result, so the statement
// blocks in a socket write holding its admission slot. KILL from a peer,
// the client's own cancel and a drain must each end it, free the slot and
// leak no goroutine.
func TestSlowReaderEnded(t *testing.T) {
	eng := bigEngine(t)
	const drain = 4 * cancelWriteGrace
	for _, how := range []string{"kill", "cancel", "drain"} {
		t.Run(how, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			srv, addr := startServer(t, eng, Options{MaxConcurrent: 1, QueueTimeout: time.Second, DrainTimeout: drain})
			rc := dialRaw(t, addr)
			defer rc.conn.Close()
			setSendBuffer(t, srv, rc.id, 8<<10)
			rc.send(t, &Frame{Type: FrameQuery, QueryID: 1, SQL: `SELECT id, pad FROM big`})
			rc.read(t) // cols
			rc.read(t) // the first rows frame; then the client stops reading
			time.Sleep(50 * time.Millisecond)
			waitRunning(t, srv, 1, time.Second)

			start := time.Now()
			switch how {
			case "kill":
				peer := dial(t, addr)
				if err := peer.Kill(rc.id); err != nil {
					t.Fatal(err)
				}
				waitRunning(t, srv, 0, drain)
				// The slot is free: a peer statement is admitted before its
				// one-second queue timeout would shed it busy.
				if _, err := peer.Query(`SELECT COUNT(*) AS n FROM big`, nil); err != nil {
					t.Fatalf("statement after KILL: %v", err)
				}
				peer.Close()
			case "cancel":
				rc.send(t, &Frame{Type: FrameCancel})
				waitRunning(t, srv, 0, drain)
				peer := dial(t, addr)
				if _, err := peer.Query(`SELECT COUNT(*) AS n FROM big`, nil); err != nil {
					t.Fatalf("statement after cancel: %v", err)
				}
				peer.Close()
			case "drain":
				if err := srv.Close(); err != nil {
					t.Fatal(err)
				}
				if d := time.Since(start); d > drain+2*time.Second {
					t.Fatalf("drain took %v with DrainTimeout %v", d, drain)
				}
			}
			t.Logf("%s ended the blocked statement in %v", how, time.Since(start))
			rc.conn.Close()
			srv.Close()
			waitGoroutines(t, baseline)
		})
	}
}

// TestCancelWhileReading: a statement cancelled or KILLed mid-result while
// its client goes on reading ends in its typed error frame on an intact
// stream, and the same session then runs its next statement.
func TestCancelWhileReading(t *testing.T) {
	eng := bigEngine(t)
	srv, addr := startServer(t, eng, Options{})
	defer srv.Close()
	for _, how := range []string{"cancel", "kill"} {
		t.Run(how, func(t *testing.T) {
			rc := dialRaw(t, addr)
			defer rc.conn.Close()
			setSendBuffer(t, srv, rc.id, 8<<10)
			rc.send(t, &Frame{Type: FrameQuery, QueryID: 1, SQL: `SELECT id, pad FROM big`})
			rc.read(t) // cols
			rc.read(t) // the first rows frame: the statement is now mid-result
			waitRunning(t, srv, 1, time.Second)
			want := CodeCancelled
			if how == "cancel" {
				rc.send(t, &Frame{Type: FrameCancel})
			} else {
				peer := dial(t, addr)
				err := peer.Kill(rc.id)
				peer.Close()
				if err != nil {
					t.Fatal(err)
				}
				want = CodeKilled
			}
			// The frames the statement wrote before it noticed, then its
			// error.
			f := rc.read(t)
			for f.Type == FrameRows {
				f = rc.read(t)
			}
			if f.Type != FrameError || f.Code != want {
				t.Fatalf("the result ended in a %s frame %q, want a %s error", f.Type, f.Code, want)
			}
			rc.send(t, &Frame{Type: FrameQuery, QueryID: 2, SQL: `SELECT COUNT(*) AS n FROM big`})
			if f := rc.read(t); f.Type != FrameCols {
				t.Fatalf("next statement: %s frame %q, want cols", f.Type, f.Msg)
			}
			if f := rc.read(t); f.Type != FrameRows || len(f.Rows) != 1 || f.Rows[0][0].I != bigRows {
				t.Fatalf("next statement: %s frame %+v, want one row of %d", f.Type, f.Rows, bigRows)
			}
			if f := rc.read(t); f.Type != FrameDone {
				t.Fatalf("next statement: %s frame, want done", f.Type)
			}
		})
	}

	// Through Client: Cancel from another goroutine while Query reads. The
	// statement fetches 16-row batches over links with 5 ms of real latency
	// a call, so it streams for well over 100 ms whatever the host.
	t.Run("client", func(t *testing.T) {
		head, _ := buildFederation(t, 2, 400, 5*time.Millisecond, true)
		head.Configure(func(c *engine.Config) { c.BatchSize = 16 })
		fsrv, faddr := startServer(t, head, Options{})
		defer fsrv.Close()
		c := dial(t, faddr)
		defer c.Close()
		errc := make(chan error, 1)
		go func() {
			_, err := c.Query(`SELECT y, amount FROM all_sales`, nil)
			errc <- err
		}()
		waitRunning(t, fsrv, 1, 5*time.Second)
		time.Sleep(30 * time.Millisecond) // some rows frames have gone out
		if err := c.Cancel(); err != nil {
			t.Fatal(err)
		}
		var qe *QueryError
		if err := <-errc; !errors.As(err, &qe) || qe.Code != CodeCancelled {
			t.Fatalf("Query cancelled mid-result returned %v, want a CANCELLED error", err)
		}
		res, err := c.Query(`SELECT COUNT(*) AS n FROM all_sales`, nil)
		if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Int() != 800 {
			t.Fatalf("statement after the cancel: %v, %v", res, err)
		}
	})
}

// TestServerRefusesRowsFrames: the server decodes no binary frame but
// query. A rows frame the client's decoder would take — maxFrameValues
// NULLs in 8 KiB, 4 MiB decoded — closes the connection before and after
// the handshake, and the server allocates nothing for its rows.
func TestServerRefusesRowsFrames(t *testing.T) {
	srv, addr := startServer(t, engine.NewServer("s", "db"), Options{})
	defer srv.Close()
	payload := nullRowsFrame(maxFrameValues)
	if _, rows, err := decodeFrame(payload, nil); err != nil || len(rows) != maxFrameValues {
		t.Fatalf("the client decoder takes %d rows, %v", len(rows), err)
	}
	frame := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
	frame = append(frame, payload...)
	for _, handshake := range []bool{false, true} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		br := bufio.NewReader(conn)
		if handshake {
			if err := WriteFrame(conn, &Frame{Type: FrameHello}); err != nil {
				t.Fatal(err)
			}
			if f, err := ReadFrame(br); err != nil || f.Type != FrameWelcome {
				t.Fatalf("handshake: %v, %v", f, err)
			}
		}
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		f, err := ReadFrame(br)
		runtime.ReadMemStats(&after)
		conn.Close()
		if err == nil {
			t.Fatalf("handshake %v: the server answered a rows frame with %s", handshake, f.Type)
		}
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Fatalf("handshake %v: the server kept the connection open after a rows frame", handshake)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
			t.Fatalf("handshake %v: refusing a %d-byte rows frame allocated %d bytes", handshake, len(payload), alloc)
		}
	}
}

// TestWideBatchSplits: a root batch of more than maxFrameValues values
// leaves as several rows frames, each inside the bound, and the client's
// answer is the in-process one.
func TestWideBatchSplits(t *testing.T) {
	eng := bigEngine(t)
	eng.Configure(func(c *engine.Config) { c.BatchSize = rowset.MaxBatchSize })
	defer eng.Configure(func(c *engine.Config) { c.BatchSize = 0 })
	const width = 17 // a 4 096-row batch holds 69 632 values
	sel := make([]string, width)
	for j := range sel {
		sel[j] = fmt.Sprintf("id + %d AS c%d", j, j)
	}
	sql := `SELECT ` + strings.Join(sel, ", ") + ` FROM big WHERE id < 8192`
	srv, addr := startServer(t, eng, Options{})
	defer srv.Close()

	batches0 := counter(eng, "dhqp_exec_batches_total")
	rc := dialRaw(t, addr)
	defer rc.conn.Close()
	rc.send(t, &Frame{Type: FrameQuery, QueryID: 1, SQL: sql})
	rc.read(t) // cols
	rows, frames := 0, 0
	for f := rc.read(t); f.Type != FrameDone; f = rc.read(t) {
		if f.Type != FrameRows || len(f.Rows)*width > maxFrameValues {
			t.Fatalf("%s frame of %d rows of %d values", f.Type, len(f.Rows), width)
		}
		rows += len(f.Rows)
		frames++
	}
	batches := int(counter(eng, "dhqp_exec_batches_total") - batches0)
	if rows != 8192 || frames <= batches {
		t.Fatalf("%d rows in %d frames from %d root batches: no batch was split", rows, frames, batches)
	}

	want, err := eng.Query(sql, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := dial(t, addr)
	defer c.Close()
	got, err := c.Query(sql, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "wide", want.Cols, want.Rows, got)
}
