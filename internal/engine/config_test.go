package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"dhqp/internal/netsim"
	"dhqp/internal/oledb"
	"dhqp/internal/providers/sqlful"
	"dhqp/internal/rowset"
	"dhqp/internal/telemetry"
)

// buildConfigFixture is a head server with a local 300-row probe(k, tag),
// linked over LAN links to r0 — pts(k, v) of 120 rows, big(k PRIMARY KEY,
// payload) of 3 000 rows and sk(k, v) of 2 000 rows, 90 % of them v = 7 —
// and to r1, whose pts has 80 rows. all_pts is the UNION ALL of both pts.
// wrap, when set, wraps r0's data source.
func buildConfigFixture(t *testing.T, wrap func(oledb.DataSource) oledb.DataSource) (*Server, []*netsim.Link) {
	t.Helper()
	insert := func(s *Server, table string, n int, row func(i int) string) {
		var b strings.Builder
		for start := 0; start < n; start += 500 {
			b.Reset()
			b.WriteString("INSERT INTO " + table + " VALUES ")
			for i := start; i < n && i < start+500; i++ {
				if i > start {
					b.WriteString(", ")
				}
				b.WriteString(row(i))
			}
			s.MustExec(b.String())
		}
	}
	head := NewServer("head", "app")
	head.MustExec(`CREATE TABLE probe (k INT, tag VARCHAR(16))`)
	insert(head, "probe", 300, func(i int) string { return fmt.Sprintf("(%d, 'tag%d')", i, i) })
	var links []*netsim.Link
	for i, n := range []int{120, 80} {
		r := NewServer(fmt.Sprintf("r%d", i), "rdb")
		r.MustExec(`CREATE TABLE pts (k INT, v INT)`)
		insert(r, "pts", n, func(j int) string { return fmt.Sprintf("(%d, %d)", j, j%40) })
		var ds oledb.DataSource
		link := netsim.LAN()
		ds = sqlful.New(r, link, sqlful.FullSQLCapabilities())
		if i == 0 {
			r.MustExec(`CREATE TABLE big (k INT PRIMARY KEY, payload VARCHAR(64))`)
			insert(r, "big", 3000, func(j int) string { return fmt.Sprintf("(%d, 'payload%d')", j, j) })
			r.MustExec(`CREATE TABLE sk (k INT, v INT)`)
			insert(r, "sk", 2000, func(j int) string {
				if j%10 == 9 {
					return fmt.Sprintf("(%d, %d)", j, 1000+j)
				}
				return fmt.Sprintf("(%d, 7)", j)
			})
			if wrap != nil {
				ds = wrap(ds)
			}
		}
		if err := head.AddLinkedServer(fmt.Sprintf("r%d", i), ds, link); err != nil {
			t.Fatal(err)
		}
		links = append(links, link)
	}
	head.MustExec(`CREATE VIEW all_pts AS
		SELECT k, v FROM r0.rdb.dbo.pts UNION ALL SELECT k, v FROM r1.rdb.dbo.pts`)
	return head, links
}

// cachedPlanText renders the plan cached for sql.
func cachedPlanText(t *testing.T, s *Server, sql string) string {
	t.Helper()
	s.mu.Lock()
	c, ok := s.planCache.Get(sql)
	s.mu.Unlock()
	if !ok {
		t.Fatalf("%q is not cached", sql)
	}
	return c.plan.String()
}

// execTraffic runs sql once and returns the plan it left cached and the
// calls and rows its execution moved over links.
func execTraffic(t *testing.T, s *Server, links []*netsim.Link, sql string) (plan string, calls, rows int64) {
	t.Helper()
	for _, l := range links {
		l.Reset()
	}
	q(t, s, sql)
	for _, l := range links {
		calls += l.Stats().Calls
		rows += l.Stats().Rows
	}
	return cachedPlanText(t, s, sql), calls, rows
}

// configCases are planning-field flips, each with a statement whose plan
// the flip changes.
var configCases = []struct {
	name string
	sql  string
	base func(*Config) // applied before the statement is cached
	flip func(*Config)
}{
	{"spool", `SELECT COUNT(*) AS n FROM r0.rdb.dbo.pts a, r1.rdb.dbo.pts b WHERE a.v < b.v`,
		func(c *Config) { c.DisableParameterization = true }, func(c *Config) { c.DisableSpool = true }},
	{"parameterization", `SELECT p.tag, b.payload FROM probe p, r0.rdb.dbo.big b WHERE p.k = b.k`,
		func(*Config) {}, func(c *Config) { c.DisableParameterization = true }},
	{"remote-statistics", `SELECT p.tag, s.k FROM probe p, r0.rdb.dbo.sk s WHERE p.k = s.k AND s.v = 7`,
		func(*Config) {}, func(c *Config) { c.UseRemoteStatistics = false }},
	{"aggsplit", `SELECT v, COUNT(*) AS n FROM all_pts GROUP BY v`,
		func(*Config) {}, func(c *Config) { c.DisableAggSplit = true }},
	{"remote-batch-size", `SELECT p.tag, b.payload FROM probe p, r0.rdb.dbo.big b WHERE p.k = b.k`,
		func(*Config) {}, func(c *Config) { c.RemoteBatchSize = 50 }},
}

// TestConfigChangeReplans: a planning field changed after a statement is
// cached takes effect on the statement's next execution, whose plan and
// link traffic equal a fresh server's configured that way from the start;
// a compile outside the cache (Plan) agrees too.
func TestConfigChangeReplans(t *testing.T) {
	for _, tc := range configCases {
		t.Run(tc.name, func(t *testing.T) {
			fresh, freshLinks := buildConfigFixture(t, nil)
			fresh.Configure(tc.base)
			fresh.Configure(tc.flip)
			q(t, fresh, tc.sql) // compile and fetch metadata
			wantPlan, wantCalls, wantRows := execTraffic(t, fresh, freshLinks, tc.sql)

			s, links := buildConfigFixture(t, nil)
			s.Configure(tc.base)
			oldPlan, _, _ := execTraffic(t, s, links, tc.sql)
			if oldPlan == wantPlan {
				t.Fatalf("the flip does not change the plan; the case tests nothing:\n%s", oldPlan)
			}
			s.Configure(tc.flip)
			plan, calls, rows := execTraffic(t, s, links, tc.sql)
			if plan != wantPlan {
				t.Errorf("cached statement kept its plan after the flip:\n%s\nwant:\n%s", plan, wantPlan)
			}
			if calls != wantCalls || rows != wantRows {
				t.Errorf("traffic = %d calls %d rows, want %d calls %d rows", calls, rows, wantCalls, wantRows)
			}
			compiled, _, _, err := s.Plan(tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			if got := compiled.String(); got != wantPlan {
				t.Errorf("Plan after the flip:\n%s\nwant:\n%s", got, wantPlan)
			}
		})
	}
}

// gatedSource holds the first remote histogram fetch — made inside a
// compile's optimize phase — until release is closed.
type gatedSource struct {
	oledb.DataSource
	entered, release chan struct{}
	once             sync.Once
}

func (g *gatedSource) CreateSession() (oledb.Session, error) {
	sess, err := g.DataSource.CreateSession()
	if err != nil {
		return nil, err
	}
	return &gatedSession{Session: sess, g: g}, nil
}

type gatedSession struct {
	oledb.Session
	g *gatedSource
}

func (s *gatedSession) ColumnHistogram(table, column string) (rowset.Rowset, error) {
	s.g.once.Do(func() {
		close(s.g.entered)
		<-s.g.release
	})
	return s.Session.ColumnHistogram(table, column)
}

// TestConfigureDuringCompile: a compile that started under one
// configuration and finishes after Configure changed a planning field
// caches its plan, but that plan never serves a statement of the new
// generation.
func TestConfigureDuringCompile(t *testing.T) {
	tc := configCases[len(configCases)-1] // remote batch size
	open := make(chan struct{})
	close(open)
	fresh, freshLinks := buildConfigFixture(t, func(ds oledb.DataSource) oledb.DataSource {
		return &gatedSource{DataSource: ds, entered: make(chan struct{}), release: open}
	})
	fresh.Configure(tc.flip)
	q(t, fresh, tc.sql)
	wantPlan, wantCalls, wantRows := execTraffic(t, fresh, freshLinks, tc.sql)

	gate := &gatedSource{entered: make(chan struct{}), release: make(chan struct{})}
	s, links := buildConfigFixture(t, func(ds oledb.DataSource) oledb.DataSource {
		gate.DataSource = ds
		return gate
	})
	done := make(chan error, 1)
	go func() {
		_, err := s.Query(tc.sql, nil)
		done <- err
	}()
	select {
	case <-gate.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the compile never fetched a remote histogram")
	}
	s.Configure(tc.flip)
	close(gate.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	plan, calls, rows := execTraffic(t, s, links, tc.sql)
	if plan != wantPlan {
		t.Errorf("a plan compiled under the old configuration served the new one:\n%s\nwant:\n%s", plan, wantPlan)
	}
	if calls != wantCalls || rows != wantRows {
		t.Errorf("traffic = %d calls %d rows, want %d calls %d rows", calls, rows, wantCalls, wantRows)
	}
}

// TestConfigureNormalizes: out-of-range values map onto their documented
// meaning, and a change outside the planning fields keeps the planning
// generation.
func TestConfigureNormalizes(t *testing.T) {
	s := NewServer("s", "db")
	before := s.Config()
	s.Configure(func(c *Config) {
		c.MaxDOP, c.BatchSize, c.RemoteBatchSize, c.RemoteRetries = -1, -2, -3, -4
		c.QueryTimeout, c.RetryBackoff, c.SlowQueryThreshold = -1, -2, -3
		c.BreakerThreshold, c.BreakerCooldown = 0, -1
	})
	if got := s.Config(); got != before {
		t.Errorf("normalized config = %+v, want %+v", got, before)
	}
	s.Configure(func(c *Config) { c.OptConfig.ExploreBudget++ })
	if s.Config().planGen != before.planGen+1 {
		t.Error("an optimizer change did not start a planning generation")
	}
}

// TestConfigureConcurrentEdits: concurrent Configure calls lose no edit.
func TestConfigureConcurrentEdits(t *testing.T) {
	s := NewServer("s", "db")
	const goroutines, each = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				s.Configure(func(c *Config) { c.MaxDOP++ })
			}
		}()
	}
	wg.Wait()
	if got := s.Config().MaxDOP; got != goroutines*each {
		t.Errorf("MaxDOP = %d after %d increments", got, goroutines*each)
	}
}

// TestSlowQueryLog: with a 0 threshold nothing is written; with a 1 ns
// threshold every statement writes one JSON line carrying its text, row
// count and cache outcome — plus its trace id and the spans ended so far
// (the remote calls) when traced — and concurrent statements never
// interleave within a line.
func TestSlowQueryLog(t *testing.T) {
	s, _, _ := linkTwo(t)
	var buf bytes.Buffer
	const sql = `SELECT c_name FROM remote0.salesdb.dbo.customer WHERE c_id < 3`
	s.Configure(func(c *Config) { c.SlowQueryWriter = &buf })
	q(t, s, sql)
	if buf.Len() != 0 {
		t.Fatalf("threshold 0 logged %q", buf.String())
	}

	s.Configure(func(c *Config) { c.SlowQueryThreshold = time.Nanosecond })
	q(t, s, sql)
	ctx := telemetry.WithTrace(context.Background(), telemetry.NewTrace(), 0)
	if _, err := s.QueryContext(ctx, sql, nil); err != nil {
		t.Fatal(err)
	}
	recs := slowRecords(t, &buf)
	if len(recs) != 2 {
		t.Fatalf("%d slow-log lines, want 2", len(recs))
	}
	for i, r := range recs {
		if r.Query != sql || r.Rows != 3 || !r.CacheHit || r.Server != "local" {
			t.Errorf("line %d = %+v", i, r)
		}
	}
	if recs[0].TraceID != "" || recs[0].Spans != "" {
		t.Errorf("untraced statement logged trace %q spans %q", recs[0].TraceID, recs[0].Spans)
	}
	if recs[1].TraceID == "" || !strings.Contains(recs[1].Spans, "remote") {
		t.Errorf("traced statement logged trace %q spans %q", recs[1].TraceID, recs[1].Spans)
	}

	buf.Reset()
	const goroutines, each = 6, 20
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := s.Query(sql, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if recs := slowRecords(t, &buf); len(recs) != goroutines*each {
		t.Errorf("%d slow-log lines, want %d", len(recs), goroutines*each)
	}
}

// slowRecords decodes every line of the slow-query log, failing on any
// line that is not one whole record.
func slowRecords(t *testing.T, buf *bytes.Buffer) []slowQueryRecord {
	t.Helper()
	var out []slowQueryRecord
	for _, line := range strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n") {
		var r slowQueryRecord
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("slow-log line %q: %v", line, err)
		}
		out = append(out, r)
	}
	return out
}
