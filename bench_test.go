// Benchmark harness: one benchmark per experiment in DESIGN.md's
// per-experiment index (E1–E16). Each regenerates the corresponding figure,
// table or quantified claim of the paper; cmd/benchrunner prints the same
// measurements as formatted tables, and EXPERIMENTS.md records the
// paper-vs-measured comparison.
//
// Custom metrics:
//
//	rows-shipped/op   rows crossing simulated network links
//	bytes-shipped/op  bytes crossing simulated network links
//	est-error         cardinality estimation error factor (E4)
package dhqp_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"dhqp"
	"dhqp/internal/algebra"
	"dhqp/internal/cost"
	"dhqp/internal/engine"
	"dhqp/internal/netsim"
	"dhqp/internal/rowset"
	"dhqp/internal/rules"
	"dhqp/internal/storage"
	"dhqp/internal/workload"
)

// mustQuery fails the benchmark on error.
func mustQuery(b *testing.B, s *dhqp.Server, sql string, params map[string]dhqp.Value) *dhqp.Result {
	b.Helper()
	res, err := s.Query(sql, params)
	if err != nil {
		b.Fatalf("Query(%q): %v", sql, err)
	}
	return res
}

func mustExec(b *testing.B, s *dhqp.Server, sql string) {
	b.Helper()
	if _, err := s.Exec(sql); err != nil {
		b.Fatalf("Exec(%q): %v", sql, err)
	}
}

// ---------------------------------------------------------------------
// E1 — Figure 4 / Example 1: cost-based remote join placement.
// ---------------------------------------------------------------------

func e1Fixture(b *testing.B) (*dhqp.Server, *dhqp.Link) {
	b.Helper()
	cfg := workload.SmallTPCH()
	local := dhqp.NewServer("local", "appdb")
	remote := dhqp.NewServer("remote0srv", "tpch10g")
	if err := workload.LoadTPCHNation(local, cfg); err != nil {
		b.Fatal(err)
	}
	if err := workload.LoadTPCHRemote(remote, cfg); err != nil {
		b.Fatal(err)
	}
	link := dhqp.LAN()
	if err := local.AddLinkedServer("remote0", dhqp.SQLProvider(remote, link), link); err != nil {
		b.Fatal(err)
	}
	return local, link
}

const e1Query = `SELECT c.c_name, c.c_address, c.c_phone
	FROM remote0.tpch10g.dbo.customer c,
	     remote0.tpch10g.dbo.supplier s,
	     nation n
	WHERE c.c_nationkey = n.n_nationkey AND n.n_nationkey = s.s_nationkey`

// e1PlanA forces the paper's Figure 4(a): the customer ⋈ supplier join is
// pushed to remote0 as a pass-through query, shipping the large
// intermediate result.
const e1PlanA = `SELECT q.c1 AS c_name, q.c2 AS c_address, q.c3 AS c_phone
	FROM OPENQUERY(remote0, 'SELECT c.c_name AS c1, c.c_address AS c2, c.c_phone AS c3, c.c_nationkey AS c4
		FROM customer c, supplier s WHERE c.c_nationkey = s.s_nationkey') q,
	     nation n
	WHERE q.c4 = n.n_nationkey`

func BenchmarkE1_Figure4PlanChoice(b *testing.B) {
	for _, variant := range []struct {
		name, query string
	}{
		{"PlanB_Optimizer", e1Query},
		{"PlanA_ForcedRemoteJoin", e1PlanA},
	} {
		b.Run(variant.name, func(b *testing.B) {
			local, link := e1Fixture(b)
			mustQuery(b, local, variant.query, nil) // warm metadata caches
			link.Reset()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := mustQuery(b, local, variant.query, nil)
				if len(res.Rows) == 0 {
					b.Fatal("no rows")
				}
			}
			b.StopTimer()
			s := link.Stats()
			b.ReportMetric(float64(s.Rows)/float64(b.N), "rows-shipped/op")
			b.ReportMetric(float64(s.Bytes)/float64(b.N), "bytes-shipped/op")
		})
	}
}

// ---------------------------------------------------------------------
// E2 — Table 1: one query per provider, each in its own language.
// ---------------------------------------------------------------------

func BenchmarkE2_ProviderLanguages(b *testing.B) {
	s := dhqp.NewServer("local", "db")
	// Transact-SQL target.
	remote := dhqp.NewServer("r", "rdb")
	mustExecB(b, remote, `CREATE TABLE t (k INT, v INT)`)
	mustExecB(b, remote, `INSERT INTO t VALUES (1, 2), (3, 4)`)
	link := dhqp.LAN()
	s.AddLinkedServer("sqlsrv", dhqp.SQLProvider(remote, link), link)
	// Index Server query language target.
	s.FulltextService().AddFile("lit", "a.txt", []byte("database systems"), nil)
	mustExecB2(b, s, `EXEC sp_addlinkedserver 'ftsrv', 'MSIDXS', 'lit'`)
	// Mail store.
	s.MailStore().AddMailbox("m.mmf", workload.GenMailbox(20, s.Config().Today, []string{"a@x", "b@y"}, 3))

	queries := []struct {
		name, sql string
	}{
		{"TransactSQL", `SELECT COUNT(*) AS n FROM sqlsrv.rdb.dbo.t WHERE v > 1`},
		{"IndexServerQL", `SELECT q.path FROM OPENQUERY(ftsrv, 'SELECT path FROM SCOPE() WHERE CONTAINS(''database'')') q`},
		{"MailRowsets", `SELECT COUNT(*) AS n FROM MakeTable(Mail, 'm.mmf') m WHERE m.inreplyto IS NULL`},
	}
	for _, qy := range queries {
		b.Run(qy.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mustQuery(b, s, qy.sql, nil)
			}
		})
	}
}

func mustExecB(b *testing.B, s *dhqp.Server, sql string)  { mustExec(b, s, sql) }
func mustExecB2(b *testing.B, s *dhqp.Server, sql string) { mustExec(b, s, sql) }

// ---------------------------------------------------------------------
// E4 — §3.2.4: remote histograms vs default selectivities.
// ---------------------------------------------------------------------

func e4Fixture(b *testing.B, useStats bool) (*dhqp.Server, int) {
	local := dhqp.NewServer("local", "db")
	remote := dhqp.NewServer("r", "rdb")
	mustExec(b, remote, `CREATE TABLE skewed (id INT, v INT)`)
	// 90% of rows share v = 7.
	var sb strings.Builder
	n := 2000
	sb.WriteString("INSERT INTO skewed VALUES ")
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		v := 7
		if i%10 == 9 {
			v = 1000 + i
		}
		fmt.Fprintf(&sb, "(%d, %d)", i, v)
	}
	mustExec(b, remote, sb.String())
	link := dhqp.LAN()
	local.AddLinkedServer("r0", dhqp.SQLProvider(remote, link), link)
	local.Configure(func(c *engine.Config) { c.UseRemoteStatistics = useStats })
	return local, n
}

func BenchmarkE4_RemoteHistograms(b *testing.B) {
	for _, variant := range []struct {
		name     string
		useStats bool
	}{
		{"WithRemoteHistograms", true},
		{"WithoutStatistics", false},
	} {
		b.Run(variant.name, func(b *testing.B) {
			local, n := e4Fixture(b, variant.useStats)
			query := `SELECT id FROM r0.rdb.dbo.skewed WHERE v = 7`
			actual := float64(n) * 0.9
			var estErr float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, _, report, err := local.Plan(query)
				if err != nil {
					b.Fatal(err)
				}
				est := report.RootCard
				if est <= 0 {
					est = 1
				}
				ratio := actual / est
				if ratio < 1 {
					ratio = 1 / ratio
				}
				estErr = ratio
			}
			b.ReportMetric(estErr, "est-error")
		})
	}
}

// ---------------------------------------------------------------------
// E5 — §2.2/§2.3: indexed CONTAINS vs naive evaluation.
// ---------------------------------------------------------------------

func BenchmarkE5_FullText(b *testing.B) {
	const docCount = 3000
	b.Run("IndexedSearchService", func(b *testing.B) {
		s := dhqp.NewServer("local", "docdb")
		if err := workload.LoadDocuments(s, docCount, 7); err != nil {
			b.Fatal(err)
		}
		query := `SELECT COUNT(*) AS n FROM docs WHERE CONTAINS(body, 'parallel AND database')`
		want := mustQuery(b, s, query, nil).Rows[0][0]
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res := mustQuery(b, s, query, nil)
			if res.Rows[0][0] != want {
				b.Fatal("result drift")
			}
		}
	})
	b.Run("NaiveRowAtATime", func(b *testing.B) {
		s := dhqp.NewServer("local", "docdb")
		// Same data, no full-text index: CONTAINS evaluates per row.
		mustExec(b, s, `CREATE TABLE docs (id INT PRIMARY KEY, topic VARCHAR(16), title VARCHAR(32), body VARCHAR(512))`)
		docs := workload.GenDocuments(docCount, 7)
		var sb strings.Builder
		for start := 0; start < len(docs); start += 200 {
			sb.Reset()
			sb.WriteString("INSERT INTO docs VALUES ")
			end := start + 200
			if end > len(docs) {
				end = len(docs)
			}
			for i := start; i < end; i++ {
				if i > start {
					sb.WriteString(", ")
				}
				d := docs[i]
				fmt.Fprintf(&sb, "(%d, '%s', '%s', '%s')", d.ID, d.Topic, d.Title, d.Body)
			}
			mustExec(b, s, sb.String())
		}
		query := `SELECT COUNT(*) AS n FROM docs WHERE CONTAINS(body, 'parallel AND database')`
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mustQuery(b, s, query, nil)
		}
	})
}

// ---------------------------------------------------------------------
// E6 — §4.1.5: partition pruning across a 7-member federation.
// ---------------------------------------------------------------------

func e6Fixture(b *testing.B, members int) (*dhqp.Server, []*dhqp.Link) {
	head := dhqp.NewServer("head", "fed")
	var links []*dhqp.Link
	var arms []string
	for i := 0; i < members; i++ {
		yr := 1992 + i
		m := dhqp.NewServer(fmt.Sprintf("m%d", i), "fed")
		mustExec(b, m, fmt.Sprintf(
			`CREATE TABLE lineitem (l_orderkey INT NOT NULL, l_commitdate DATE NOT NULL CHECK (l_commitdate >= '%d-01-01' AND l_commitdate < '%d-01-01'), l_quantity INT)`,
			yr, yr+1))
		var sb strings.Builder
		sb.WriteString("INSERT INTO lineitem VALUES ")
		for j := 0; j < 300; j++ {
			if j > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, '%d-%02d-%02d', %d)", i*1000+j, yr, 1+j%12, 1+j%28, j%50)
		}
		mustExec(b, m, sb.String())
		link := dhqp.LAN()
		head.AddLinkedServer(fmt.Sprintf("server%d", i+1), dhqp.SQLProvider(m, link), link)
		links = append(links, link)
		arms = append(arms, fmt.Sprintf(
			"SELECT l_orderkey, l_commitdate, l_quantity FROM server%d.fed.dbo.lineitem", i+1))
	}
	mustExec(b, head, "CREATE VIEW all_lineitems AS "+strings.Join(arms, " UNION ALL "))
	return head, links
}

func BenchmarkE6_PartitionPruning(b *testing.B) {
	const members = 7
	b.Run("StaticPruning_ConstYear", func(b *testing.B) {
		head, links := e6Fixture(b, members)
		query := `SELECT COUNT(*) AS n FROM all_lineitems WHERE l_commitdate BETWEEN '1994-01-01' AND '1994-12-31'`
		mustQuery(b, head, query, nil)
		for _, l := range links {
			l.Reset()
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mustQuery(b, head, query, nil)
		}
		b.StopTimer()
		reportFederationTraffic(b, links)
	})
	b.Run("RuntimePruning_ParamYear", func(b *testing.B) {
		head, links := e6Fixture(b, members)
		query := `SELECT COUNT(*) AS n FROM all_lineitems WHERE l_commitdate = @d`
		params := dhqp.Params("d", dhqp.Date("1995-01-01"))
		mustQuery(b, head, query, params)
		for _, l := range links {
			l.Reset()
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mustQuery(b, head, query, params)
		}
		b.StopTimer()
		reportFederationTraffic(b, links)
	})
	b.Run("NoPruning_FullView", func(b *testing.B) {
		head, links := e6Fixture(b, members)
		query := `SELECT COUNT(*) AS n FROM all_lineitems`
		mustQuery(b, head, query, nil)
		for _, l := range links {
			l.Reset()
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mustQuery(b, head, query, nil)
		}
		b.StopTimer()
		reportFederationTraffic(b, links)
	})
}

func reportFederationTraffic(b *testing.B, links []*dhqp.Link) {
	var rows, bytes int64
	touched := 0
	for _, l := range links {
		s := l.Stats()
		rows += s.Rows
		bytes += s.Bytes
		if s.Calls > 0 {
			touched++
		}
	}
	b.ReportMetric(float64(rows)/float64(b.N), "rows-shipped/op")
	b.ReportMetric(float64(touched), "members-touched")
}

// ---------------------------------------------------------------------
// E7 — §4.1.2: spool over remote operations.
// ---------------------------------------------------------------------

func e7Fixture(b *testing.B, disableSpool bool) (*dhqp.Server, *dhqp.Link, *dhqp.Link) {
	local := dhqp.NewServer("local", "db")
	// Two different remote servers: whichever side of the non-equi join
	// becomes the loop inner is remote, so re-fetching it is observable.
	mk := func(name string, rows int) *dhqp.Link {
		remote := dhqp.NewServer(name, "rdb")
		mustExec(b, remote, `CREATE TABLE pts (id INT, v INT)`)
		var sb strings.Builder
		sb.WriteString("INSERT INTO pts VALUES ")
		for i := 0; i < rows; i++ {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, %d)", i, i%40)
		}
		mustExec(b, remote, sb.String())
		link := dhqp.LAN()
		local.AddLinkedServer(name, dhqp.SQLProvider(remote, link), link)
		return link
	}
	l0 := mk("r0", 120)
	l1 := mk("r1", 80)
	// Parameterization does not apply to non-equi joins, but disable it for
	// a clean ablation anyway.
	local.Configure(func(c *engine.Config) {
		c.DisableSpool = disableSpool
		c.DisableParameterization = true
	})
	return local, l0, l1
}

func BenchmarkE7_RemoteSpool(b *testing.B) {
	// Non-equi join of two remote tables on different servers forces a
	// nested-loop plan with a remote inner: with the spool enforcer the
	// inner ships once; without it, it re-fetches per outer row (§4.1.2,
	// §4.1.4).
	query := `SELECT COUNT(*) AS n FROM r0.rdb.dbo.pts a, r1.rdb.dbo.pts b WHERE a.v < b.v`
	for _, variant := range []struct {
		name    string
		disable bool
	}{
		{"WithSpool", false},
		{"SpoolDisabled", true},
	} {
		b.Run(variant.name, func(b *testing.B) {
			local, l0, l1 := e7Fixture(b, variant.disable)
			mustQuery(b, local, query, nil)
			l0.Reset()
			l1.Reset()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mustQuery(b, local, query, nil)
			}
			b.StopTimer()
			rows := l0.Stats().Rows + l1.Stats().Rows
			calls := l0.Stats().Calls + l1.Stats().Calls
			b.ReportMetric(float64(rows)/float64(b.N), "rows-shipped/op")
			b.ReportMetric(float64(calls)/float64(b.N), "remote-calls/op")
		})
	}
}

// ---------------------------------------------------------------------
// E8 — §4.1.1: the three optimization phases.
// ---------------------------------------------------------------------

func BenchmarkE8_OptimizationPhases(b *testing.B) {
	local, _ := e1Fixture(b)
	query := e1Query
	phases := []struct {
		name string
		max  rules.Phase
	}{
		{"TransactionProcessing", rules.PhaseTP},
		{"QuickPlan", rules.PhaseQuick},
		{"FullOptimization", rules.PhaseFull},
	}
	for _, ph := range phases {
		b.Run(ph.name, func(b *testing.B) {
			old := local.Config().OptConfig
			local.Configure(func(c *engine.Config) {
				c.OptConfig.MaxPhase = ph.max
				c.OptConfig.TPThreshold = 0 // never early-exit below the cap
				c.OptConfig.QuickThreshold = 0
			})
			defer local.Configure(func(c *engine.Config) { c.OptConfig = old })
			var cost float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, _, report, err := local.Plan(query)
				if err != nil {
					b.Fatal(err)
				}
				cost = report.FinalCost
			}
			b.ReportMetric(cost, "plan-cost")
		})
	}
}

// ---------------------------------------------------------------------
// E9 — §4.1.2: parameterization of remote queries.
// ---------------------------------------------------------------------

func e9Fixture(b *testing.B, disableParam bool) (*dhqp.Server, *dhqp.Link) {
	local := dhqp.NewServer("local", "db")
	remote := dhqp.NewServer("r", "rdb")
	mustExec(b, remote, `CREATE TABLE big (k INT PRIMARY KEY, payload VARCHAR(64))`)
	var sb strings.Builder
	sb.WriteString("INSERT INTO big VALUES ")
	for i := 0; i < 4000; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, 'payload-%060d')", i, i)
	}
	mustExec(b, remote, sb.String())
	mustExec(b, local, `CREATE TABLE wanted (k INT)`)
	mustExec(b, local, `INSERT INTO wanted VALUES (5), (1723), (3001)`)
	link := dhqp.LAN()
	local.AddLinkedServer("r0", dhqp.SQLProvider(remote, link), link)
	local.Configure(func(c *engine.Config) { c.DisableParameterization = disableParam })
	return local, link
}

func BenchmarkE9_Parameterization(b *testing.B) {
	query := `SELECT b.payload FROM wanted w, r0.rdb.dbo.big b WHERE w.k = b.k`
	for _, variant := range []struct {
		name    string
		disable bool
	}{
		{"Parameterized", false},
		{"ParameterizationDisabled", true},
	} {
		b.Run(variant.name, func(b *testing.B) {
			local, link := e9Fixture(b, variant.disable)
			res := mustQuery(b, local, query, nil)
			if len(res.Rows) != 3 {
				b.Fatalf("rows = %d", len(res.Rows))
			}
			link.Reset()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mustQuery(b, local, query, nil)
			}
			b.StopTimer()
			s := link.Stats()
			b.ReportMetric(float64(s.Rows)/float64(b.N), "rows-shipped/op")
			b.ReportMetric(float64(s.Bytes)/float64(b.N), "bytes-shipped/op")
		})
	}
}

// e9BatchFixture builds the batched key-lookup workload: a 200-row local
// probe table joins a 24000-row remote table on its primary key over a
// slow, high-latency link (10ms/call, 200 KB/s). At this shape serial
// per-row parameterized probing still beats shipping the remote table, so
// disabling batching measures the genuine per-call cost that
// BatchLoopJoin amortizes. The link is created with virtual delays only;
// the benchmark flips Sleep on after warming metadata caches.
func e9BatchFixture(b *testing.B, disableBatch bool) (*dhqp.Server, *dhqp.Link) {
	b.Helper()
	const remoteRows = 24000
	local := dhqp.NewServer("local", "db")
	remote := dhqp.NewServer("r", "rdb")
	mustExec(b, remote, `CREATE TABLE big (k INT PRIMARY KEY, payload VARCHAR(64))`)
	for lo := 0; lo < remoteRows; lo += 4000 {
		var sb strings.Builder
		sb.WriteString("INSERT INTO big VALUES ")
		for i := lo; i < lo+4000; i++ {
			if i > lo {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, 'payload-%060d')", i, i)
		}
		mustExec(b, remote, sb.String())
	}
	mustExec(b, local, `CREATE TABLE probe (k INT)`)
	var sb strings.Builder
	sb.WriteString("INSERT INTO probe VALUES ")
	for i := 0; i < 200; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d)", (i*97)%remoteRows)
	}
	mustExec(b, local, sb.String())
	link := &dhqp.Link{LatencyPerCall: 10 * time.Millisecond, BytesPerSecond: 200e3}
	if err := local.AddLinkedServer("r0", dhqp.SQLProvider(remote, link), link); err != nil {
		b.Fatal(err)
	}
	local.Configure(func(c *engine.Config) { c.DisableRemoteBatching = disableBatch })
	return local, link
}

// BenchmarkE9_BatchedKeyLookup gates on one link call per remote execution:
// each execution's answer fits one fetch, which rides the round trip that
// ships the statement, so the batched join makes cost.BatchLoopJoin's
// ⌈outer / K⌉ calls and the serial one a call per outer row.
func BenchmarkE9_BatchedKeyLookup(b *testing.B) {
	const outer = 200
	query := `SELECT b.payload FROM probe p, r0.rdb.dbo.big b WHERE p.k = b.k`
	for _, variant := range []struct {
		name    string
		disable bool
		execs   int
	}{
		{"Batched", false, (outer + cost.DefaultRemoteBatch - 1) / cost.DefaultRemoteBatch},
		{"Serial", true, outer},
	} {
		b.Run(variant.name, func(b *testing.B) {
			local, link := e9BatchFixture(b, variant.disable)
			res := mustQuery(b, local, query, nil)
			if len(res.Rows) != outer {
				b.Fatalf("rows = %d, want %d", len(res.Rows), outer)
			}
			link.Sleep = true // wall-clock from here on
			link.Reset()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mustQuery(b, local, query, nil)
			}
			b.StopTimer()
			link.Sleep = false
			s := link.Stats()
			b.ReportMetric(float64(s.Calls)/float64(b.N), "calls/op")
			b.ReportMetric(float64(s.Rows)/float64(b.N), "rows-shipped/op")
			b.ReportMetric(float64(s.Bytes)/float64(b.N), "bytes-shipped/op")
			if want := int64(variant.execs * b.N); s.Calls != want {
				b.Errorf("%d link calls over %d statements, want one per remote execution: %d", s.Calls, b.N, want)
			}
		})
	}
}

// ---------------------------------------------------------------------
// E10 — §2.1/§3.3: pushdown vs provider capability level.
// ---------------------------------------------------------------------

func BenchmarkE10_CapabilityPushdown(b *testing.B) {
	build := func(b *testing.B, caps dhqp.Capabilities) (*dhqp.Server, *dhqp.Link) {
		local := dhqp.NewServer("local", "db")
		remote := dhqp.NewServer("r", "rdb")
		mustExec(b, remote, `CREATE TABLE sales (region INT, product INT, amount INT)`)
		var sb strings.Builder
		sb.WriteString("INSERT INTO sales VALUES ")
		for i := 0; i < 3000; i++ {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, %d, %d)", i%8, i%50, i)
		}
		mustExec(b, remote, sb.String())
		link := dhqp.LAN()
		local.AddLinkedServer("r0", dhqp.SQLProviderWithCaps(remote, link, caps), link)
		return local, link
	}
	query := `SELECT region, COUNT(*) AS n, SUM(amount) AS total
		FROM r0.rdb.dbo.sales WHERE amount > 100 GROUP BY region`
	variants := []struct {
		name string
		caps dhqp.Capabilities
	}{
		{"SQL92Full", dhqp.FullSQLCapabilities()},
		{"ODBCCore", dhqp.ODBCCoreCapabilities()},
		{"SQLMinimum", dhqp.MinimalSQLCapabilities()},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			local, link := build(b, v.caps)
			mustQuery(b, local, query, nil)
			link.Reset()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := mustQuery(b, local, query, nil)
				if len(res.Rows) != 8 {
					b.Fatalf("groups = %d", len(res.Rows))
				}
			}
			b.StopTimer()
			s := link.Stats()
			b.ReportMetric(float64(s.Rows)/float64(b.N), "rows-shipped/op")
		})
	}
}

// ---------------------------------------------------------------------
// E11 — §4.1.5: federated TPC-C-style scale-out.
// ---------------------------------------------------------------------

// buildStockFederation assembles the E11 fixture: a head server plus
// `members` member servers, each holding one range partition of a
// `totalRows`-row stock table, unioned under the all_stock view. With
// sleep=true the links delay for real wall-clock time (serial-vs-parallel
// elapsed-time comparisons); otherwise delays are virtual-only.
func buildStockFederation(b *testing.B, members, totalRows int, sleep bool) *dhqp.Server {
	b.Helper()
	head := dhqp.NewServer("head", "fed")
	var arms []string
	perMember := totalRows / members
	for i := 0; i < members; i++ {
		lo, hi := i*perMember, (i+1)*perMember
		m := dhqp.NewServer(fmt.Sprintf("w%d", i), "fed")
		mustExec(b, m, fmt.Sprintf(
			`CREATE TABLE stock (s_id INT NOT NULL CHECK (s_id >= %d AND s_id < %d), s_qty INT)`, lo, hi))
		var sb strings.Builder
		sb.WriteString("INSERT INTO stock VALUES ")
		for j := lo; j < hi; j++ {
			if j > lo {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, %d)", j, 100)
		}
		mustExec(b, m, sb.String())
		link := dhqp.LAN()
		link.Sleep = sleep
		head.AddLinkedServer(fmt.Sprintf("server%d", i+1), dhqp.SQLProvider(m, link), link)
		arms = append(arms, fmt.Sprintf("SELECT s_id, s_qty FROM server%d.fed.dbo.stock", i+1))
	}
	mustExec(b, head, "CREATE VIEW all_stock AS "+strings.Join(arms, " UNION ALL "))
	return head
}

func BenchmarkE11_FederationScaleout(b *testing.B) {
	for _, members := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("Members%d", members), func(b *testing.B) {
			head := buildStockFederation(b, members, 4000, false)
			// New-order-like transaction: a point read through the view.
			query := `SELECT s_qty FROM all_stock WHERE s_id = @id`
			mustQuery(b, head, query, dhqp.Params("id", dhqp.Int(1)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := dhqp.Int(int64((i * 37) % 4000))
				res := mustQuery(b, head, query, dhqp.Params("id", id))
				if len(res.Rows) != 1 {
					b.Fatalf("rows = %d", len(res.Rows))
				}
			}
		})
	}
}

// BenchmarkE11_FanOutWallClock compares serial and parallel execution of a
// whole-view scan with sleeping links: elapsed time is dominated by link
// round trips, so the parallel exchange should approach the time of the
// slowest member rather than the sum over all members (~members× speedup).
func BenchmarkE11_FanOutWallClock(b *testing.B) {
	const members, totalRows = 4, 2000
	for _, mode := range []struct {
		name string
		dop  int
	}{{"Serial", 1}, {"Parallel", 0}} {
		b.Run(mode.name, func(b *testing.B) {
			head := buildStockFederation(b, members, totalRows, true)
			head.Configure(func(c *engine.Config) { c.MaxDOP = mode.dop })
			query := `SELECT s_id, s_qty FROM all_stock`
			mustQuery(b, head, query, nil)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := mustQuery(b, head, query, nil)
				if len(res.Rows) != totalRows {
					b.Fatalf("rows = %d", len(res.Rows))
				}
			}
		})
	}
}

// ---------------------------------------------------------------------
// E12 — §2.4: the heterogeneous mail + Access query.
// ---------------------------------------------------------------------

func BenchmarkE12_EmailFederation(b *testing.B) {
	s := dhqp.NewServer("local", "db")
	senders := []string{"ann@nw.com", "bob@nw.com", "cat@nw.com", "dan@s.com"}
	s.MailStore().AddMailbox("m.mmf", workload.GenMailbox(500, s.Config().Today, senders, 5))
	access := dhqp.SimpleProvider(nil)
	if err := access.LoadCSV("Customers", "emailaddr,city\nann@nw.com,Seattle\nbob@nw.com,Seattle\ncat@nw.com,Tacoma\ndan@s.com,Austin"); err != nil {
		b.Fatal(err)
	}
	s.RegisterProviderFactory("access", dhqp.StaticProviderFactory(access))
	query := `SELECT m1.subject FROM MakeTable(Mail, 'm.mmf') m1,
		MakeTable(Access, 'x.mdb', Customers) c
		WHERE m1.date >= date(today(), -2) AND m1.from = c.emailaddr AND c.city = 'Seattle'
		AND NOT EXISTS (SELECT * FROM MakeTable(Mail, 'm.mmf') m2 WHERE m1.msgid = m2.inreplyto)`
	mustQuery(b, s, query, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustQuery(b, s, query, nil)
	}
}

// ---------------------------------------------------------------------
// Optimizer scaling: memo growth and optimization time vs join-chain
// width (supporting E8's phase analysis).
// ---------------------------------------------------------------------

func BenchmarkOptimizerJoinChain(b *testing.B) {
	for _, width := range []int{2, 3, 4, 5} {
		b.Run(fmt.Sprintf("Joins%d", width), func(b *testing.B) {
			local := dhqp.NewServer("local", "db")
			remote := dhqp.NewServer("r", "rdb")
			var from, where []string
			for i := 0; i < width; i++ {
				tbl := fmt.Sprintf("t%d", i)
				mustExec(b, remote, fmt.Sprintf(`CREATE TABLE %s (k INT PRIMARY KEY, v INT)`, tbl))
				var sb strings.Builder
				sb.WriteString("INSERT INTO " + tbl + " VALUES ")
				for j := 0; j < 100; j++ {
					if j > 0 {
						sb.WriteString(", ")
					}
					fmt.Fprintf(&sb, "(%d, %d)", j, j%10)
				}
				mustExec(b, remote, sb.String())
				from = append(from, fmt.Sprintf("r0.rdb.dbo.%s a%d", tbl, i))
				if i > 0 {
					where = append(where, fmt.Sprintf("a%d.k = a%d.k", i-1, i))
				}
			}
			link := dhqp.LAN()
			local.AddLinkedServer("r0", dhqp.SQLProvider(remote, link), link)
			sql := "SELECT COUNT(*) AS n FROM " + strings.Join(from, ", ") +
				" WHERE " + strings.Join(where, " AND ")
			if _, _, _, err := local.Plan(sql); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var groups float64
			for i := 0; i < b.N; i++ {
				_, _, report, err := local.Plan(sql)
				if err != nil {
					b.Fatal(err)
				}
				groups = float64(report.Groups)
			}
			b.ReportMetric(groups, "memo-groups")
		})
	}
}

// ---------------------------------------------------------------------
// E16 — vectorized batch execution: the local operator pipeline driven
// row-at-a-time vs in 1024-row column batches. cmd/benchrunner runs the
// full 1M-row version and records BENCH_E16.json; this benchmark keeps the
// same plan shapes at a size CI can afford.
// ---------------------------------------------------------------------

func e16Fixture(b *testing.B) *dhqp.Server {
	b.Helper()
	s := dhqp.NewServer("local", "stardb")
	if err := workload.LoadFactDim(s, "stardb", workload.FactDimConfig{
		FactRows: 200_000, DimRows: 200, Seed: 7,
	}); err != nil {
		b.Fatal(err)
	}
	return s
}

func BenchmarkE16_VectorizedPipeline(b *testing.B) {
	const factRows = 200_000
	cases := []struct {
		name, query string
	}{
		{"ScanFilter", `SELECT f_val FROM fact WHERE f_val < 2500`},
		{"ScanFilterFloat", `SELECT f_fv FROM fact WHERE f_fv < 2500.0`},
		{"ScanJoinAgg", `SELECT d.d_name, COUNT(*) AS n, SUM(f.f_val) AS sv
			FROM fact f, dim d WHERE f.f_dim = d.d_id AND f.f_val < 5000 GROUP BY d.d_name`},
	}
	for _, c := range cases {
		b.Run(c.name+"/Typed", func(b *testing.B) {
			s := e16Fixture(b)
			want := len(mustQuery(b, s, c.query, nil).Rows) // warm plan cache
			b.ReportAllocs()
			b.ResetTimer()
			var elapsed time.Duration
			for i := 0; i < b.N; i++ {
				start := time.Now()
				res := mustQuery(b, s, c.query, nil)
				elapsed += time.Since(start)
				if len(res.Rows) != want {
					b.Fatalf("rows = %d, want %d", len(res.Rows), want)
				}
			}
			b.StopTimer()
			if elapsed > 0 {
				b.ReportMetric(float64(factRows)*float64(b.N)/elapsed.Seconds(), "fact-rows/sec")
			}
		})
	}
}

// ---------------------------------------------------------------------
// E14 — fault-tolerant remote access: the cost of riding out injected
// transient faults with retries, and degraded partial-results execution
// when a member server is down.
// ---------------------------------------------------------------------

func BenchmarkE14_FaultTolerance(b *testing.B) {
	const members, totalRows = 4, 2000
	query := `SELECT s_id, s_qty FROM all_stock`
	for _, mode := range []struct {
		name string
		prob float64
	}{{"FaultFree", 0}, {"Transient5pct", 0.05}, {"Transient10pct", 0.10}} {
		b.Run(mode.name, func(b *testing.B) {
			head := buildStockFederation(b, members, totalRows, false)
			mustQuery(b, head, query, nil) // warm plan + schema
			if mode.prob > 0 {
				for i := 1; i <= members; i++ {
					head.Meter().Link(fmt.Sprintf("server%d", i)).SetFaults(
						dhqp.Faults{Seed: int64(i), TransientProb: mode.prob})
				}
			}
			b.ResetTimer()
			var retries int64
			for i := 0; i < b.N; i++ {
				res := mustQuery(b, head, query, nil)
				if len(res.Rows) != totalRows {
					b.Fatalf("rows = %d", len(res.Rows))
				}
				retries += res.Retries
			}
			b.ReportMetric(float64(retries)/float64(b.N), "retries/op")
		})
	}
	b.Run("PartialResults", func(b *testing.B) {
		head := buildStockFederation(b, members, totalRows, false)
		head.Configure(func(c *engine.Config) {
			c.RemoteRetries = 2
			c.RetryBackoff = time.Microsecond
			c.BreakerThreshold, c.BreakerCooldown = 2, time.Hour
			c.PartialResults = true
		})
		mustQuery(b, head, query, nil)
		head.Meter().Link("server4").SetDown(true)
		// The first failing query pays the retry ladder and trips the
		// breaker; every query in the timed loop then fails fast on the
		// dead member and answers from the survivors.
		if _, err := head.Query(query, nil); err == nil {
			b.Fatal("first query against a downed member should fail (breaker not yet open)")
		}
		want := totalRows - totalRows/members
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res := mustQuery(b, head, query, nil)
			if len(res.Rows) != want || len(res.Skipped) != 1 {
				b.Fatalf("rows = %d skipped = %v", len(res.Rows), res.Skipped)
			}
		}
	})
}

// ---------------------------------------------------------------------
// Keyed DML: UPDATE/DELETE by primary key and by a 100-key range, plus a
// snapshot seek that commits have overtaken, at 10k / 100k / 1M rows.
// Every statement is timed on its own and the median reported as ns/stmt;
// a case whose 1M-row median exceeds three times its 10k-row median fails
// the benchmark. The ratio is taken inside one run, so host speed cancels.
// ---------------------------------------------------------------------

func BenchmarkKeyedDML(b *testing.B) {
	const stmtsPerOp, span = 200, 100
	type fixture struct {
		s    *dhqp.Server
		fact *storage.Table
		n    int
		rng  *rand.Rand
	}
	exec := func(b *testing.B, f *fixture, want int64, sql string, kv ...any) time.Duration {
		start := time.Now()
		got, err := f.s.ExecParams(sql, dhqp.Params(kv...))
		d := time.Since(start)
		if err != nil || got != want {
			b.Fatalf("%s: %d rows, err %v; want %d rows", sql, got, err, want)
		}
		return d
	}
	// reinsert puts deleted rows back (untimed) so the table keeps its size.
	reinsert := func(b *testing.B, f *fixture, lo, hi int) {
		for id := lo; id < hi; id++ {
			r := rowset.Row{dhqp.Int(int64(id)), dhqp.Int(0), dhqp.Int(1), dhqp.Int(2), dhqp.Float(3)}
			if _, err := f.fact.Insert(r); err != nil {
				b.Fatal(err)
			}
		}
	}
	cases := []struct {
		name  string
		gated bool
		stmt  func(b *testing.B, f *fixture) time.Duration
	}{
		{"UpdatePK", true, func(b *testing.B, f *fixture) time.Duration {
			return exec(b, f, 1, `UPDATE fact SET f_val = @v WHERE f_id = @id`, "v", dhqp.Int(7), "id", dhqp.Int(f.rng.Int63n(int64(f.n))))
		}},
		{"UpdateRange", true, func(b *testing.B, f *fixture) time.Duration {
			lo := f.rng.Int63n(int64(f.n - span))
			return exec(b, f, span, `UPDATE fact SET f_val = f_val + 1 WHERE f_id >= @lo AND f_id < @hi`, "lo", dhqp.Int(lo), "hi", dhqp.Int(lo+span))
		}},
		// The deletes take the top of the key space, as a workload that
		// deletes what it inserted last does (TPC-C new-order rows, the
		// repository benchmark's write cycle): removing an entry from the
		// sorted-slice index shifts every entry above it.
		{"DeletePK", true, func(b *testing.B, f *fixture) time.Duration {
			d := exec(b, f, 1, `DELETE FROM fact WHERE f_id = @id`, "id", dhqp.Int(int64(f.n-1)))
			reinsert(b, f, f.n-1, f.n)
			return d
		}},
		{"DeleteRange", true, func(b *testing.B, f *fixture) time.Duration {
			d := exec(b, f, span, `DELETE FROM fact WHERE f_id >= @lo AND f_id < @hi`, "lo", dhqp.Int(int64(f.n-span)), "hi", dhqp.Int(int64(f.n)))
			reinsert(b, f, f.n-span, f.n)
			return d
		}},
		// Reported, not gated: a delete in mid-table pays that shift, which
		// grows with the table whatever access path found the row.
		{"DeletePKMidTable", false, func(b *testing.B, f *fixture) time.Duration {
			id := f.n/4 + f.rng.Intn(f.n/2)
			d := exec(b, f, 1, `DELETE FROM fact WHERE f_id = @id`, "id", dhqp.Int(int64(id)))
			reinsert(b, f, id, id+1)
			return d
		}},
		// A seek at a snapshot that eight commits have since overtaken: the
		// path a statement takes when it began during another's commit.
		{"SeekBehindCommits", true, func(b *testing.B, f *fixture) time.Duration {
			snap := f.s.Store().AcquireSnapshot()
			defer snap.Release()
			for i := 0; i < 8; i++ {
				exec(b, f, 1, `UPDATE fact SET f_val = @v WHERE f_id = @id`, "v", dhqp.Int(9), "id", dhqp.Int(f.rng.Int63n(int64(f.n))))
			}
			pk, _ := f.fact.Index("pk_fact")
			key := storage.Bound{Key: rowset.Row{dhqp.Int(f.rng.Int63n(int64(f.n - span)))}, Inclusive: true}
			start := time.Now()
			rs := pk.RangeAt(key, key, snap.CSN())
			d := time.Since(start)
			if err := rs.NextBatch(rowset.NewBatch(1)); err != nil {
				b.Fatalf("seek at the snapshot found no row: %v", err)
			}
			return d
		}},
	}
	medians := map[string]map[int]float64{}
	for _, n := range []int{10_000, 100_000, 1_000_000} {
		s := dhqp.NewServer("bench", "db")
		if err := workload.LoadFactDim(s, "db", workload.FactDimConfig{FactRows: n, DimRows: 1, Seed: 1}); err != nil {
			b.Fatal(err)
		}
		db, _ := s.Store().Database("db")
		fact, _ := db.Table("fact")
		f := &fixture{s: s, fact: fact, n: n, rng: rand.New(rand.NewSource(int64(n)))}
		runtime.GC() // the load's garbage is not the statements'
		for _, c := range cases {
			b.Run(fmt.Sprintf("%s/rows=%d", c.name, n), func(b *testing.B) {
				c.stmt(b, f) // warm
				times := make([]time.Duration, 0, b.N*stmtsPerOp)
				b.ResetTimer()
				for i := 0; i < b.N*stmtsPerOp; i++ {
					times = append(times, c.stmt(b, f))
				}
				b.StopTimer()
				sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
				med := float64(times[len(times)/2])
				b.ReportMetric(med, "ns/stmt")
				if medians[c.name] == nil {
					medians[c.name] = map[int]float64{}
				}
				medians[c.name][n] = med
			})
		}
	}
	for _, c := range cases {
		small, large := medians[c.name][10_000], medians[c.name][1_000_000]
		if !c.gated || small == 0 || large == 0 {
			continue
		}
		if large > 3*small {
			b.Errorf("%s: %.0f ns/stmt at 1M rows is %.1fx the %.0f ns/stmt at 10k rows; the gate is 3x", c.name, large, large/small, small)
		} else {
			b.Logf("%s: 1M/10k = %.2fx (gate 3x)", c.name, large/small)
		}
	}
}

// ---------------------------------------------------------------------
// Statement allocation budget: what a statement allocates must follow the
// rows it holds, not the batch ceiling. Three statements — a cached
// one-row point read, a 32-member partial-aggregate scatter (links do not
// sleep) and a pruned 4 000-row scan as a member runs it — report
// B/stmt, and three gates that do not depend on host speed fail the
// benchmark: the point read at SetBatchSize(4096) within 1.25x of
// SetBatchSize(64), the point read at the default size ≤ 2 064 B and ≤ 21
// allocations, and the scatter ≤ 350 KiB per member touched.
// ---------------------------------------------------------------------

// loadRows fills a table through 1 000-row INSERT statements.
func loadRows(b *testing.B, s *dhqp.Server, table string, n int, row func(i int) string) {
	b.Helper()
	for lo := 0; lo < n; lo += 1000 {
		vals := make([]string, 0, 1000)
		for i := lo; i < lo+1000 && i < n; i++ {
			vals = append(vals, row(i))
		}
		mustExec(b, s, "INSERT INTO "+table+" VALUES "+strings.Join(vals, ", "))
	}
}

func BenchmarkStatementAllocs(b *testing.B) {
	// A cached point read boxes its one row straight from the root batch:
	// at most 2 064 B and 21 objects per statement (2 032 B and 20 after
	// the batch-size-64 case, 2 063 B and 20.5 when run alone, the first
	// executions building its kept tree).
	const stmtsPerOp, pointBytesGate, pointAllocsGate = 50, 2064, 21
	// measure runs stmt stmtsPerOp times per op and returns bytes allocated
	// per statement, process-wide (members allocate on their own goroutines);
	// allocs receives the objects allocated per statement.
	var allocs float64
	measure := func(b *testing.B, stmt func(i int)) float64 {
		b.Helper()
		stmt(0) // warm: compile, columnar images, remote metadata
		b.ReportAllocs()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b.ResetTimer()
		for i := 1; i <= b.N*stmtsPerOp; i++ {
			stmt(i)
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		perStmt := float64(after.TotalAlloc-before.TotalAlloc) / float64(b.N*stmtsPerOp)
		allocs = float64(after.Mallocs-before.Mallocs) / float64(b.N*stmtsPerOp)
		b.ReportMetric(perStmt, "B/stmt")
		b.ReportMetric(allocs, "allocs/stmt")
		return perStmt
	}

	bank := dhqp.NewServer("bench", "db")
	mustExec(b, bank, `CREATE TABLE acct (id INT PRIMARY KEY, owner VARCHAR(24), bal INT)`)
	loadRows(b, bank, "acct", 10_000, func(i int) string { return fmt.Sprintf("(%d, 'owner-%06d', %d)", i, i, i%9973) })
	pointRead := func(i int) {
		id := int64(i*37) % 10_000
		res := mustQuery(b, bank, `SELECT owner, bal FROM acct WHERE id = @id`, dhqp.Params("id", dhqp.Int(id)))
		if len(res.Rows) != 1 || res.Rows[0][1].Int() != id%9973 {
			b.Fatalf("point read of %d: %v", id, res.Rows)
		}
	}
	point := map[int]float64{}
	var pointAllocs float64
	for _, size := range []int{64, 0, 4096} {
		b.Run(fmt.Sprintf("PointRead/batch=%d", size), func(b *testing.B) {
			bank.Configure(func(c *engine.Config) { c.BatchSize = size })
			point[size] = measure(b, pointRead)
			if size == 0 {
				pointAllocs = allocs
			}
		})
	}
	bank.Configure(func(c *engine.Config) { c.BatchSize = 0 })

	const members, perMember = 32, 1000
	head := dhqp.NewServer("head", "fed")
	var placements []dhqp.ShardPlacement
	for i := 0; i < members; i++ {
		m := dhqp.NewServer(fmt.Sprintf("w%d", i), "fed")
		mustExec(b, m, `CREATE TABLE bootstrap (x INT)`) // the database must exist before forwarded DDL lands
		link := dhqp.LAN()
		name := fmt.Sprintf("server%d", i+1)
		if err := head.AddLinkedServer(name, dhqp.SQLProvider(m, link), link); err != nil {
			b.Fatal(err)
		}
		placements = append(placements, dhqp.ShardPlacement{Server: name, Lo: int64(i * perMember), Hi: int64((i + 1) * perMember)})
	}
	cols := []dhqp.Column{
		{Name: "o_id", Kind: dhqp.KindInt}, {Name: "o_cust", Kind: dhqp.KindInt},
		{Name: "o_region", Kind: dhqp.KindInt}, {Name: "amount", Kind: dhqp.KindInt},
	}
	if err := head.CreateElasticView("orders", "o_id", cols, placements); err != nil {
		b.Fatal(err)
	}
	loadRows(b, head, "orders", members*perMember, func(i int) string {
		return fmt.Sprintf("(%d, %d, %d, %d)", i, i%977, i%5, i%1000)
	})
	for i := 0; i < members; i++ {
		head.InvalidateRemoteSchema(fmt.Sprintf("server%d", i+1))
	}
	var scatter float64
	b.Run("Scatter32", func(b *testing.B) {
		scatter = measure(b, func(i int) {
			// The always-true second conjunct makes every text new, so each
			// statement compiles, as in the repository benchmark.
			sql := fmt.Sprintf(`SELECT o_region, COUNT(o_id), SUM(amount), AVG(amount) FROM orders WHERE amount >= 100 AND o_cust < %d GROUP BY o_region`, 1000+i)
			if res := mustQuery(b, head, sql, nil); len(res.Rows) != 5 {
				b.Fatalf("scatter: %d groups, want 5", len(res.Rows))
			}
		}) / members
		b.ReportMetric(scatter, "B/member")
	})

	member := dhqp.NewServer("w0", "fed")
	mustExec(b, member, `CREATE TABLE orders (o_id INT PRIMARY KEY, o_cust INT, o_region INT, amount INT)`)
	loadRows(b, member, "orders", 4000, func(i int) string { return fmt.Sprintf("(%d, %d, %d, %d)", i, i%977, i%5, i%1000) })
	b.Run("PrunedMemberScan4000", func(b *testing.B) {
		measure(b, func(int) {
			if res := mustQuery(b, member, `SELECT o_id, o_cust, amount FROM orders`, nil); len(res.Rows) != 4000 {
				b.Fatalf("member scan: %d rows", len(res.Rows))
			}
		})
	})

	if point[64] == 0 || point[4096] == 0 || point[0] == 0 || scatter == 0 {
		return // a -bench filter selected only some cases: nothing to gate
	}
	if r := point[4096] / point[64]; r > 1.25 {
		b.Errorf("point read: %.0f B/stmt at batch size 4096 is %.2fx the %.0f B/stmt at 64; the gate is 1.25x", point[4096], r, point[64])
	}
	if point[0] > pointBytesGate || pointAllocs > pointAllocsGate {
		b.Errorf("point read: %.0f B and %.0f allocations per statement, the gates are %d and %d", point[0], pointAllocs, pointBytesGate, pointAllocsGate)
	}
	if scatter > 350<<10 {
		b.Errorf("scatter: %.0f B per member touched, the gate is %d", scatter, 350<<10)
	}
	b.Logf("point read 4096/64 = %.2fx (gate 1.25x), %.0f B and %.0f allocations per statement (gates %d and %d), scatter %.0f KiB/member (gate 350)",
		point[4096]/point[64], point[0], pointAllocs, pointBytesGate, pointAllocsGate, scatter/1024)
}

// ---------------------------------------------------------------------
// Scan after write: a keyed UPDATE followed by a full scan of the same
// 4-column table, the shape that once made every scan after a one-row
// write rebuild the whole table. Reports bytes, allocations and ns per
// pair and per scan alone at 20 000 and 200 000 rows; the gate, which
// does not depend on host speed, holds the pair's bytes beyond the scan
// alone at 200 000 rows to at most 2x those at 20 000. Each size runs
// scanAfterWritePairs pairs on distinct keys, fewer than either size's
// scan merge bound (an eighth of the table), so every scan reads through a
// growing delta; the storage package's TestScanAfterWriteCostFlat covers
// the merges, over whole delta epochs.
// ---------------------------------------------------------------------

const scanAfterWritePairs = 2048

func BenchmarkScanAfterWrite(b *testing.B) {
	type cost struct{ bytes, allocs, ns float64 }
	measure := func(b *testing.B, stmt func(i int)) cost {
		b.Helper()
		stmt(0) // warm: compile, and a scan that folds the load into main
		stmt(0)
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		b.ResetTimer()
		for i := 1; i <= b.N*scanAfterWritePairs; i++ {
			stmt(i)
		}
		b.StopTimer()
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		n := float64(b.N * scanAfterWritePairs)
		c := cost{float64(after.TotalAlloc-before.TotalAlloc) / n, float64(after.Mallocs-before.Mallocs) / n, float64(elapsed.Nanoseconds()) / n}
		b.ReportMetric(c.bytes, "B/stmt")
		b.ReportMetric(c.allocs, "allocs/stmt")
		b.ReportMetric(c.ns, "ns/stmt")
		return c
	}
	scans, pairs := map[int]cost{}, map[int]cost{}
	for _, n := range []int{20_000, 200_000} {
		s := dhqp.NewServer("bench", "db")
		mustExec(b, s, `CREATE TABLE f (k INT PRIMARY KEY, g INT, v INT, w INT)`)
		db, _ := s.Store().Database("db")
		f, _ := db.Table("f")
		for i := 0; i < n; i++ {
			if _, err := f.Insert(rowset.Row{dhqp.Int(int64(i)), dhqp.Int(int64(i % 97)), dhqp.Int(1), dhqp.Int(int64(i))}); err != nil {
				b.Fatal(err)
			}
		}
		want := int64(n/97 + 1)
		if n%97 <= 7 {
			want--
		}
		scan := func(int) {
			res := mustQuery(b, s, `SELECT COUNT(*), SUM(v) FROM f WHERE g = 7`, nil)
			if got := res.Rows[0][0].Int(); got != want {
				b.Fatalf("scan of %d rows counted %d, want %d", n, got, want)
			}
		}
		b.Run(fmt.Sprintf("Scan/rows=%d", n), func(b *testing.B) { scans[n] = measure(b, scan) })
		b.Run(fmt.Sprintf("UpdateScan/rows=%d", n), func(b *testing.B) {
			pairs[n] = measure(b, func(i int) {
				key := int64(i) * 7919 % int64(n)
				if got, err := s.ExecParams(`UPDATE f SET v = v + 1 WHERE k = @k`, dhqp.Params("k", dhqp.Int(key))); err != nil || got != 1 {
					b.Fatalf("update of key %d: %d rows, %v", key, got, err)
				}
				scan(i)
			})
		})
	}
	small, large := pairs[20_000].bytes-scans[20_000].bytes, pairs[200_000].bytes-scans[200_000].bytes
	if scans[20_000].bytes == 0 || scans[200_000].bytes == 0 || small <= 0 {
		return // a -bench filter selected only some cases: nothing to gate
	}
	if large > 2*small {
		b.Errorf("a write before a scan costs %.0f B at 200 000 rows, %.1fx the %.0f B at 20 000; the gate is 2x", large, large/small, small)
	}
	b.Logf("pair beyond the scan alone: %.0f B at 20 000 rows, %.0f B at 200 000 (%.2fx, gate 2x); pair %.0f ns vs scan alone %.0f ns at 200 000 rows (%.2fx)",
		small, large, large/small, pairs[200_000].ns, scans[200_000].ns, pairs[200_000].ns/scans[200_000].ns)
}

// BenchmarkShippedWindow counts what a shipped key window costs on the
// wire: a 32-member elastic view of 4 000 keys per member joined to a local
// customer table, 1 500-key windows at random offsets (the repository
// benchmark's fed_row_ship statement). Counts only — no link sleeps — so the
// gates hold on any host: the statement reaches only the members that own a
// piece of the window, pays exactly max(1, ⌈rows / batch⌉) round trips per
// member it opens (the statement rides the first fetch's round trip, and
// each fetch is one batch of the consumer's size), and ships exactly the
// rows and row bytes the same window ships from those members when nothing
// is pruned.
func BenchmarkShippedWindow(b *testing.B) {
	const members, perMember, custRows, window, stmtsPerOp = 32, 4000, 5000, 1500, 20
	const pruned = `SELECT o.o_id, c.c_name, o.amount FROM orders o JOIN cust c ON o.o_cust = c.c_id WHERE o.o_id >= @lo AND o.o_id < @hi`
	// No conjunct compares the shard key itself to a parameter, so no
	// startup filter is derived; the range still reaches every member.
	const unpruned = `SELECT o.o_id, c.c_name, o.amount FROM orders o JOIN cust c ON o.o_cust = c.c_id WHERE o.o_id + 0 >= @lo AND o.o_id + 0 < @hi`

	head := dhqp.NewServer("head", "fed")
	var placements []dhqp.ShardPlacement
	var links []*dhqp.Link
	for i := 0; i < members; i++ {
		m := dhqp.NewServer(fmt.Sprintf("w%d", i), "fed")
		mustExec(b, m, `CREATE TABLE bootstrap (x INT)`) // the database must exist before forwarded DDL lands
		link := dhqp.LAN()
		name := fmt.Sprintf("server%d", i+1)
		if err := head.AddLinkedServer(name, dhqp.SQLProvider(m, link), link); err != nil {
			b.Fatal(err)
		}
		links = append(links, link)
		placements = append(placements, dhqp.ShardPlacement{Server: name, Lo: int64(i * perMember), Hi: int64((i + 1) * perMember)})
	}
	cols := []dhqp.Column{
		{Name: "o_id", Kind: dhqp.KindInt}, {Name: "o_cust", Kind: dhqp.KindInt},
		{Name: "o_region", Kind: dhqp.KindInt}, {Name: "amount", Kind: dhqp.KindInt},
	}
	if err := head.CreateElasticView("orders", "o_id", cols, placements); err != nil {
		b.Fatal(err)
	}
	loadRows(b, head, "orders", members*perMember, func(i int) string {
		return fmt.Sprintf("(%d, %d, %d, %d)", i, i*31%custRows, i%5, i%1000)
	})
	mustExec(b, head, `CREATE TABLE cust (c_id INT PRIMARY KEY, c_name VARCHAR(24))`)
	loadRows(b, head, "cust", custRows, func(i int) string { return fmt.Sprintf("(%d, 'cust-%06d')", i, i) })
	for i := 0; i < members; i++ {
		head.InvalidateRemoteSchema(fmt.Sprintf("server%d", i+1))
	}

	// run executes sql over [lo, lo+window) and returns each link's traffic.
	run := func(b *testing.B, sql string, lo int) []netsim.Stats {
		for _, l := range links {
			l.Reset()
		}
		res := mustQuery(b, head, sql, dhqp.Params("lo", dhqp.Int(int64(lo)), "hi", dhqp.Int(int64(lo+window))))
		if len(res.Rows) != window {
			b.Fatalf("[%d,%d): %d rows", lo, lo+window, len(res.Rows))
		}
		out := make([]netsim.Stats, len(links))
		for i, l := range links {
			out[i] = l.Stats()
		}
		return out
	}
	// stmtBytes[sql][i] is what shipping the statement itself to member i
	// costs: its shipped text and 16 bytes per parameter the text names (the
	// two window bounds, plus the lifted constants of the unpruned form).
	stmtBytes := map[string][]int64{}
	for _, sql := range []string{pruned, unpruned} {
		plan, _, _, err := head.Plan(sql)
		if err != nil {
			b.Fatal(err)
		}
		per := make([]int64, members)
		var walk func(n *algebra.Node)
		walk = func(n *algebra.Node) {
			if rq, ok := n.Op.(*algebra.RemoteQuery); ok {
				var i int
				if _, err := fmt.Sscanf(rq.Server, "server%d", &i); err != nil {
					b.Fatal(err)
				}
				per[i-1] = int64(len(rq.SQL) + 16*(len(rq.Params)+len(rq.Binds)))
			}
			for _, k := range n.Kids {
				walk(k)
			}
		}
		walk(plan)
		stmtBytes[sql] = per
		run(b, sql, 0) // warm the plan cache
	}

	calls := map[int]float64{}
	for _, size := range []int{64, 0, 4096} {
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			head.Configure(func(c *engine.Config) { c.BatchSize = size })
			fetch := int64(rowset.ClampBatchSize(size))
			rng := rand.New(rand.NewSource(15))
			var nCalls, nRows, nBytes, nMembers, maxMembers int64
			b.ResetTimer()
			for i := 0; i < b.N*stmtsPerOp; i++ {
				lo := rng.Intn(members*perMember - window + 1)
				reached := int64(0)
				for m, s := range run(b, pruned, lo) {
					if s.Calls == 0 {
						continue
					}
					reached++
					nCalls, nRows, nBytes = nCalls+s.Calls, nRows+s.Rows, nBytes+s.Bytes
					if mlo, mhi := m*perMember, (m+1)*perMember; lo >= mhi || lo+window <= mlo {
						b.Fatalf("[%d,%d) reached server%d, which owns [%d,%d)", lo, lo+window, m+1, mlo, mhi)
					}
					if want := max(1, (s.Rows+fetch-1)/fetch); s.Calls != want {
						b.Errorf("[%d,%d) server%d: %d rows in %d calls at batch size %d, want max(1, ⌈rows / batch⌉) = %d",
							lo, lo+window, m+1, s.Rows, s.Calls, fetch, want)
					}
				}
				nMembers += reached
				maxMembers = max(maxMembers, reached)
			}
			b.StopTimer()
			n := float64(b.N * stmtsPerOp)
			calls[size] = float64(nCalls) / n
			b.ReportMetric(calls[size], "calls/stmt")
			b.ReportMetric(float64(nRows)/n, "rows-shipped/stmt")
			b.ReportMetric(float64(nBytes)/n, "bytes-shipped/stmt")
			b.ReportMetric(float64(nMembers)/n, "members/stmt")
			if maxMembers > 2 {
				b.Errorf("a %d-key window reached %d members; it can meet at most 2", window, maxMembers)
			}
		})
	}
	head.Configure(func(c *engine.Config) { c.BatchSize = 0 })

	b.Run("parity", func(b *testing.B) {
		rng := rand.New(rand.NewSource(16))
		for i := 0; i < b.N*stmtsPerOp; i++ {
			lo := rng.Intn(members*perMember - window + 1)
			with, without := run(b, pruned, lo), run(b, unpruned, lo)
			for m := range links {
				if with[m].Calls == 0 {
					continue
				}
				rowBytes := with[m].Bytes - stmtBytes[pruned][m]
				if want := without[m].Bytes - stmtBytes[unpruned][m]; with[m].Rows != without[m].Rows || rowBytes != want {
					b.Fatalf("[%d,%d) server%d: shipped %d rows / %d row bytes, unpruned ships %d / %d",
						lo, lo+window, m+1, with[m].Rows, rowBytes, without[m].Rows, want)
				}
			}
		}
	})

	if calls[64] == 0 || calls[0] == 0 || calls[4096] == 0 {
		return // a -bench filter selected only some cases: nothing to gate
	}
	if calls[4096] > calls[64] {
		b.Errorf("%.1f calls per statement at batch size 4096, %.1f at 64: a larger fetch must not cost more round trips", calls[4096], calls[64])
	}
	b.Logf("calls/stmt: %.2f at batch size 64, %.2f at the default, %.2f at 4096 (each member exactly max(1, ⌈rows / batch⌉))", calls[64], calls[0], calls[4096])
}

// BenchmarkScatterMemberCompiles counts member compiles on the repository
// benchmark's fed_scatter_agg statement: a 32-member elastic view and
// statements that differ only in their literals. The decoder lifts the
// pushed predicate's constants into binds, so every member sees one text:
// it compiles on the first statement and hits its plan cache on every later
// one. Counts only, so the gate holds on any host: each member's plan cache
// reads exactly 1 miss and 0 evictions after all statements, and every
// answer equals the same statement's answer through a dialect without
// parameters (literal texts, one compile per statement on every member).
func BenchmarkScatterMemberCompiles(b *testing.B) {
	const members, perMember, stmtsPerOp = 32, 1000, 50
	head := dhqp.NewServer("head", "fed")
	var placements []dhqp.ShardPlacement
	var arms []string
	var memberSrv []*dhqp.Server
	literalCaps := dhqp.FullSQLCapabilities()
	literalCaps.Profile.Params = false
	for i := 0; i < members; i++ {
		m := dhqp.NewServer(fmt.Sprintf("w%d", i), "fed")
		mustExec(b, m, `CREATE TABLE bootstrap (x INT)`) // the database must exist before forwarded DDL lands
		link := dhqp.LAN()
		name := fmt.Sprintf("server%d", i+1)
		if err := head.AddLinkedServer(name, dhqp.SQLProvider(m, link), link); err != nil {
			b.Fatal(err)
		}
		literal, literalLink := fmt.Sprintf("literal%d", i+1), dhqp.LAN()
		if err := head.AddLinkedServer(literal, dhqp.SQLProviderWithCaps(m, literalLink, literalCaps), literalLink); err != nil {
			b.Fatal(err)
		}
		placements = append(placements, dhqp.ShardPlacement{Server: name, Lo: int64(i * perMember), Hi: int64((i + 1) * perMember)})
		// The elastic view names member i's table orders_p<i+1>.
		arms = append(arms, fmt.Sprintf("SELECT o_id, o_cust, o_region, amount FROM %s.fed.dbo.orders_p%d", literal, i+1))
		memberSrv = append(memberSrv, m)
	}
	cols := []dhqp.Column{
		{Name: "o_id", Kind: dhqp.KindInt}, {Name: "o_cust", Kind: dhqp.KindInt},
		{Name: "o_region", Kind: dhqp.KindInt}, {Name: "amount", Kind: dhqp.KindInt},
	}
	if err := head.CreateElasticView("orders", "o_id", cols, placements); err != nil {
		b.Fatal(err)
	}
	loadRows(b, head, "orders", members*perMember, func(i int) string {
		return fmt.Sprintf("(%d, %d, %d, %d)", i, i%977, i%5, i%1000)
	})
	for i := 0; i < members; i++ {
		head.InvalidateRemoteSchema(fmt.Sprintf("server%d", i+1))
		head.InvalidateRemoteSchema(fmt.Sprintf("literal%d", i+1))
		memberSrv[i].ResetPlanCacheStats()
	}
	mustExec(b, head, "CREATE VIEW orders_literal AS "+strings.Join(arms, " UNION ALL "))
	stmt := func(view string, i int) string {
		return fmt.Sprintf(`SELECT o_region, COUNT(o_id), SUM(amount), AVG(amount) FROM %s WHERE amount >= %d AND o_cust < %d GROUP BY o_region`,
			view, i*7%1000, 1000+i)
	}

	var answers []string
	b.ResetTimer()
	for i := 0; i < b.N*stmtsPerOp; i++ {
		res := mustQuery(b, head, stmt("orders", i), nil)
		answers = append(answers, sortedRows(res))
	}
	b.StopTimer()
	var misses, evictions int64
	for i, m := range memberSrv {
		st := m.PlanCacheStats()
		misses += st.Misses
		evictions += st.Evictions
		if st.Misses != 1 || st.Evictions != 0 {
			b.Errorf("w%d after %d statements: %d plan-cache misses and %d evictions, want 1 and 0", i, len(answers), st.Misses, st.Evictions)
		}
	}
	b.ReportMetric(float64(misses-members)/float64(len(answers)-1), "member-misses/stmt")
	b.ReportMetric(float64(evictions), "member-evictions")
	for i, got := range answers {
		if want := sortedRows(mustQuery(b, head, stmt("orders_literal", i), nil)); got != want {
			b.Fatalf("statement %d: lifted answer %s, literal answer %s", i, got, want)
		}
	}
}

// sortedRows renders a result's rows in a canonical order.
func sortedRows(res *dhqp.Result) string {
	rows := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		rows[i] = fmt.Sprint(r)
	}
	sort.Strings(rows)
	return strings.Join(rows, ";")
}

// ---------------------------------------------------------------------
// Scatter compile: what the head's compile of fed_scatter_agg's statement
// costs as the elastic view grows — 4, 32 and 128 members, a new text on
// every compile so the plan cache never answers. Reports ns, allocations and
// bytes per compile; two gates count objects, so they hold on any host: at
// 32 members a compile allocates at most 17 400 objects, and each member
// past the fourth adds at most 724. Only the plan's own remote statements
// are written as SQL; every other pushable group is checked without text.
// ---------------------------------------------------------------------

func BenchmarkScatterCompile(b *testing.B) {
	const (
		perMember       = 250
		compilesPerOp   = 5
		allocGate32     = 17_400
		perMemberGate   = 724
		scatterCompiled = `SELECT o_region, COUNT(o_id), SUM(amount), AVG(amount) FROM orders WHERE amount >= %d AND o_cust < %d GROUP BY o_region`
	)
	allocs := map[int]float64{}
	for _, members := range []int{4, 32, 128} {
		head := dhqp.NewServer("head", "fed")
		var placements []dhqp.ShardPlacement
		for i := 0; i < members; i++ {
			m := dhqp.NewServer(fmt.Sprintf("w%d", i), "fed")
			mustExec(b, m, `CREATE TABLE bootstrap (x INT)`) // the database must exist before forwarded DDL lands
			link := dhqp.LAN()
			name := fmt.Sprintf("server%d", i+1)
			if err := head.AddLinkedServer(name, dhqp.SQLProvider(m, link), link); err != nil {
				b.Fatal(err)
			}
			placements = append(placements, dhqp.ShardPlacement{Server: name, Lo: int64(i * perMember), Hi: int64((i + 1) * perMember)})
		}
		cols := []dhqp.Column{
			{Name: "o_id", Kind: dhqp.KindInt}, {Name: "o_cust", Kind: dhqp.KindInt},
			{Name: "o_region", Kind: dhqp.KindInt}, {Name: "amount", Kind: dhqp.KindInt},
		}
		if err := head.CreateElasticView("orders", "o_id", cols, placements); err != nil {
			b.Fatal(err)
		}
		loadRows(b, head, "orders", members*perMember, func(i int) string {
			return fmt.Sprintf("(%d, %d, %d, %d)", i, i%977, i%5, i*37%1000)
		})
		for i := 0; i < members; i++ {
			head.InvalidateRemoteSchema(fmt.Sprintf("server%d", i+1))
		}
		n := 0
		compile := func() {
			n++
			if _, _, _, err := head.Plan(fmt.Sprintf(scatterCompiled, 100, 1000+n)); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(fmt.Sprintf("members=%d", members), func(b *testing.B) {
			compile() // warm: remote metadata and statistics
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N*compilesPerOp; i++ {
				compile()
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			per := float64(b.N * compilesPerOp)
			allocs[members] = float64(after.Mallocs-before.Mallocs) / per
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/per, "ns/compile")
			b.ReportMetric(allocs[members], "allocs/compile")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/per, "B/compile")
		})
	}
	if allocs[4] == 0 || allocs[32] == 0 || allocs[128] == 0 {
		return // a -bench filter selected only some sizes: nothing to gate
	}
	added := (allocs[128] - allocs[4]) / 124
	if allocs[32] > allocGate32 {
		b.Errorf("32 members: %.0f allocations per compile, the gate is %d", allocs[32], allocGate32)
	}
	if added > perMemberGate {
		b.Errorf("%.0f allocations per additional member, the gate is %d", added, perMemberGate)
	}
	b.Logf("allocations per compile %.0f / %.0f / %.0f at 4 / 32 / 128 members (gate %d at 32), %.0f per additional member (gate %d)",
		allocs[4], allocs[32], allocs[128], allocGate32, added, perMemberGate)
}
