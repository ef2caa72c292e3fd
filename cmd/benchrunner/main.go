// benchrunner regenerates every table and figure of the paper's evaluation
// as formatted text: one section per experiment in DESIGN.md's index
// (E1–E18). Absolute numbers come from the simulator; the shapes — who
// wins, by what factor, where crossovers fall — are the reproduction
// target recorded in EXPERIMENTS.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dhqp"
	"dhqp/internal/engine"
	"dhqp/internal/oledb"
	"dhqp/internal/rowset"
	"dhqp/internal/storage"
	"dhqp/internal/workload"
)

func main() {
	only := flag.String("only", "", "comma-separated experiment ids (e.g. E1,E6); empty = all")
	flag.Parse()
	want := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		if id != "" {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}
	run := func(id string, f func()) {
		if len(want) > 0 && !want[id] {
			return
		}
		f()
	}
	run("E1", e1)
	run("E2", e2)
	run("E3", e3)
	run("E4", e4)
	run("E5", e5)
	run("E6", e6)
	run("E7", e7)
	run("E8", e8)
	run("E9", e9)
	run("E10", e10)
	run("E11", e11)
	run("E12", e12)
	run("E13", e13)
	run("E14", e14)
	run("E15", e15)
	run("E16", e16)
	run("E17", e17)
	run("E18", e18)
	run("E19", e19)
}

func header(id, title string) {
	fmt.Printf("\n================================================================\n")
	fmt.Printf("%s — %s\n", id, title)
	fmt.Printf("================================================================\n")
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

func mustQ(s *dhqp.Server, sql string, params map[string]dhqp.Value) *dhqp.Result {
	res, err := s.Query(sql, params)
	must(err)
	return res
}

// --- E1: Figure 4 -----------------------------------------------------

func e1() {
	header("E1", "Figure 4 / Example 1: cost-based remote join placement")
	cfg := workload.SmallTPCH()
	local := dhqp.NewServer("local", "appdb")
	remote := dhqp.NewServer("remote0srv", "tpch10g")
	must(workload.LoadTPCHNation(local, cfg))
	must(workload.LoadTPCHRemote(remote, cfg))
	link := dhqp.LAN()
	must(local.AddLinkedServer("remote0", dhqp.SQLProvider(remote, link), link))

	q := `SELECT c.c_name, c.c_address, c.c_phone
		FROM remote0.tpch10g.dbo.customer c, remote0.tpch10g.dbo.supplier s, nation n
		WHERE c.c_nationkey = n.n_nationkey AND n.n_nationkey = s.s_nationkey`
	planA := `SELECT q.c1 AS c_name, q.c2 AS c_address, q.c3 AS c_phone
		FROM OPENQUERY(remote0, 'SELECT c.c_name AS c1, c.c_address AS c2, c.c_phone AS c3, c.c_nationkey AS c4
			FROM customer c, supplier s WHERE c.c_nationkey = s.s_nationkey') q, nation n
		WHERE q.c4 = n.n_nationkey`

	plan, _, report, err := local.Plan(q)
	must(err)
	fmt.Println("optimizer-chosen plan (Figure 4(b) shape):")
	fmt.Print(indent(plan.String()))
	fmt.Printf("phase=%q plan-cost=%.0f\n\n", report.PhaseReached, report.FinalCost)

	row := func(name, query string) {
		mustQ(local, query, nil) // warm caches
		link.Reset()
		start := time.Now()
		res := mustQ(local, query, nil)
		elapsed := time.Since(start)
		s := link.Stats()
		fmt.Printf("  %-28s %8d result rows %10d rows shipped %12d bytes %10v\n",
			name, len(res.Rows), s.Rows, s.Bytes, elapsed.Round(time.Millisecond))
	}
	fmt.Println("plan                          result          network traffic            elapsed")
	row("(b) optimizer choice", q)
	row("(a) forced remote join", planA)
	fmt.Println("\npaper: the optimizer picks (b), avoiding the large customer ⋈ supplier intermediate.")
}

// --- E2: Table 1 ------------------------------------------------------

func e2() {
	header("E2", "Table 1: query languages supported by OLE DB providers")
	rows := []struct{ typ, product, language string }{
		{"Relational", "SQL-engine peer (sqlful provider)", "Transact-SQL"},
		{"Full-text indexing", "Search service (fulltext provider)", "Index Server Query Language"},
		{"Email", "Mail store (email provider)", "SQL with hierarchical query extensions (rowsets only here)"},
		{"Files/ISAM", "Simple provider", "(none — rowset interfaces only)"},
	}
	fmt.Printf("  %-20s %-38s %s\n", "Type of Data Source", "Product", "Query Language")
	for _, r := range rows {
		fmt.Printf("  %-20s %-38s %s\n", r.typ, r.product, r.language)
	}
	// Demonstrate each language end to end.
	s := dhqp.NewServer("local", "db")
	remote := dhqp.NewServer("r", "rdb")
	_, err := remote.Exec(`CREATE TABLE t (k INT, v INT)`)
	must(err)
	_, err = remote.Exec(`INSERT INTO t VALUES (1, 2), (3, 4)`)
	must(err)
	link := dhqp.LAN()
	must(s.AddLinkedServer("sqlsrv", dhqp.SQLProvider(remote, link), link))
	s.FulltextService().AddFile("lit", "a.txt", []byte("database systems"), nil)
	_, err = s.Exec(`EXEC sp_addlinkedserver 'ftsrv', 'MSIDXS', 'lit'`)
	must(err)
	s.MailStore().AddMailbox("m.mmf", workload.GenMailbox(10, s.Config().Today, []string{"a@x"}, 1))

	fmt.Println("\nlive checks (one query per language):")
	fmt.Printf("  Transact-SQL:       %d row(s)\n",
		len(mustQ(s, `SELECT k FROM sqlsrv.rdb.dbo.t WHERE v > 1`, nil).Rows))
	fmt.Printf("  Index Server QL:    %d row(s)\n",
		len(mustQ(s, `SELECT q.path FROM OPENQUERY(ftsrv, 'SELECT path FROM SCOPE() WHERE CONTAINS(''database'')') q`, nil).Rows))
	fmt.Printf("  Mail rowsets:       %d row(s)\n",
		len(mustQ(s, `SELECT msgid FROM MakeTable(Mail, 'm.mmf') m`, nil).Rows))
}

// --- E3: Table 2 ------------------------------------------------------

func e3() {
	header("E3", "Table 2: interface support per provider (conformance matrix)")
	remote := dhqp.NewServer("r", "rdb")
	providers := []struct {
		name string
		caps dhqp.Capabilities
	}{
		{"SQLOLEDB (SQL-92 full)", dhqp.FullSQLCapabilities()},
		{"MSDASQL (ODBC core)", dhqp.ODBCCoreCapabilities()},
		{"Jet/Access (SQL minimum)", dhqp.MinimalSQLCapabilities()},
		{"Simple provider", dhqp.SimpleProvider(nil).Capabilities()},
		{"MSIDXS (full-text)", dhqp.FulltextProvider(remote, nil).Capabilities()},
	}
	fmt.Printf("  %-22s", "Interface")
	for _, p := range providers {
		fmt.Printf(" %-10s", strings.SplitN(p.name, " ", 2)[0])
	}
	fmt.Println()
	matrix := oledb.InterfaceMatrix(providers[0].caps)
	for _, row := range matrix {
		fmt.Printf("  %-22s", row.Interface)
		for _, p := range providers {
			m := oledb.InterfaceMatrix(p.caps)
			sup := "-"
			for _, r := range m {
				if r.Interface == row.Interface && r.Supported {
					sup = "yes"
				}
			}
			fmt.Printf(" %-10s", sup)
		}
		mand := ""
		if row.Mandatory {
			mand = "(mandatory)"
		}
		fmt.Printf(" %s\n", mand)
	}
}

// --- E4: remote statistics --------------------------------------------

func e4() {
	header("E4", "§3.2.4: remote histograms improve cardinality estimates ~10x")
	build := func(useStats bool) (*dhqp.Server, float64) {
		local := dhqp.NewServer("local", "db")
		remote := dhqp.NewServer("r", "rdb")
		_, err := remote.Exec(`CREATE TABLE skewed (id INT, v INT)`)
		must(err)
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
		_, err = remote.Exec(sb.String())
		must(err)
		link := dhqp.LAN()
		must(local.AddLinkedServer("r0", dhqp.SQLProvider(remote, link), link))
		local.Configure(func(c *engine.Config) { c.UseRemoteStatistics = useStats })
		return local, float64(n) * 0.9
	}
	fmt.Println("predicate: v = 7 over a remote table where 90% of rows share v=7")
	fmt.Printf("  %-28s %14s %14s %10s\n", "configuration", "estimated", "actual", "error")
	for _, variant := range []struct {
		name     string
		useStats bool
	}{
		{"with remote histograms", true},
		{"without statistics", false},
	} {
		local, actual := build(variant.useStats)
		_, _, report, err := local.Plan(`SELECT id FROM r0.rdb.dbo.skewed WHERE v = 7`)
		must(err)
		ratio := actual / report.RootCard
		if ratio < 1 {
			ratio = 1 / ratio
		}
		fmt.Printf("  %-28s %14.0f %14.0f %9.1fx\n", variant.name, report.RootCard, actual, ratio)
	}
	fmt.Println("\npaper: statistics 'commonly provide order of magnitude improvements on cardinality estimates'.")
}

// --- E5: full-text ----------------------------------------------------

func e5() {
	header("E5", "§2.2/§2.3: indexed full-text search vs naive CONTAINS")
	const docCount = 3000
	indexed := dhqp.NewServer("a", "docdb")
	must(workload.LoadDocuments(indexed, docCount, 7))
	naive := dhqp.NewServer("b", "docdb")
	_, err := naive.Exec(`CREATE TABLE docs (id INT PRIMARY KEY, topic VARCHAR(16), title VARCHAR(32), body VARCHAR(512))`)
	must(err)
	docs := workload.GenDocuments(docCount, 7)
	for start := 0; start < len(docs); start += 200 {
		var sb strings.Builder
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
		_, err := naive.Exec(sb.String())
		must(err)
	}
	query := `SELECT COUNT(*) AS n FROM docs WHERE CONTAINS(body, 'parallel AND database')`
	fmt.Printf("corpus: %d documents; query: CONTAINS(body, 'parallel AND database')\n", docCount)
	fmt.Printf("  %-30s %10s %12s\n", "configuration", "matches", "elapsed")
	for _, v := range []struct {
		name string
		s    *dhqp.Server
	}{
		{"full-text index (Figure 2)", indexed},
		{"naive row-at-a-time", naive},
	} {
		mustQ(v.s, query, nil)
		start := time.Now()
		res := mustQ(v.s, query, nil)
		fmt.Printf("  %-30s %10s %12v\n", v.name, res.Rows[0][0].Display(), time.Since(start).Round(time.Microsecond))
	}
	// Inflectional forms.
	res := mustQ(indexed, `SELECT COUNT(*) AS n FROM docs WHERE CONTAINS(body, 'FORMSOF(INFLECTIONAL, run)')`, nil)
	fmt.Printf("\ninflectional matching (runner/run/ran): %s documents\n", res.Rows[0][0].Display())
}

// --- E6: partition pruning --------------------------------------------

func e6() {
	header("E6", "§4.1.5: partitioned-view pruning across a 7-member federation")
	head, links := federation(7, 300)
	queries := []struct {
		name, sql string
		params    map[string]dhqp.Value
	}{
		{"no pruning (full view)", `SELECT COUNT(*) AS n FROM all_lineitems`, nil},
		{"static pruning (const year)", `SELECT COUNT(*) AS n FROM all_lineitems WHERE l_commitdate BETWEEN '1994-01-01' AND '1994-12-31'`, nil},
		{"runtime pruning (@param)", `SELECT COUNT(*) AS n FROM all_lineitems WHERE l_commitdate = @d`, dhqp.Params("d", dhqp.Date("1995-01-01"))},
	}
	fmt.Printf("  %-30s %10s %16s %16s\n", "query", "result", "members touched", "rows shipped")
	for _, qy := range queries {
		mustQ(head, qy.sql, qy.params)
		for _, l := range links {
			l.Reset()
		}
		res := mustQ(head, qy.sql, qy.params)
		touched, rows := 0, int64(0)
		for _, l := range links {
			st := l.Stats()
			rows += st.Rows
			if st.Calls > 0 {
				touched++
			}
		}
		fmt.Printf("  %-30s %10s %13d/7 %16d\n", qy.name, res.Rows[0][0].Display(), touched, rows)
	}
}

func federation(members, rowsPer int) (*dhqp.Server, []*dhqp.Link) {
	head := dhqp.NewServer("head", "fed")
	var links []*dhqp.Link
	var arms []string
	for i := 0; i < members; i++ {
		yr := 1992 + i
		m := dhqp.NewServer(fmt.Sprintf("m%d", i), "fed")
		_, err := m.Exec(fmt.Sprintf(
			`CREATE TABLE lineitem (l_orderkey INT NOT NULL, l_commitdate DATE NOT NULL CHECK (l_commitdate >= '%d-01-01' AND l_commitdate < '%d-01-01'), l_quantity INT)`,
			yr, yr+1))
		must(err)
		var sb strings.Builder
		sb.WriteString("INSERT INTO lineitem VALUES ")
		for j := 0; j < rowsPer; j++ {
			if j > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, '%d-%02d-%02d', %d)", i*10000+j, yr, 1+j%12, 1+j%28, j%50)
		}
		_, err = m.Exec(sb.String())
		must(err)
		link := dhqp.LAN()
		must(head.AddLinkedServer(fmt.Sprintf("server%d", i+1), dhqp.SQLProvider(m, link), link))
		links = append(links, link)
		arms = append(arms, fmt.Sprintf("SELECT l_orderkey, l_commitdate, l_quantity FROM server%d.fed.dbo.lineitem", i+1))
	}
	_, err := head.Exec("CREATE VIEW all_lineitems AS " + strings.Join(arms, " UNION ALL "))
	must(err)
	return head, links
}

// --- E7: spool over remote --------------------------------------------

func e7() {
	header("E7", "§4.1.2: spool over remote operations")
	build := func(disable bool) (*dhqp.Server, []*dhqp.Link) {
		local := dhqp.NewServer("local", "db")
		var links []*dhqp.Link
		for i, rows := range []int{120, 80} {
			remote := dhqp.NewServer(fmt.Sprintf("r%d", i), "rdb")
			_, err := remote.Exec(`CREATE TABLE pts (id INT, v INT)`)
			must(err)
			var sb strings.Builder
			sb.WriteString("INSERT INTO pts VALUES ")
			for j := 0; j < rows; j++ {
				if j > 0 {
					sb.WriteString(", ")
				}
				fmt.Fprintf(&sb, "(%d, %d)", j, j%40)
			}
			_, err = remote.Exec(sb.String())
			must(err)
			link := dhqp.LAN()
			must(local.AddLinkedServer(fmt.Sprintf("r%d", i), dhqp.SQLProvider(remote, link), link))
			links = append(links, link)
		}
		local.Configure(func(c *engine.Config) {
			c.DisableSpool = disable
			c.DisableParameterization = true
		})
		return local, links
	}
	query := `SELECT COUNT(*) AS n FROM r0.rdb.dbo.pts a, r1.rdb.dbo.pts b WHERE a.v < b.v`
	fmt.Println("query: non-equi join of two remote tables (nested loops; inner side remote)")
	fmt.Printf("  %-20s %14s %14s\n", "configuration", "remote calls", "rows shipped")
	for _, v := range []struct {
		name    string
		disable bool
	}{
		{"with spool", false},
		{"spool disabled", true},
	} {
		local, links := build(v.disable)
		mustQ(local, query, nil)
		for _, l := range links {
			l.Reset()
		}
		mustQ(local, query, nil)
		var calls, rows int64
		for _, l := range links {
			calls += l.Stats().Calls
			rows += l.Stats().Rows
		}
		fmt.Printf("  %-20s %14d %14d\n", v.name, calls, rows)
	}
}

// --- E8: optimization phases ------------------------------------------

func e8() {
	header("E8", "§4.1.1: transaction processing / quick plan / full optimization")
	cfg := workload.SmallTPCH()
	local := dhqp.NewServer("local", "appdb")
	remote := dhqp.NewServer("remote0srv", "tpch10g")
	must(workload.LoadTPCHNation(local, cfg))
	must(workload.LoadTPCHRemote(remote, cfg))
	link := dhqp.LAN()
	must(local.AddLinkedServer("remote0", dhqp.SQLProvider(remote, link), link))
	q := `SELECT c.c_name, c.c_address, c.c_phone
		FROM remote0.tpch10g.dbo.customer c, remote0.tpch10g.dbo.supplier s, nation n
		WHERE c.c_nationkey = n.n_nationkey AND n.n_nationkey = s.s_nationkey`
	// Disable early exit so every phase runs fully.
	c := local.Config().OptConfig
	c.TPThreshold, c.QuickThreshold = 0, 0
	fmt.Printf("  %-26s %14s %12s %10s %10s\n", "phase cap", "plan cost", "opt time", "groups", "exprs")
	for _, ph := range []int{0, 1, 2} {
		cc := c
		cc.MaxPhase = phase(ph)
		local.Configure(func(cfg *engine.Config) { cfg.OptConfig = cc })
		start := time.Now()
		_, _, report, err := local.Plan(q)
		must(err)
		fmt.Printf("  %-26s %14.0f %12v %10d %10d\n",
			report.PhaseReached.String(), report.FinalCost,
			time.Since(start).Round(time.Microsecond), report.Groups, report.Exprs)
	}
	fmt.Println("\npaper: early phases find a good plan quickly; later phases search for a better one.")
}

// --- E9: parameterization ---------------------------------------------

func e9() {
	header("E9", "§4.1.2: parameterization of remote queries")
	build := func(disable bool) (*dhqp.Server, *dhqp.Link) {
		local := dhqp.NewServer("local", "db")
		remote := dhqp.NewServer("r", "rdb")
		_, err := remote.Exec(`CREATE TABLE big (k INT PRIMARY KEY, payload VARCHAR(64))`)
		must(err)
		for start := 0; start < 4000; start += 500 {
			var sb strings.Builder
			sb.WriteString("INSERT INTO big VALUES ")
			for i := start; i < start+500; i++ {
				if i > start {
					sb.WriteString(", ")
				}
				fmt.Fprintf(&sb, "(%d, 'payload-%06d')", i, i)
			}
			_, err := remote.Exec(sb.String())
			must(err)
		}
		_, err = local.Exec(`CREATE TABLE wanted (k INT)`)
		must(err)
		_, err = local.Exec(`INSERT INTO wanted VALUES (5), (1723), (3001)`)
		must(err)
		link := dhqp.LAN()
		must(local.AddLinkedServer("r0", dhqp.SQLProvider(remote, link), link))
		local.Configure(func(c *engine.Config) { c.DisableParameterization = disable })
		return local, link
	}
	query := `SELECT b.payload FROM wanted w, r0.rdb.dbo.big b WHERE w.k = b.k`
	fmt.Println("query: 3-row local table joins a 4000-row remote table on its key")
	fmt.Printf("  %-28s %14s %14s\n", "configuration", "rows shipped", "bytes shipped")
	for _, v := range []struct {
		name    string
		disable bool
	}{
		{"parameterized (remote range)", false},
		{"parameterization disabled", true},
	} {
		local, link := build(v.disable)
		mustQ(local, query, nil)
		link.Reset()
		mustQ(local, query, nil)
		s := link.Stats()
		fmt.Printf("  %-28s %14d %14d\n", v.name, s.Rows, s.Bytes)
	}
	e9Batched()
}

// e9Batched compares serial per-row parameterized probing against the
// batched key-lookup join on a slow, high-latency link (10ms/call,
// 200 KB/s): a 200-row probe table joins a 24000-row remote table on its
// key. Serial probing still beats shipping the table at this shape, so
// the comparison isolates what batching saves. Results also land in
// BENCH_E9.json for machine consumption.
func e9Batched() {
	const remoteRows, outerRows, batchSize = 24000, 200, 100
	build := func(disableBatch bool) (*dhqp.Server, *dhqp.Link) {
		local := dhqp.NewServer("local", "db")
		remote := dhqp.NewServer("r", "rdb")
		_, err := remote.Exec(`CREATE TABLE big (k INT PRIMARY KEY, payload VARCHAR(64))`)
		must(err)
		for start := 0; start < remoteRows; start += 500 {
			var sb strings.Builder
			sb.WriteString("INSERT INTO big VALUES ")
			for i := start; i < start+500; i++ {
				if i > start {
					sb.WriteString(", ")
				}
				fmt.Fprintf(&sb, "(%d, 'payload-%060d')", i, i)
			}
			_, err := remote.Exec(sb.String())
			must(err)
		}
		_, err = local.Exec(`CREATE TABLE probe (k INT)`)
		must(err)
		var sb strings.Builder
		sb.WriteString("INSERT INTO probe VALUES ")
		for i := 0; i < outerRows; i++ {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d)", (i*97)%remoteRows)
		}
		_, err = local.Exec(sb.String())
		must(err)
		link := &dhqp.Link{LatencyPerCall: 10 * time.Millisecond, BytesPerSecond: 200e3}
		must(local.AddLinkedServer("r0", dhqp.SQLProvider(remote, link), link))
		local.Configure(func(c *engine.Config) { c.DisableRemoteBatching = disableBatch })
		return local, link
	}
	type legStats struct {
		Calls     int64   `json:"calls"`
		Bytes     int64   `json:"bytes"`
		Retries   int64   `json:"retries"`
		Faults    int64   `json:"faults"`
		VirtualMS float64 `json:"virtual_ms"`
	}
	query := `SELECT b.payload FROM probe p, r0.rdb.dbo.big b WHERE p.k = b.k`
	measure := func(disableBatch bool) legStats {
		local, link := build(disableBatch)
		if got := len(mustQ(local, query, nil).Rows); got != outerRows {
			panic(fmt.Sprintf("E9 batched: rows = %d, want %d", got, outerRows))
		}
		link.Reset()
		res := mustQ(local, query, nil)
		s := link.Stats()
		return legStats{Calls: s.Calls, Bytes: s.Bytes,
			Retries: res.Retries, Faults: s.Faults,
			VirtualMS: float64(s.VirtualTime) / float64(time.Millisecond)}
	}
	serial := measure(true)
	batched := measure(false)
	fmt.Printf("\nbatched key lookups: %d probe rows vs %d remote rows, 10ms/call at 200 KB/s\n",
		outerRows, remoteRows)
	fmt.Printf("  %-28s %8s %14s %14s\n", "configuration", "calls", "bytes shipped", "virtual ms")
	fmt.Printf("  %-28s %8d %14d %14.1f\n", "serial (batching disabled)", serial.Calls, serial.Bytes, serial.VirtualMS)
	fmt.Printf("  %-28s %8d %14d %14.1f\n", "batched key-lookup join", batched.Calls, batched.Bytes, batched.VirtualMS)
	speedup := serial.VirtualMS / batched.VirtualMS
	fmt.Printf("  link-time speedup: %.1fx\n", speedup)
	out, err := json.MarshalIndent(struct {
		OuterRows int      `json:"outer_rows"`
		BatchSize int      `json:"batch_size"`
		Serial    legStats `json:"serial"`
		Batched   legStats `json:"batched"`
		Speedup   float64  `json:"speedup"`
	}{outerRows, batchSize, serial, batched, speedup}, "", "  ")
	must(err)
	must(os.WriteFile("BENCH_E9.json", append(out, '\n'), 0o644))
	fmt.Println("  wrote BENCH_E9.json")
}

// --- E10: capability pushdown -----------------------------------------

func e10() {
	header("E10", "§2.1/§3.3: pushdown vs provider capability level")
	build := func(caps dhqp.Capabilities) (*dhqp.Server, *dhqp.Link) {
		local := dhqp.NewServer("local", "db")
		remote := dhqp.NewServer("r", "rdb")
		_, err := remote.Exec(`CREATE TABLE sales (region INT, product INT, amount INT)`)
		must(err)
		for start := 0; start < 3000; start += 500 {
			var sb strings.Builder
			sb.WriteString("INSERT INTO sales VALUES ")
			for i := start; i < start+500; i++ {
				if i > start {
					sb.WriteString(", ")
				}
				fmt.Fprintf(&sb, "(%d, %d, %d)", i%8, i%50, i)
			}
			_, err := remote.Exec(sb.String())
			must(err)
		}
		link := dhqp.LAN()
		must(local.AddLinkedServer("r0", dhqp.SQLProviderWithCaps(remote, link, caps), link))
		return local, link
	}
	query := `SELECT region, COUNT(*) AS n, SUM(amount) AS total
		FROM r0.rdb.dbo.sales WHERE amount > 100 GROUP BY region`
	fmt.Println("query: filter + GROUP BY aggregation over a 3000-row remote table")
	fmt.Printf("  %-24s %14s   %s\n", "provider level", "rows shipped", "where the work ran")
	for _, v := range []struct {
		name  string
		caps  dhqp.Capabilities
		where string
	}{
		{"SQL-92 full", dhqp.FullSQLCapabilities(), "whole statement remoted"},
		{"ODBC core", dhqp.ODBCCoreCapabilities(), "filter remoted; aggregation local"},
		{"SQL minimum", dhqp.MinimalSQLCapabilities(), "filter remoted; aggregation local"},
	} {
		local, link := build(v.caps)
		mustQ(local, query, nil)
		link.Reset()
		mustQ(local, query, nil)
		fmt.Printf("  %-24s %14d   %s\n", v.name, link.Stats().Rows, v.where)
	}
}

// --- E11: federation scale-out ----------------------------------------

// buildStockFed assembles the E11 federation: a head plus member servers
// each holding one range partition of the stock table under the all_stock
// view. sleep=true makes the links delay in real time (wall-clock runs).
func buildStockFed(members, totalRows int, sleep bool) (*dhqp.Server, []*dhqp.Link) {
	head := dhqp.NewServer("head", "fed")
	var arms []string
	var links []*dhqp.Link
	perMember := totalRows / members
	for i := 0; i < members; i++ {
		lo, hi := i*perMember, (i+1)*perMember
		m := dhqp.NewServer(fmt.Sprintf("w%d", i), "fed")
		_, err := m.Exec(fmt.Sprintf(
			`CREATE TABLE stock (s_id INT NOT NULL CHECK (s_id >= %d AND s_id < %d), s_qty INT)`, lo, hi))
		must(err)
		var sb strings.Builder
		sb.WriteString("INSERT INTO stock VALUES ")
		for j := lo; j < hi; j++ {
			if j > lo {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, 100)", j)
		}
		_, err = m.Exec(sb.String())
		must(err)
		link := dhqp.LAN()
		link.Sleep = sleep
		must(head.AddLinkedServer(fmt.Sprintf("server%d", i+1), dhqp.SQLProvider(m, link), link))
		links = append(links, link)
		arms = append(arms, fmt.Sprintf("SELECT s_id, s_qty FROM server%d.fed.dbo.stock", i+1))
	}
	_, err := head.Exec("CREATE VIEW all_stock AS " + strings.Join(arms, " UNION ALL "))
	must(err)
	return head, links
}

// e11point is one federation size's point-transaction cost, serialized
// into BENCH_E11.json.
type e11point struct {
	Members     int     `json:"members"`
	TxnUS       int64   `json:"txn_time_us_avg"`
	CallsPerTxn float64 `json:"remote_calls_per_txn"`
}

func e11() {
	header("E11", "§4.1.5: federated TPC-C-style scale-out (point transactions)")
	fmt.Println("workload: point lookups through a distributed partitioned view of 4000 stock rows")
	fmt.Printf("  %-10s %16s %16s\n", "members", "txn time (avg)", "remote calls/txn")
	var points []e11point
	for _, members := range []int{1, 2, 4, 8} {
		head, links := buildStockFed(members, 4000, false)
		query := `SELECT s_qty FROM all_stock WHERE s_id = @id`
		mustQ(head, query, dhqp.Params("id", dhqp.Int(1)))
		for _, l := range links {
			l.Reset()
		}
		const txns = 40
		start := time.Now()
		for i := 0; i < txns; i++ {
			mustQ(head, query, dhqp.Params("id", dhqp.Int(int64((i*37)%4000))))
		}
		elapsed := time.Since(start) / txns
		var calls int64
		for _, l := range links {
			calls += l.Stats().Calls
		}
		fmt.Printf("  %-10d %16v %12.1f calls\n", members, elapsed.Round(time.Microsecond), float64(calls)/txns)
		points = append(points, e11point{
			Members: members, TxnUS: elapsed.Microseconds(), CallsPerTxn: float64(calls) / txns,
		})
	}
	fmt.Println("\npaper: SQL Server's federated TPC-C record scaled by partitioning across member servers;")
	fmt.Println("startup filters keep each transaction on one member, so per-txn cost falls as members grow.")

	fmt.Println("\nfan-out: whole-view scan over 4 members with sleeping links (real elapsed time);")
	fmt.Println("the parallel exchange overlaps the members' round trips (serial sums them).")
	fmt.Printf("  %-10s %16s\n", "mode", "elapsed (avg)")
	const fanRuns = 5
	var serialAvg, parallelAvg time.Duration
	for _, mode := range []struct {
		name string
		dop  int
	}{{"serial", 1}, {"parallel", 0}} {
		head, _ := buildStockFed(4, 2000, true)
		head.Configure(func(c *engine.Config) { c.MaxDOP = mode.dop })
		query := `SELECT s_id, s_qty FROM all_stock`
		mustQ(head, query, nil)
		start := time.Now()
		for i := 0; i < fanRuns; i++ {
			if res := mustQ(head, query, nil); len(res.Rows) != 2000 {
				panic("fan-out row count")
			}
		}
		avg := time.Since(start) / fanRuns
		fmt.Printf("  %-10s %16v\n", mode.name, avg.Round(time.Microsecond))
		if mode.dop == 1 {
			serialAvg = avg
		} else {
			parallelAvg = avg
		}
	}
	speedup := 0.0
	if parallelAvg > 0 {
		speedup = float64(serialAvg) / float64(parallelAvg)
		fmt.Printf("  speedup: %.1fx\n", speedup)
	}
	out, err := json.MarshalIndent(struct {
		TotalRows     int        `json:"total_rows"`
		Txns          int        `json:"txns_per_point"`
		ScaleOut      []e11point `json:"scale_out"`
		FanSerialUS   int64      `json:"fanout_serial_us_avg"`
		FanParallelUS int64      `json:"fanout_parallel_us_avg"`
		FanoutSpeedup float64    `json:"fanout_parallel_speedup"`
	}{4000, 40, points, serialAvg.Microseconds(), parallelAvg.Microseconds(), speedup}, "", "  ")
	must(err)
	must(os.WriteFile("BENCH_E11.json", append(out, '\n'), 0o644))
	fmt.Println("  wrote BENCH_E11.json")
}

// --- E12: email federation --------------------------------------------

func e12() {
	header("E12", "§2.4: heterogeneous mail + Access query")
	s := dhqp.NewServer("local", "db")
	senders := []string{"ann@nw.com", "bob@nw.com", "cat@nw.com", "dan@s.com"}
	s.MailStore().AddMailbox("m.mmf", workload.GenMailbox(500, s.Config().Today, senders, 5))
	access := dhqp.SimpleProvider(nil)
	must(access.LoadCSV("Customers", "emailaddr,city\nann@nw.com,Seattle\nbob@nw.com,Seattle\ncat@nw.com,Tacoma\ndan@s.com,Austin"))
	s.RegisterProviderFactory("access", dhqp.StaticProviderFactory(access))
	query := `SELECT m1.subject FROM MakeTable(Mail, 'm.mmf') m1,
		MakeTable(Access, 'x.mdb', Customers) c
		WHERE m1.date >= date(today(), -2) AND m1.from = c.emailaddr AND c.city = 'Seattle'
		AND NOT EXISTS (SELECT * FROM MakeTable(Mail, 'm.mmf') m2 WHERE m1.msgid = m2.inreplyto)`
	start := time.Now()
	res := mustQ(s, query, nil)
	fmt.Printf("mailbox: 500 messages; customers: 4 (2 in Seattle)\n")
	fmt.Printf("unanswered Seattle mail from the last two days: %d messages (%v)\n",
		len(res.Rows), time.Since(start).Round(time.Microsecond))
}

// --- E13: Figure 3 ----------------------------------------------------

func e13() {
	header("E13", "Figure 3 / §3.1: connection-model calling sequence")
	remote := dhqp.NewServer("r", "rdb")
	_, err := remote.Exec(`CREATE TABLE t (a INT)`)
	must(err)
	_, err = remote.Exec(`INSERT INTO t VALUES (1), (2)`)
	must(err)
	ds := dhqp.SQLProvider(remote, dhqp.LAN())
	fmt.Println("  CoCreateInstance()        -> provider factory invoked")
	must(ds.Initialize(map[string]string{"DataSource": "rdb"}))
	fmt.Println("  IDBInitialize::Initialize -> connection established")
	fmt.Printf("  IDBProperties             -> %s speaks %q at level %s\n",
		ds.Capabilities().ProviderName, ds.Capabilities().QueryLanguage, ds.Capabilities().SQLSupport)
	sess, err := ds.CreateSession()
	must(err)
	fmt.Println("  IDBCreateSession          -> session object")
	rs, err := sess.OpenRowset("rdb.t")
	must(err)
	rs.Close()
	fmt.Println("  IOpenRowset::OpenRowset   -> rowset over base table")
	cmd, err := sess.CreateCommand()
	must(err)
	fmt.Println("  IDBCreateCommand          -> command object")
	cmd.SetText("SELECT a FROM t WHERE a > 1")
	rs2, err := cmd.Execute()
	must(err)
	n := 0
	for b := rowset.NewBatch(0); rs2.NextBatch(b) == nil; {
		n += b.Len()
	}
	rs2.Close()
	fmt.Printf("  ICommand::Execute         -> rowset with %d row(s)\n", n)
}

func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = "  " + l
	}
	return strings.Join(lines, "\n") + "\n"
}

// phase converts an int to the optimizer phase type without importing the
// internal rules package at every call site.
func phase(p int) rulesPhase { return rulesPhase(p) }

// --- E14: fault-tolerant remote access --------------------------------

func e14() {
	header("E14", "fault injection: retry/backoff, circuit breaker, partial results")
	const members, totalRows = 4, 2000
	query := `SELECT s_id, s_qty FROM all_stock`

	fmt.Println("workload: whole-view scan of a 4-member federation; every link runs a seeded fault plan")
	fmt.Printf("  %-16s %16s %14s %14s %8s\n", "transient rate", "elapsed (avg)", "retries/query", "link KB/query", "rows")
	const runs = 20
	type sweepPoint struct {
		TransientProb  float64 `json:"transient_prob"`
		AvgElapsedMS   float64 `json:"avg_elapsed_ms"`
		RetriesPerRun  float64 `json:"retries_per_query"`
		LinkBytesPerRn int64   `json:"link_bytes_per_query"`
		LinkFaults     int64   `json:"link_faults"`
		Rows           int     `json:"rows"`
	}
	var sweep []sweepPoint
	for _, prob := range []float64{0, 0.05, 0.10} {
		head, links := buildStockFed(members, totalRows, false)
		// Deep retry budget and a patient breaker: this sweep isolates the
		// retry ladder (restart-and-discard replays whole fetch units, so at
		// 10%% the per-attempt failure rate is well above the raw fault rate).
		head.Configure(func(c *engine.Config) {
			c.RemoteRetries = 8
			c.BreakerThreshold, c.BreakerCooldown = 1000, time.Hour
		})
		mustQ(head, query, nil) // warm plan + schema
		for i, l := range links {
			l.SetFaults(dhqp.Faults{Seed: int64(i + 1), TransientProb: prob})
			l.Reset()
		}
		var retries, linkBytes int64
		start := time.Now()
		for i := 0; i < runs; i++ {
			res := mustQ(head, query, nil)
			if len(res.Rows) != totalRows {
				panic("fault run lost rows")
			}
			retries += res.Retries
			// Per-statement link attribution from the telemetry layer; summed
			// over runs it matches the raw link counters.
			linkBytes += res.Stats.LinkBytes()
		}
		elapsed := time.Since(start) / runs
		var faults int64
		for _, l := range links {
			faults += l.Stats().Faults
		}
		fmt.Printf("  %-16s %16v %14.1f %14.1f %8d\n",
			fmt.Sprintf("%.0f%%", prob*100), elapsed.Round(time.Microsecond),
			float64(retries)/runs, float64(linkBytes)/runs/1024, totalRows)
		sweep = append(sweep, sweepPoint{
			TransientProb:  prob,
			AvgElapsedMS:   float64(elapsed) / float64(time.Millisecond),
			RetriesPerRun:  float64(retries) / runs,
			LinkBytesPerRn: linkBytes / runs,
			LinkFaults:     faults,
			Rows:           totalRows,
		})
	}
	out, err := json.MarshalIndent(struct {
		Members int          `json:"members"`
		Runs    int          `json:"runs"`
		Sweep   []sweepPoint `json:"sweep"`
	}{members, runs, sweep}, "", "  ")
	must(err)
	must(os.WriteFile("BENCH_E14.json", append(out, '\n'), 0o644))
	fmt.Println("  wrote BENCH_E14.json")

	fmt.Println("\ndowned member: server4 fails forever; breaker threshold 2, partial results on")
	head, links := buildStockFed(members, totalRows, false)
	head.Configure(func(c *engine.Config) {
		c.RemoteRetries = 2
		c.BreakerThreshold, c.BreakerCooldown = 2, time.Hour
		c.PartialResults = true
	})
	mustQ(head, query, nil)
	links[members-1].SetDown(true)
	if _, err := head.Query(query, nil); err != nil {
		fmt.Printf("  first query:    error (retries exhausted, breaker trips)\n")
	}
	start := time.Now()
	res := mustQ(head, query, nil)
	fmt.Printf("  degraded query: %d/%d rows, skipped=%v (%v — fails fast, no retry ladder)\n",
		len(res.Rows), totalRows, res.Skipped, time.Since(start).Round(time.Microsecond))
	fmt.Println("\nretries absorb transient faults with row-identical results; a dead member costs one")
	fmt.Println("tripped breaker and, in degraded mode, its partition — never the whole query.")
}

// --- E15: concurrent clients through the serving layer -----------------

// e15point is one concurrency level's throughput/latency summary in
// BENCH_E15.json.
type e15point struct {
	Clients          int     `json:"clients"`
	QueriesPerClient int     `json:"queries_per_client"`
	Busy             int     `json:"busy_rejections"`
	QPS              float64 `json:"qps"`
	P50MS            float64 `json:"p50_ms"`
	P99MS            float64 `json:"p99_ms"`
}

// percentile reads the p-th percentile from sorted latencies.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

func e15() {
	header("E15", "serving layer: concurrent client sessions over TCP")
	const members, totalRows = 3, 1200
	head, _ := buildStockFed(members, totalRows, true)
	srv := dhqp.Serve(head, dhqp.ServeOptions{MaxConcurrent: 8})
	addr, err := srv.Listen("127.0.0.1:0")
	must(err)
	defer srv.Close()
	query := `SELECT s_qty FROM all_stock WHERE s_id = @id`
	mustQ(head, query, dhqp.Params("id", dhqp.Int(1))) // warm plan + remote schemas

	fmt.Println("workload: point lookups through a 3-member partitioned view, 8 admission slots,")
	fmt.Println("each client one TCP session issuing 30 queries back to back")
	fmt.Printf("  %-10s %10s %12s %12s %8s\n", "clients", "QPS", "p50", "p99", "busy")
	var points []e15point
	for _, clients := range []int{4, 16} {
		const perClient = 30
		lats := make(chan time.Duration, clients*perClient)
		busyC := make(chan int, clients)
		var wg sync.WaitGroup
		barrier := make(chan struct{})
		conns := make([]*dhqp.Client, clients)
		for i := range conns {
			conns[i], err = dhqp.Dial(addr.String())
			must(err)
		}
		start := time.Now()
		for i, c := range conns {
			wg.Add(1)
			go func(i int, c *dhqp.Client) {
				defer wg.Done()
				<-barrier
				busy := 0
				for j := 0; j < perClient; j++ {
					id := int64((i*perClient + j*37) % totalRows)
					t0 := time.Now()
					_, err := c.Query(query, dhqp.Params("id", dhqp.Int(id)))
					if err != nil {
						if dhqp.IsBusy(err) {
							busy++
							continue
						}
						panic(err)
					}
					lats <- time.Since(t0)
				}
				busyC <- busy
			}(i, c)
		}
		close(barrier)
		wg.Wait()
		elapsed := time.Since(start)
		close(lats)
		close(busyC)
		var sorted []time.Duration
		for d := range lats {
			sorted = append(sorted, d)
		}
		busy := 0
		for b := range busyC {
			busy += b
		}
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		qps := float64(len(sorted)) / elapsed.Seconds()
		p50, p99 := percentile(sorted, 0.50), percentile(sorted, 0.99)
		fmt.Printf("  %-10d %10.0f %12v %12v %8d\n",
			clients, qps, p50.Round(time.Microsecond), p99.Round(time.Microsecond), busy)
		points = append(points, e15point{
			Clients:          clients,
			QueriesPerClient: perClient,
			Busy:             busy,
			QPS:              qps,
			P50MS:            float64(p50) / float64(time.Millisecond),
			P99MS:            float64(p99) / float64(time.Millisecond),
		})
		for _, c := range conns {
			must(c.Close())
		}
	}
	out, err := json.MarshalIndent(struct {
		Members       int        `json:"members"`
		MaxConcurrent int        `json:"max_concurrent"`
		Levels        []e15point `json:"levels"`
	}{members, 8, points}, "", "  ")
	must(err)
	must(os.WriteFile("BENCH_E15.json", append(out, '\n'), 0o644))
	fmt.Println("  wrote BENCH_E15.json")
	fmt.Println("\nbeyond the 8 admission slots, added clients queue rather than oversubscribe the")
	fmt.Println("engine: QPS holds near its plateau while p99 absorbs the queueing delay.")
}

// --- E16: batch execution --------------------------------------------

// e16point is one query shape's throughput through typed column batches,
// serialized into BENCH_E16.json.
type e16point struct {
	Name       string  `json:"name"`
	Query      string  `json:"query"`
	OutputRows int     `json:"output_rows"`
	RowsPerSec float64 `json:"rows_per_sec"`
}

func e16() {
	header("E16", "batch execution: fact rows per second through typed column vectors")
	const factRows, dimRows = 1_000_000, 1000
	s := dhqp.NewServer("local", "stardb")
	must(workload.LoadFactDim(s, "stardb", workload.FactDimConfig{FactRows: factRows, DimRows: dimRows, Seed: 7}))

	cases := []struct{ name, sql string }{
		{"scan+filter", `SELECT f_val FROM fact WHERE f_val < 2500`},
		{"scan+filter-float", `SELECT f_fv FROM fact WHERE f_fv < 2500.0`},
		{"scan->join->agg", `SELECT d.d_name, COUNT(*) AS n, SUM(f.f_val) AS sv
			FROM fact f, dim d WHERE f.f_dim = d.d_id AND f.f_val < 5000 GROUP BY d.d_name`},
	}
	const reps = 3
	fmt.Printf("fact: %d rows, dim: %d rows; rows/sec = fact rows scanned per second, best of %d\n\n",
		factRows, dimRows, reps)
	fmt.Printf("  %-18s %14s %12s\n", "pipeline", "rows/s", "output rows")
	var points []e16point
	for _, c := range cases {
		mustQ(s, c.sql, nil) // warm the plan cache so timing excludes optimization
		// A collection of the 1M-row heap runs for 100-200 ms — longer than
		// all three repetitions — and marks with the allocating statement's
		// help; collect now so none starts mid-case.
		runtime.GC()
		best := time.Duration(1<<62 - 1)
		outRows := 0
		for r := 0; r < reps; r++ {
			t0 := time.Now()
			res := mustQ(s, c.sql, nil)
			if d := time.Since(t0); d < best {
				best = d
			}
			outRows = len(res.Rows)
		}
		rate := float64(factRows) / best.Seconds()
		fmt.Printf("  %-18s %14.0f %12d\n", c.name, rate, outRows)
		points = append(points, e16point{Name: c.name, Query: c.sql, OutputRows: outRows, RowsPerSec: rate})
	}
	out, err := json.MarshalIndent(struct {
		FactRows  int        `json:"fact_rows"`
		DimRows   int        `json:"dim_rows"`
		BatchSize int        `json:"default_batch_size"`
		Cases     []e16point `json:"cases"`
	}{factRows, dimRows, 1024, points}, "", "  ")
	must(err)
	must(os.WriteFile("BENCH_E16.json", append(out, '\n'), 0o644))
	fmt.Println("  wrote BENCH_E16.json")
	fmt.Println("\nthe comparison, arithmetic, hash-key and aggregate kernels run over flat")
	fmt.Println("int64/float64/string payloads with validity bitmaps, a batch at a time.")
}

// --- E17: durability -------------------------------------------------

// e17mode is one durability configuration's single-writer insert rate.
type e17mode struct {
	Name       string  `json:"name"`
	RowsPerSec float64 `json:"rows_per_sec"`
}

// e17 prices the write-ahead log: autocommit insert throughput for a
// never-attached in-memory engine vs. a WAL attached at each durability
// level, then mixed DML from 16 concurrent TCP clients against a fully
// durable server, and finally a recovery pass over that server's log.
// The gate counts instead of timing: with the WAL attached but durability
// off, inserts append no record, fsync nothing and allocate per insert
// what in-memory inserts allocate — the log's fixed plumbing (version
// tracking, commit sequencing) is free until you ask for it — while at
// full durability each insert appends its operation and commit records
// and fsyncs once, so the counters are seen to count.
func e17() {
	header("E17", "durability: WAL logging cost, 16-client DML over TCP, recovery")
	const insRows = 2000
	const reps = 3
	// insertRun is one mode's best rate of reps, and what its first run's
	// inserts appended, fsynced and allocated.
	type insertRun struct {
		rate            float64
		appends, fsyncs int64
		allocs          float64 // heap objects per insert
	}
	insertRate := func(prep func(s *dhqp.Server, dir string)) insertRun {
		var run insertRun
		for r := 0; r < reps; r++ {
			s := dhqp.NewServer("local", "benchdb")
			s.MustExec(`CREATE TABLE wl (id int, v varchar(24), PRIMARY KEY (id))`)
			dir, err := os.MkdirTemp("", "e17wal")
			must(err)
			if prep != nil {
				prep(s, dir)
			}
			appends := s.Metrics().Counter("dhqp_wal_appends_total", "WAL records appended")
			fsyncs := s.Metrics().Counter("dhqp_wal_fsyncs_total", "Log-device fsync calls")
			a0, f0 := appends.Value(), fsyncs.Value()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			for i := 0; i < insRows; i++ {
				_, err := s.Exec(fmt.Sprintf(`INSERT INTO wl VALUES (%d, 'payload-%d')`, i, i))
				must(err)
			}
			elapsed := time.Since(t0)
			runtime.ReadMemStats(&m1)
			if r == 0 {
				run.appends, run.fsyncs = appends.Value()-a0, fsyncs.Value()-f0
				run.allocs = float64(m1.Mallocs-m0.Mallocs) / insRows
			}
			run.rate = max(run.rate, float64(insRows)/elapsed.Seconds())
			_, err = s.SetWALDir("")
			must(err)
			must(os.RemoveAll(dir))
		}
		return run
	}
	attach := func(d storage.Durability) func(s *dhqp.Server, dir string) {
		return func(s *dhqp.Server, dir string) {
			_, err := s.SetWALDir(dir)
			must(err)
			s.SetDurability(d)
		}
	}
	names := []string{"in-memory (never attached)", "wal attached, durability=off", "wal, durability=async", "wal, durability=full (fsync/commit)"}
	runs := []insertRun{insertRate(nil), insertRate(attach(storage.DurabilityOff)),
		insertRate(attach(storage.DurabilityAsync)), insertRate(attach(storage.DurabilityFull))}
	modes := make([]e17mode, len(runs))
	fmt.Printf("single writer, %d autocommit single-row inserts, best of %d runs; counts from the first\n\n", insRows, reps)
	fmt.Printf("  %-38s %14s %10s %8s %12s\n", "mode", "inserts/s", "appends", "fsyncs", "allocs/ins")
	for i, r := range runs {
		modes[i] = e17mode{Name: names[i], RowsPerSec: r.rate}
		fmt.Printf("  %-38s %14.0f %10d %8d %12.1f\n", names[i], r.rate, r.appends, r.fsyncs, r.allocs)
	}
	mem, off, full := runs[0], runs[1], runs[3]
	offRatio := off.rate / mem.rate
	gate := off.appends == 0 && off.fsyncs == 0 && off.allocs <= mem.allocs+e17AllocSlack &&
		full.appends == 2*insRows && full.fsyncs == insRows
	fmt.Printf("\n  wal-off / in-memory = %.3f (timing, not gated)\n", offRatio)
	fmt.Printf("  wal-off: %d records, %d fsyncs, %.1f allocs/insert vs %.1f in memory (gate: 0, 0, at most %.1f more);"+
		" full: %d records, %d fsyncs (gate: %d, %d)\n",
		off.appends, off.fsyncs, off.allocs, mem.allocs, e17AllocSlack, full.appends, full.fsyncs, 2*insRows, insRows)

	// 16 TCP clients run mixed DML (insert / update / delete / count)
	// against one fully durable server; every commit fsyncs before its
	// DONE frame goes back on the wire.
	const clients, opsPer = 16, 50
	eng := dhqp.NewServer("local", "benchdb")
	eng.MustExec(`CREATE TABLE ledger (id int, v varchar(24), PRIMARY KEY (id))`)
	walDir, err := os.MkdirTemp("", "e17tcp")
	must(err)
	defer os.RemoveAll(walDir)
	_, err = eng.SetWALDir(walDir)
	must(err)
	srv := dhqp.Serve(eng, dhqp.ServeOptions{})
	addr, err := srv.Listen("127.0.0.1:0")
	must(err)
	var totalOps int64
	t0 := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := dhqp.Dial(addr.String())
			must(err)
			defer c.Close()
			ops := 0
			do := func(sql string) {
				_, err := c.Query(sql, nil)
				must(err)
				ops++
			}
			for i := 0; i < opsPer; i++ {
				id := g*100000 + i
				do(fmt.Sprintf(`INSERT INTO ledger VALUES (%d, 'c%d-op%d')`, id, g, i))
				switch i % 4 {
				case 1:
					do(fmt.Sprintf(`UPDATE ledger SET v = 'patched' WHERE id = %d`, id-1))
				case 2:
					do(fmt.Sprintf(`DELETE FROM ledger WHERE id = %d`, id-2))
				case 3:
					do(`SELECT COUNT(*) AS n FROM ledger`)
				}
			}
			atomic.AddInt64(&totalOps, int64(ops))
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(t0)
	must(srv.Close())
	tcpRate := float64(totalOps) / elapsed.Seconds()
	finalRows := mustQ(eng, `SELECT COUNT(*) AS n FROM ledger`, nil).Rows[0][0].Int()
	fmt.Printf("\n  tcp mixed DML: %d clients x %d rounds = %d statements in %v (%.0f stmts/s, durability=full)\n",
		clients, opsPer, totalOps, elapsed.Round(time.Millisecond), tcpRate)

	// Recovery: a fresh engine pointed at the same log must reproduce the
	// exact surviving row count.
	_, err = eng.SetWALDir("")
	must(err)
	fresh := dhqp.NewServer("local", "benchdb")
	info, err := fresh.SetWALDir(walDir)
	must(err)
	recovered := mustQ(fresh, `SELECT COUNT(*) AS n FROM ledger`, nil).Rows[0][0].Int()
	_, err = fresh.SetWALDir("")
	must(err)
	recoveryGate := recovered == finalRows && len(info.InDoubt) == 0
	fmt.Printf("  recovery: %d committed txns replayed, %d rows (live image had %d), %d in-doubt\n",
		info.Txns, recovered, finalRows, len(info.InDoubt))

	out, err := json.MarshalIndent(struct {
		InsertRows    int       `json:"insert_rows"`
		Modes         []e17mode `json:"modes"`
		OffVsMemory   float64   `json:"wal_off_vs_memory"`
		OffAppends    int64     `json:"wal_off_appends"`
		OffFsyncs     int64     `json:"wal_off_fsyncs"`
		OffAllocs     float64   `json:"wal_off_allocs_per_insert"`
		MemAllocs     float64   `json:"in_memory_allocs_per_insert"`
		FullAppends   int64     `json:"full_appends"`
		FullFsyncs    int64     `json:"full_fsyncs"`
		GatePass      bool      `json:"gate_pass"`
		TCPClients    int       `json:"tcp_clients"`
		TCPOps        int64     `json:"tcp_ops"`
		TCPOpsPerSec  float64   `json:"tcp_ops_per_sec"`
		FinalRows     int64     `json:"final_rows"`
		RecoveredRows int64     `json:"recovered_rows"`
		RecoveryPass  bool      `json:"recovery_gate_pass"`
	}{insRows, modes, offRatio, off.appends, off.fsyncs, off.allocs, mem.allocs, full.appends, full.fsyncs, gate,
		clients, totalOps, tcpRate, finalRows, recovered, recoveryGate}, "", "  ")
	must(err)
	must(os.WriteFile("BENCH_E17.json", append(out, '\n'), 0o644))
	fmt.Println("  wrote BENCH_E17.json")
	if gate {
		fmt.Println("  wal-off-vs-memory gate: PASS")
	} else {
		fmt.Println("  wal-off-vs-memory gate: FAIL (see the counts above)")
	}
	if recoveryGate {
		fmt.Println("  recovery-match gate: PASS")
	} else {
		fmt.Printf("  recovery-match gate: FAIL (recovered %d rows, live image had %d)\n", recovered, finalRows)
	}
	fmt.Println("\nthe log's fixed cost (versioned rows, commit sequencing) is noise next to")
	fmt.Println("parse+plan per statement; fsync-per-commit is the real price of durability,")
	fmt.Println("and async buys most of it back by acknowledging before the sync lands.")
}

// e17AllocSlack is how many more heap objects per insert the WAL-off
// inserts may allocate than the in-memory ones: the runtime's own
// allocations land in either run.
const e17AllocSlack = 0.5

// --- E18: metrics overhead --------------------------------------------

// e18point is one query shape's throughput with the metrics/trace layer
// enabled vs disabled, serialized into BENCH_E18.json.
type e18point struct {
	Name       string  `json:"name"`
	Query      string  `json:"query"`
	OnPerSec   float64 `json:"metrics_on_rows_per_sec"`
	OffPerSec  float64 `json:"metrics_off_rows_per_sec"`
	OverheadPc float64 `json:"overhead_pct"`
	// Heap objects per statement with metrics on beyond off, at the small
	// and the large fact table.
	ExtraAllocsSmall float64 `json:"extra_allocs_per_stmt_small"`
	ExtraAllocsLarge float64 `json:"extra_allocs_per_stmt_large"`
}

// e18AllocStmts is how many executions E18's allocation count averages.
const e18AllocStmts = 5

// e18AllocSlack is how many more heap objects per statement the metrics
// may add at 1 000 000 fact rows than at 10 000: the difference of two
// Mallocs counts wanders by a few tenths of an object either way, while an
// allocation per row or per batch would add thousands.
const e18AllocSlack = 0.5

// e18 times the metrics layer on the E16 pipeline and gates on a count:
// the instruments cost a fixed amount per statement, not per row, so the
// heap objects a statement allocates with metrics on beyond metrics off
// grow by at most e18AllocSlack from 10 000 to 1 000 000 fact rows. The
// timings are printed and written, not gated: on a small host the noise
// between interleaved 20–50 ms statements is wider than the overhead.
func e18() {
	header("E18", "metrics overhead: instrumented vs metrics-off on the E16 pipeline")
	const factRows, smallRows, dimRows = 1_000_000, 10_000, 1000
	s := dhqp.NewServer("local", "stardb")
	must(workload.LoadFactDim(s, "stardb", workload.FactDimConfig{FactRows: factRows, DimRows: dimRows, Seed: 7}))
	small := dhqp.NewServer("local", "stardb")
	must(workload.LoadFactDim(small, "stardb", workload.FactDimConfig{FactRows: smallRows, DimRows: dimRows, Seed: 7}))

	cases := []struct{ name, sql string }{
		{"scan+filter", `SELECT f_val FROM fact WHERE f_val < 2500`},
		{"scan->join->agg", `SELECT d.d_name, COUNT(*) AS n, SUM(f.f_val) AS sv
			FROM fact f, dim d WHERE f.f_dim = d.d_id AND f.f_val < 5000 GROUP BY d.d_name`},
	}
	// Interleaved rounds with best-of across all rounds for each mode:
	// GC pauses and scheduler noise on a ~20ms query dwarf the per-statement
	// instrument cost, so a single on-then-off comparison measures warmup
	// order, not overhead.
	const reps, rounds = 3, 4
	measure := func(sql string) time.Duration {
		best := time.Duration(1<<62 - 1)
		for r := 0; r < reps; r++ {
			t0 := time.Now()
			mustQ(s, sql, nil)
			if d := time.Since(t0); d < best {
				best = d
			}
		}
		return best
	}
	// extraAllocs is the heap objects per statement metrics on allocates
	// beyond metrics off: each mode's fewest over three rounds of
	// e18AllocStmts executions, as the runtime's own allocations only add.
	extraAllocs := func(srv *dhqp.Server, sql string) float64 {
		count := func(on bool) float64 {
			srv.SetMetricsEnabled(on)
			for range e18AllocStmts { // warm: plan, kept trees, result buffers
				mustQ(srv, sql, nil)
			}
			fewest := 0.0
			for r := range 3 {
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				for range e18AllocStmts {
					mustQ(srv, sql, nil)
				}
				runtime.ReadMemStats(&m1)
				if n := float64(m1.Mallocs-m0.Mallocs) / e18AllocStmts; r == 0 || n < fewest {
					fewest = n
				}
			}
			return fewest
		}
		off := count(false)
		defer srv.SetMetricsEnabled(true)
		return count(true) - off
	}

	fmt.Printf("fact: %d rows; rows/sec = fact rows scanned per second, best of %d x %d interleaved rounds\n",
		factRows, reps, rounds)
	fmt.Println("metrics on = counters + histograms + wait table + slow-query check on every statement")
	fmt.Printf("extra allocs = heap objects per statement with metrics on beyond off (fewest of 3 rounds of %d), at %d and %d fact rows\n",
		e18AllocStmts, smallRows, factRows)
	fmt.Printf("\n  %-18s %14s %14s %10s %14s %14s\n", "pipeline", "on r/s", "off r/s", "overhead", "extra @10k", "extra @1M")
	var points []e18point
	worst := 0.0
	gate := true
	for _, c := range cases {
		mustQ(s, c.sql, nil) // warm the plan cache so timing excludes optimization
		bestOn := time.Duration(1<<62 - 1)
		bestOff := bestOn
		for r := 0; r < rounds; r++ {
			s.SetMetricsEnabled(true)
			if d := measure(c.sql); d < bestOn {
				bestOn = d
			}
			s.SetMetricsEnabled(false)
			if d := measure(c.sql); d < bestOff {
				bestOff = d
			}
		}
		s.SetMetricsEnabled(true)
		on := float64(factRows) / bestOn.Seconds()
		off := float64(factRows) / bestOff.Seconds()
		overhead := (off - on) / off * 100
		if overhead < 0 {
			overhead = 0 // measurement noise: instrumented run was not slower
		}
		if overhead > worst {
			worst = overhead
		}
		extraSmall, extraLarge := extraAllocs(small, c.sql), extraAllocs(s, c.sql)
		gate = gate && extraLarge <= extraSmall+e18AllocSlack
		fmt.Printf("  %-18s %14.0f %14.0f %9.2f%% %14.1f %14.1f\n", c.name, on, off, overhead, extraSmall, extraLarge)
		points = append(points, e18point{
			Name: c.name, Query: c.sql, OnPerSec: on, OffPerSec: off, OverheadPc: overhead,
			ExtraAllocsSmall: extraSmall, ExtraAllocsLarge: extraLarge,
		})
	}
	out, err := json.MarshalIndent(struct {
		FactRows  int        `json:"fact_rows"`
		SmallRows int        `json:"small_fact_rows"`
		DimRows   int        `json:"dim_rows"`
		Cases     []e18point `json:"cases"`
		WorstPct  float64    `json:"worst_overhead_pct"`
		GatePass  bool       `json:"gate_pass"`
	}{factRows, smallRows, dimRows, points, worst, gate}, "", "  ")
	must(err)
	must(os.WriteFile("BENCH_E18.json", append(out, '\n'), 0o644))
	fmt.Println("  wrote BENCH_E18.json")
	if gate {
		fmt.Println("  metrics-overhead gate: PASS")
	} else {
		fmt.Printf("  metrics-overhead gate: FAIL (metrics allocate more than %.1f more objects per statement at 1M fact rows than at 10k)\n", e18AllocSlack)
	}
	fmt.Println("\nthe hot path loads one atomic pointer per statement; when it is nil every")
	fmt.Println("instrument call is a branch-not-taken, and when set the cost is a handful of")
	fmt.Println("atomic adds per statement — not per row — so overhead stays inside noise.")
}
