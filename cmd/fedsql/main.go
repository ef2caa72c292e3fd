// fedsql is an interactive SQL shell over a DHQP federation. It starts a
// local server plus a configurable number of linked SQL servers, loads a
// demo dataset, and reads statements from stdin.
//
// It also fronts the network serving layer:
//
//	fedsql --listen 127.0.0.1:4333   serve the federation over TCP; drains
//	                                 gracefully on SIGTERM/SIGINT (exit 0)
//	fedsql --connect 127.0.0.1:4333  REPL as a network client session
//
// Meta-commands and statement forms:
//
//	EXPLAIN <select>          show the optimized plan with estimated rows
//	EXPLAIN ANALYZE <select>  execute and show estimated vs. actual rows,
//	                          phase timings, remote SQL and link metrics
//	SELECT * FROM sys.dm_exec_query_stats
//	                          aggregate per-statement execution statistics
//	SELECT * FROM sys.dm_exec_sessions | dm_exec_requests
//	                          serving-layer sessions and in-flight requests
//	KILL <session_id>         cancel another session's statement (connect mode)
//	\plan <select>   show the optimized physical plan instead of executing
//	\traffic         show per-link traffic counters
//	\servers         list linked servers and their capabilities
//	\info            serving-layer occupancy (connect mode)
//	\help            this text
//	\q               quit
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dhqp"
	"dhqp/internal/algebra"
	"dhqp/internal/engine"
	"dhqp/internal/metrics"
	"dhqp/internal/opt"
	"dhqp/internal/server"
	"dhqp/internal/workload"
)

func main() {
	remotes := flag.Int("remotes", 1, "number of linked SQL servers")
	demo := flag.Bool("demo", true, "load the TPC-H demo dataset")
	listen := flag.String("listen", "", "serve the federation over TCP on this address instead of a local REPL")
	connect := flag.String("connect", "", "connect the REPL to a serving fedsql at this address (no local engine)")
	walDir := flag.String("wal-dir", "", "attach a write-ahead log under this directory: commits become durable and any state the log holds is recovered at startup")
	metricsAddr := flag.String("metrics-addr", "", "serve Prometheus metrics, /healthz and pprof over HTTP on this address")
	slowMS := flag.Int("slow-query-ms", 0, "log statements slower than this many milliseconds as JSON lines on stderr (0 = off)")
	flag.Parse()

	if *connect != "" {
		runClient(*connect)
		return
	}

	local := dhqp.NewServer("local", "appdb")
	if *slowMS > 0 {
		local.Configure(func(c *engine.Config) {
			c.SlowQueryThreshold = time.Duration(*slowMS) * time.Millisecond
		})
	}
	if *walDir != "" {
		info, err := local.SetWALDir(*walDir)
		if err != nil {
			fatal(err)
		}
		if info.Tables > 0 || info.Rows > 0 {
			// Recovered state replaces the demo dataset.
			*demo = false
			fmt.Printf("recovered: %d tables, %d rows, %d committed txns (torn bytes discarded: %d)\n",
				info.Tables, info.Rows, info.Txns, info.TornBytes)
		}
		// Without a coordinator to consult after a restart, prepared-but-
		// undecided distributed transactions presume abort (their row locks
		// would otherwise block writers forever).
		for _, id := range info.InDoubt {
			if err := local.ResolveInDoubt(id, false); err != nil {
				fatal(err)
			}
			fmt.Printf("in-doubt txn %d: presumed abort\n", id)
		}
	}
	var links []*dhqp.Link
	for i := 0; i < *remotes; i++ {
		name := fmt.Sprintf("remote%d", i)
		r := dhqp.NewServer(name+"srv", "tpch10g")
		link := dhqp.LAN()
		if err := local.AddLinkedServer(name, dhqp.SQLProvider(r, link), link); err != nil {
			fatal(err)
		}
		links = append(links, link)
		if *demo && i == 0 {
			if err := workload.LoadTPCHRemote(r, workload.SmallTPCH()); err != nil {
				fatal(err)
			}
		}
	}
	if *demo {
		if err := workload.LoadTPCHNation(local, workload.SmallTPCH()); err != nil {
			fatal(err)
		}
	}

	if *listen != "" {
		runServer(local, *listen, *metricsAddr)
		return
	}
	if *metricsAddr != "" {
		h, err := metrics.ListenAndServe(*metricsAddr, local.Metrics(), nil)
		if err != nil {
			fatal(err)
		}
		defer h.Close(context.Background())
		fmt.Printf("fedsql: metrics on http://%s/metrics\n", h.Addr())
	}

	if *demo {
		fmt.Println("demo data loaded: nation (local); customer, supplier (remote0)")
		fmt.Println(`try: SELECT c.c_name FROM remote0.tpch10g.dbo.customer c, nation n WHERE c.c_nationkey = n.n_nationkey AND n.n_name = 'nation03'`)
	}
	fmt.Printf("fedsql: local server + %d linked server(s). \\help for commands.\n", *remotes)

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print("fedsql> ")
		if !sc.Scan() {
			return
		}
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			continue
		case line == `\q` || line == "exit" || line == "quit":
			return
		case line == `\help`:
			fmt.Println(`EXPLAIN <select>          optimized plan with estimated rows + optimizer report
EXPLAIN ANALYZE <select>  execute; estimated vs actual rows, phases, remote SQL, link metrics
SELECT * FROM sys.dm_exec_query_stats   aggregate per-statement statistics
SELECT * FROM sys.dm_exec_cached_plans  plan-cache occupancy and hit/miss/eviction counters
\plan <select>  show physical plan;  \traffic  link counters;  \servers  linked servers;  \q  quit`)
		case line == `\traffic`:
			for i, l := range links {
				s := l.Stats()
				fmt.Printf("remote%d: %d calls, %d rows, %d bytes, %v virtual time\n",
					i, s.Calls, s.Rows, s.Bytes, s.VirtualTime)
			}
		case line == `\servers`:
			for _, name := range local.LinkedServers() {
				caps, _ := local.LinkedCaps(name)
				fmt.Printf("%s: provider=%s language=%q sql=%s\n",
					name, caps.ProviderName, caps.QueryLanguage, caps.SQLSupport)
			}
		case strings.HasPrefix(line, `\plan `):
			explain(local, strings.TrimPrefix(line, `\plan `))
		default:
			runStatement(local, line)
		}
	}
}

// runServer serves the federation over TCP until SIGTERM/SIGINT, then
// drains gracefully: no new sessions, in-flight statements finish under the
// drain deadline, stragglers are cancelled, and the process exits 0.
func runServer(local *dhqp.Server, addr, metricsAddr string) {
	srv := dhqp.Serve(local, dhqp.ServeOptions{})
	bound, err := srv.Listen(addr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("fedsql: serving on %s (connect with: fedsql --connect %s)\n", bound, bound)
	var mh *metrics.HTTPServer
	if metricsAddr != "" {
		// /healthz flips unhealthy the moment drain begins, so load
		// balancers stop routing before the listener goes away.
		mh, err = metrics.ListenAndServe(metricsAddr, local.Metrics(), srv.Healthy)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("fedsql: metrics on http://%s/metrics\n", mh.Addr())
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	s := <-sig
	fmt.Printf("fedsql: %v received, draining\n", s)
	if err := srv.Close(); err != nil {
		fatal(err)
	}
	if mh != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_ = mh.Close(ctx)
		cancel()
	}
	fmt.Println("fedsql: drained, bye")
}

// runClient is the REPL in network-client mode: every statement — SELECT,
// DML, KILL, the DMVs — ships to the serving fedsql as one session.
func runClient(addr string) {
	c, err := dhqp.Dial(addr)
	if err != nil {
		fatal(err)
	}
	defer c.Close()
	fmt.Printf("fedsql: connected to %s as session %d\n", c.ServerName(), c.SessionID())
	tracing := false
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print("fedsql> ")
		if !sc.Scan() {
			return
		}
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			continue
		case line == `\q` || line == "exit" || line == "quit":
			return
		case line == `\help`:
			fmt.Println(`any SQL statement runs on the server, including the DMVs
SELECT * FROM sys.dm_exec_sessions | dm_exec_requests | dm_exec_query_stats | dm_exec_cached_plans
SELECT * FROM sys.dm_os_performance_counters | dm_os_wait_stats
KILL <session_id>  cancel that session's statement;  \info  occupancy
\trace  toggle distributed tracing (span tree after each query);  \q  quit`)
		case line == `\trace`:
			tracing = !tracing
			c.SetTrace(tracing)
			fmt.Printf("tracing %v\n", tracing)
		case line == `\info`:
			info, err := c.ServerInfo()
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Printf("server=%s sessions=%d running=%d queued=%d slots=%d draining=%v\n",
				info.Server, info.Sessions, info.Running, info.Queued, info.MaxConcurrent, info.Draining)
		default:
			res, err := c.Query(line, nil)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			if len(res.Cols) > 0 {
				fmt.Print(res.Display())
				fmt.Printf("(%d rows)\n", len(res.Rows))
			} else {
				fmt.Printf("ok (%d rows affected)\n", res.RowsAffected)
			}
			if tree := res.SpanTree(); tree != "" {
				fmt.Printf("trace %s:\n%s", res.TraceID, tree)
			}
		}
	}
}

// explain compiles without executing and prints the plan with the
// optimizer's estimated rows plus the optimization report.
func explain(local *dhqp.Server, sql string) {
	plan, _, report, err := local.Plan(sql)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Print(plan.RenderAnnotated(estAnnot))
	printReport(report)
}

// printReport shows the optimizer's search diagnostics (phase reached,
// final cost, memo size, rules fired).
func printReport(report *opt.Report) {
	fmt.Printf("phase=%q cost=%.0f groups=%d exprs=%d rules fired=%d\n",
		report.PhaseReached, report.FinalCost, report.Groups, report.Exprs, report.RulesFired)
}

// estAnnot renders a node's estimated-cardinality suffix for EXPLAIN.
func estAnnot(n *algebra.Node) string {
	if n.Est == nil {
		return ""
	}
	return fmt.Sprintf("[est=%.0f cost=%.0f]", n.Est.Rows, n.Est.Cost)
}

func runStatement(local *dhqp.Server, line string) {
	upper := strings.ToUpper(line)
	switch {
	case strings.HasPrefix(upper, "EXPLAIN ANALYZE "):
		ea, err := local.ExplainAnalyze(strings.TrimSpace(line[len("EXPLAIN ANALYZE"):]), nil)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Print(ea.String())
		printReport(local.LastReport())
	case strings.HasPrefix(upper, "EXPLAIN "):
		explain(local, strings.TrimSpace(line[len("EXPLAIN"):]))
	case strings.HasPrefix(upper, "SELECT") && strings.Contains(upper, "DM_EXEC_QUERY_STATS"):
		// Same rendering the serving layer uses for its DMV.
		fmt.Print(server.QueryStatsResult(local).Display())
	case strings.HasPrefix(upper, "SELECT") && strings.Contains(upper, "DM_EXEC_CACHED_PLANS"):
		fmt.Print(server.PlanCacheResult(local).Display())
	case strings.HasPrefix(upper, "SELECT") && strings.Contains(upper, "DM_OS_PERFORMANCE_COUNTERS"):
		fmt.Print(server.PerformanceCountersResult(local).Display())
	case strings.HasPrefix(upper, "SELECT") && strings.Contains(upper, "DM_OS_WAIT_STATS"):
		fmt.Print(server.WaitStatsResult(local).Display())
	case strings.HasPrefix(upper, "SELECT"):
		res, err := local.Query(line, nil)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Print(res.Display())
		fmt.Printf("(%d rows)\n", len(res.Rows))
	default:
		n, err := local.Exec(line)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Printf("ok (%d rows affected)\n", n)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fedsql:", err)
	os.Exit(1)
}
