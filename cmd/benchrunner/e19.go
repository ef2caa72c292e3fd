package main

// E19: elastic shard maps (versioned partitioned-view topology). Three
// claims reproduce here:
//
//  1. Scatter-gather through an elastic view scales to 128 members — the
//     head fans a full-view scan out and gathers the members' rows, timed
//     as the median of e19Runs runs, every run kept in BENCH_E19.json with
//     the provenance of the measurement.
//  2. Partial-aggregation pushdown ships per-member partial rows instead
//     of data rows: at 32 members the aggregate's link bytes must be
//     under 10% of the row-shipping baseline (DisableAggSplit).
//  3. A member add (topology cutover) lands mid-workload without a wrong
//     answer: a checksum taken while the shard map flips equals the
//     checksum taken on the quiesced view.

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"dhqp"
	"dhqp/internal/engine"
)

// buildElasticFed assembles a head plus `members` member servers, an
// elastic "orders" view range-partitioned over them, and `rows` total rows.
func buildElasticFed(members, rows int) (*dhqp.Server, []*dhqp.Link) {
	head := dhqp.NewServer("head", "fed")
	var links []*dhqp.Link
	var placements []dhqp.ShardPlacement
	per := rows / members
	for i := 0; i < members; i++ {
		m := dhqp.NewServer(fmt.Sprintf("w%d", i), "fed")
		_, err := m.Exec(`CREATE TABLE bootstrap (x INT)`)
		must(err)
		link := dhqp.LAN()
		name := fmt.Sprintf("server%d", i+1)
		must(head.AddLinkedServer(name, dhqp.SQLProvider(m, link), link))
		links = append(links, link)
		placements = append(placements, dhqp.ShardPlacement{
			Server: name, Lo: int64(i * per), Hi: int64((i + 1) * per),
		})
	}
	cols := []dhqp.Column{
		{Name: "o_id", Kind: dhqp.KindInt},
		{Name: "amount", Kind: dhqp.KindInt, Nullable: true},
	}
	must(head.CreateElasticView("orders", "o_id", cols, placements))
	var b strings.Builder
	b.WriteString("INSERT INTO orders VALUES ")
	for i := 0; i < rows; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, %d)", i, i*7%100)
	}
	// The members were empty when the head first touched them; the load
	// passes the statistics rule, so the next compile fetches the seeded
	// row counts.
	_, err := head.Exec(b.String())
	must(err)
	return head, links
}

func linkBytes(links []*dhqp.Link) int64 {
	var total int64
	for _, l := range links {
		total += l.Stats().Bytes
	}
	return total
}

type e19point struct {
	Members        int       `json:"members"`
	ScanRowsPerSec float64   `json:"scatter_gather_rows_per_sec"`
	ScanRuns       []float64 `json:"scatter_gather_rows_per_sec_runs"`
	AggBytes       int64     `json:"partial_agg_link_bytes"`
	RowShipBytes   int64     `json:"row_shipping_link_bytes"`
	AggBytesPct    float64   `json:"agg_bytes_pct_of_row_shipping"`
}

// e19Runs is how many timed runs of five scans each E19 takes per member
// count; the point reports their median.
const e19Runs = 5

// gatherRate times e19Runs runs of five full-view scans and returns each
// run's rows per second and their median.
func gatherRate(head *dhqp.Server, rows int) (float64, []float64) {
	scan := `SELECT o_id, amount FROM orders`
	mustQ(head, scan, nil)
	runs := make([]float64, e19Runs)
	for r := range runs {
		start := time.Now()
		for i := 0; i < 5; i++ {
			if res := mustQ(head, scan, nil); len(res.Rows) != rows {
				panic("scatter-gather row count")
			}
		}
		runs[r] = float64(rows*5) / time.Since(start).Seconds()
	}
	sorted := slices.Clone(runs)
	slices.Sort(sorted)
	return sorted[len(sorted)/2], runs
}

// e19Provenance says what measured BENCH_E19.json: the commit (marked
// dirty when the tree differs from it), toolchain, cores and run count.
func e19Provenance() map[string]any {
	commit := "unknown"
	if out, err := exec.Command("git", "describe", "--always", "--dirty", "--abbrev=40").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return map[string]any{
		"git_commit": commit, "go_version": runtime.Version(),
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"runs": e19Runs, "scans_per_run": 5, "date": time.Now().UTC().Format(time.RFC3339),
	}
}

func e19() {
	header("E19", "elastic shard maps: scatter-gather scale, partial-agg bytes, online member add")
	const rows = 6400
	agg := `SELECT COUNT(o_id) AS n, SUM(amount) AS s, AVG(amount) AS a FROM orders`
	fmt.Println("workload: full-view scan and aggregate over an elastic view of", rows, "rows")
	fmt.Printf("  %-8s %18s %18s %18s %8s\n", "members", "rows/s (gather)", "agg bytes", "row-ship bytes", "pct")
	var points []e19point
	var gatePct float64
	for _, members := range []int{4, 32, 128} {
		head, links := buildElasticFed(members, rows)

		// Scatter-gather throughput: full-view scan, rows per second.
		rowsPerSec, scanRuns := gatherRate(head, rows)

		// Partial-agg pushdown vs row shipping, by link bytes.
		mustQ(head, agg, nil)
		before := linkBytes(links)
		mustQ(head, agg, nil)
		aggBytes := linkBytes(links) - before

		head.Configure(func(c *engine.Config) { c.DisableAggSplit = true })
		mustQ(head, agg, nil)
		before = linkBytes(links)
		mustQ(head, agg, nil)
		shipBytes := linkBytes(links) - before
		head.Configure(func(c *engine.Config) { c.DisableAggSplit = false })

		pct := 100 * float64(aggBytes) / float64(shipBytes)
		if members == 32 {
			gatePct = pct
		}
		fmt.Printf("  %-8d %18.0f %18d %18d %7.1f%%\n", members, rowsPerSec, aggBytes, shipBytes, pct)
		points = append(points, e19point{
			Members: members, ScanRowsPerSec: rowsPerSec, ScanRuns: scanRuns,
			AggBytes: aggBytes, RowShipBytes: shipBytes, AggBytesPct: pct,
		})
	}

	// Online member add: queries hammer the view while AddShard extends
	// coverage and newly-routed inserts land; every result must be
	// internally consistent (count and checksum move together).
	fmt.Println("\nonline member add: aggregate checksums while the shard map flips")
	head, _ := buildElasticFed(4, rows)
	checksum := func() (int64, int64) {
		res := mustQ(head, `SELECT o_id, amount FROM orders`, nil)
		var sum int64
		for _, r := range res.Rows {
			sum += r[0].Int()*31 + r[1].Int()
		}
		return int64(len(res.Rows)), sum
	}
	baseCount, baseSum := checksum()
	var wg sync.WaitGroup
	torn := make(chan string, 64)
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				c, s := checksum()
				// The reader either sees the base image or base plus some
				// prefix of the new member's rows — never a torn move.
				if c < baseCount || (c == baseCount && s != baseSum) {
					torn <- fmt.Sprintf("count=%d sum=%d (base %d/%d)", c, s, baseCount, baseSum)
					return
				}
			}
		}()
	}
	grow := dhqp.NewServer("wnew", "fed")
	_, err := grow.Exec(`CREATE TABLE bootstrap (x INT)`)
	must(err)
	link := dhqp.LAN()
	must(head.AddLinkedServer("servernew", dhqp.SQLProvider(grow, link), link))
	must(head.AddShard("orders", dhqp.ShardPlacement{Server: "servernew", Lo: rows, Hi: rows + 100}))
	var extraSum int64
	for i := rows; i < rows+100; i++ {
		_, err := head.Exec(fmt.Sprintf("INSERT INTO orders VALUES (%d, %d)", i, i%100))
		must(err)
		extraSum += int64(i)*31 + int64(i%100)
	}
	close(stop)
	wg.Wait()
	tornMsg := ""
	select {
	case tornMsg = <-torn:
	default:
	}
	finalCount, finalSum := checksum()
	addOK := tornMsg == "" && finalCount == int64(rows+100) && finalSum == baseSum+extraSum
	if addOK {
		fmt.Printf("  member add: PASS (rows %d -> %d, checksum matched under load)\n", rows, finalCount)
	} else {
		fmt.Printf("  member add: FAIL (torn=%q count=%d sum=%d want %d/%d)\n",
			tornMsg, finalCount, finalSum, rows+100, baseSum+extraSum)
	}

	const gateLimit = 10.0
	gate := gatePct < gateLimit && addOK
	out, err := json.MarshalIndent(struct {
		Provenance    map[string]any `json:"provenance"`
		Rows          int            `json:"rows"`
		Points        []e19point     `json:"points"`
		Gate32Pct     float64        `json:"agg_bytes_pct_at_32_members"`
		GateLimitPct  float64        `json:"gate_limit_pct"`
		MemberAddOK   bool           `json:"member_add_consistent"`
		GatePass      bool           `json:"gate_pass"`
		FinalRowCount int64          `json:"final_row_count"`
	}{e19Provenance(), rows, points, gatePct, gateLimit, addOK, gate, finalCount}, "", "  ")
	must(err)
	must(os.WriteFile("BENCH_E19.json", append(out, '\n'), 0o644))
	fmt.Println("  wrote BENCH_E19.json")
	if gate {
		fmt.Println("  elastic gate: PASS")
	} else {
		fmt.Printf("  elastic gate: FAIL (agg bytes %.1f%% of row shipping at 32 members, limit %.0f%%)\n",
			gatePct, gateLimit)
	}
	fmt.Println("\npartial aggregation ships one row per member per group instead of every data")
	fmt.Println("row, so link bytes stay flat as members grow; the shard-map statement gate")
	fmt.Println("pins in-flight queries to their map version, so a member add never tears a scan.")
}
