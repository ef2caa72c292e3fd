package engine

import (
	"sort"
	"strings"
	"sync"
	"testing"

	"dhqp/internal/netsim"
	"dhqp/internal/providers/sqlful"
)

// buildFanOut creates a head plus n member servers, each holding one range
// partition of `sales` (y in [1990+i, 1991+i)) with rowsPer rows, unioned
// under the all_sales partitioned view.
func buildFanOut(t *testing.T, n, rowsPer int) (*Server, []*netsim.Link) {
	t.Helper()
	head := NewServer("head", "fed")
	var arms []string
	var links []*netsim.Link
	for i := 0; i < n; i++ {
		yr := 1990 + i
		m := NewServer("member", "fed")
		m.MustExec(`CREATE TABLE sales (y INT NOT NULL CHECK (y >= ` + itoa(yr) + ` AND y < ` + itoa(yr+1) + `), amount INT)`)
		var b strings.Builder
		b.WriteString("INSERT INTO sales VALUES ")
		for j := 0; j < rowsPer; j++ {
			if j > 0 {
				b.WriteString(", ")
			}
			b.WriteString("(" + itoa(yr) + ", " + itoa(i*rowsPer+j) + ")")
		}
		m.MustExec(b.String())
		link := netsim.LAN()
		name := "server" + itoa(i+1)
		if err := head.AddLinkedServer(name, sqlful.New(m, link, sqlful.FullSQLCapabilities()), link); err != nil {
			t.Fatal(err)
		}
		arms = append(arms, "SELECT y, amount FROM "+name+".fed.dbo.sales")
		links = append(links, link)
	}
	head.MustExec(`CREATE VIEW all_sales AS ` + strings.Join(arms, " UNION ALL "))
	return head, links
}

func sortedPairs(r *Result) [][2]int64 {
	out := make([][2]int64, len(r.Rows))
	for i, row := range r.Rows {
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

// TestParallelFanOutMatchesSerial runs a full partitioned-view scan serially
// (MaxDOP=1) and in parallel and checks the multisets agree; run with -race
// to validate the exchange's synchronization end to end.
func TestParallelFanOutMatchesSerial(t *testing.T) {
	head, _ := buildFanOut(t, 4, 100)
	const query = `SELECT y, amount FROM all_sales`

	head.Configure(func(c *Config) { c.MaxDOP = 1 })
	serial := sortedPairs(q(t, head, query))
	if len(serial) != 400 {
		t.Fatalf("serial rows = %d", len(serial))
	}

	head.Configure(func(c *Config) { c.MaxDOP = 0 })
	parallel := sortedPairs(q(t, head, query))
	if len(parallel) != len(serial) {
		t.Fatalf("parallel rows = %d, want %d", len(parallel), len(serial))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("row %d: serial %v vs parallel %v", i, serial[i], parallel[i])
		}
	}
}

// TestParallelFanOutConcurrentQueries drives the parallel exchange from
// several client goroutines at once (run with -race).
func TestParallelFanOutConcurrentQueries(t *testing.T) {
	head, _ := buildFanOut(t, 3, 50)
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

type errRowCount int

func (e errRowCount) Error() string { return "unexpected row count " + itoa(int(e)) }

// TestParallelFanOutCost checks the optimizer charges a parallel fan-out as
// the max of its remote children plus startup, not their sum: scanning the
// whole 4-member view must cost less than two single-member scans.
func TestParallelFanOutCost(t *testing.T) {
	head, _ := buildFanOut(t, 4, 100)
	_, _, viewReport, err := head.Plan(`SELECT y, amount FROM all_sales`)
	if err != nil {
		t.Fatal(err)
	}
	_, _, oneReport, err := head.Plan(`SELECT y, amount FROM server1.fed.dbo.sales`)
	if err != nil {
		t.Fatal(err)
	}
	if oneReport.FinalCost <= 0 {
		t.Fatalf("single-member cost = %v", oneReport.FinalCost)
	}
	if viewReport.FinalCost >= 2*oneReport.FinalCost {
		t.Errorf("4-member view cost %v is not max-based (single member costs %v)",
			viewReport.FinalCost, oneReport.FinalCost)
	}
}
