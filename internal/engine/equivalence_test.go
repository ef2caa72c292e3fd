package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"dhqp/internal/netsim"
	"dhqp/internal/providers/sqlful"
	"dhqp/internal/rules"
)

// TestOptimizerEquivalence is the metamorphic correctness check: for a set
// of generated distributed queries, every optimizer configuration —
// transaction-processing-only, quick plan, full optimization, spools
// disabled, parameterization disabled, statistics disabled — must produce
// identical result multisets. Plans differ wildly; answers may not.
func TestOptimizerEquivalence(t *testing.T) {
	build := func() *Server {
		local := NewServer("local", "db")
		remote := NewServer("r", "rdb")
		remote.MustExec(`CREATE TABLE orders (o_id INT PRIMARY KEY, o_cust INT, o_total INT, o_year INT)`)
		remote.MustExec(`CREATE INDEX ix_ocust ON orders (o_cust)`)
		rng := rand.New(rand.NewSource(11))
		var b strings.Builder
		b.WriteString("INSERT INTO orders VALUES ")
		for i := 0; i < 300; i++ {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%d, %d, %d, %d)", i, rng.Intn(40), rng.Intn(1000), 1992+rng.Intn(5))
		}
		remote.MustExec(b.String())
		local.MustExec(`CREATE TABLE cust (c_id INT PRIMARY KEY, c_name VARCHAR(16), c_tier INT)`)
		b.Reset()
		b.WriteString("INSERT INTO cust VALUES ")
		for i := 0; i < 40; i++ {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%d, 'cust%02d', %d)", i, i, i%3)
		}
		local.MustExec(b.String())
		link := netsim.LAN()
		local.AddLinkedServer("r0", sqlful.New(remote, link, sqlful.FullSQLCapabilities()), link)
		return local
	}

	queries := []string{
		`SELECT o_id FROM r0.rdb.dbo.orders WHERE o_total > 500`,
		`SELECT c.c_name, o.o_total FROM cust c, r0.rdb.dbo.orders o WHERE c.c_id = o.o_cust AND o.o_year = 1994`,
		`SELECT o_year, COUNT(*) AS n, SUM(o_total) AS s FROM r0.rdb.dbo.orders GROUP BY o_year`,
		`SELECT c.c_tier, COUNT(*) AS n FROM cust c, r0.rdb.dbo.orders o
			WHERE c.c_id = o.o_cust AND o.o_total BETWEEN 100 AND 800 GROUP BY c.c_tier`,
		`SELECT c_name FROM cust c WHERE EXISTS (
			SELECT * FROM r0.rdb.dbo.orders o WHERE o.o_cust = c.c_id AND o.o_total > 900)`,
		`SELECT c_name FROM cust c WHERE NOT EXISTS (
			SELECT * FROM r0.rdb.dbo.orders o WHERE o.o_cust = c.c_id)`,
		`SELECT TOP 5 o_id, o_total FROM r0.rdb.dbo.orders ORDER BY o_total DESC, o_id`,
		`SELECT o.o_id FROM r0.rdb.dbo.orders o, cust c WHERE o.o_cust = c.c_id AND c.c_tier = 1 AND o.o_year <> 1993`,
		`SELECT COUNT(*) AS n FROM r0.rdb.dbo.orders o1, r0.rdb.dbo.orders o2 WHERE o1.o_cust = o2.o_cust AND o1.o_id < o2.o_id`,
	}

	type config struct {
		name  string
		apply func(*Server)
	}
	configs := []config{
		{"full", func(s *Server) {}},
		{"tp-only", func(s *Server) {
			s.Configure(func(c *Config) {
				c.OptConfig.MaxPhase = rules.PhaseTP
				c.OptConfig.TPThreshold = 0
			})
		}},
		{"quick-only", func(s *Server) {
			s.Configure(func(c *Config) {
				c.OptConfig.MaxPhase = rules.PhaseQuick
				c.OptConfig.TPThreshold, c.OptConfig.QuickThreshold = 0, 0
			})
		}},
		{"no-spool", func(s *Server) { s.Configure(func(c *Config) { c.DisableSpool = true }) }},
		{"no-param", func(s *Server) { s.Configure(func(c *Config) { c.DisableParameterization = true }) }},
		{"no-stats", func(s *Server) { s.Configure(func(c *Config) { c.UseRemoteStatistics = false }) }},
	}

	for qi, sql := range queries {
		var reference []string
		var refName string
		for _, cfg := range configs {
			s := build()
			cfg.apply(s)
			res, err := s.Query(sql, nil)
			if err != nil {
				t.Fatalf("query %d under %s: %v", qi, cfg.name, err)
			}
			got := canonical(res, strings.Contains(sql, "TOP"))
			if reference == nil {
				reference, refName = got, cfg.name
				continue
			}
			if len(got) != len(reference) {
				t.Errorf("query %d: %s returned %d rows, %s returned %d",
					qi, cfg.name, len(got), refName, len(reference))
				continue
			}
			for i := range got {
				if got[i] != reference[i] {
					t.Errorf("query %d: %s row %d = %q, %s = %q",
						qi, cfg.name, i, got[i], refName, reference[i])
					break
				}
			}
		}
	}
}

// canonical renders a result as a sorted row multiset (TOP queries keep
// their order since it is semantically significant).
func canonical(res *Result, ordered bool) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = r.String()
	}
	if !ordered {
		sort.Strings(out)
	}
	return out
}
