package engine

import (
	"fmt"
	"sync"
	"testing"

	"dhqp/internal/netsim"
	"dhqp/internal/oledb"
	"dhqp/internal/providers/simplep"
)

// TestCatalogWritesDuringCompiles: CREATE VIEW and MakeTable binding write
// the server's view and ad-hoc session maps while other statements compile
// and read them (name resolution, cardinality estimates). Every read goes
// through the server's lock; an unlocked one is a -race failure here, and
// on a serving process a "concurrent map read and map write" crash.
func TestCatalogWritesDuringCompiles(t *testing.T) {
	s := NewServer("local", "db")
	s.MustExec(`CREATE TABLE t (k INT, v INT)`)
	s.RegisterProviderFactory("access", func(path string) (oledb.DataSource, *netsim.Link, error) {
		ds := simplep.New(nil)
		return ds, nil, ds.LoadCSV("Customers", "emailaddr,city\nann@corp.com,Seattle")
	})
	const rounds = 200
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	run := func(f func(i int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := f(i); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	// Writers of the view map and of the ad-hoc session map; each MakeTable
	// compile also estimates its source's cardinality, which reads the
	// session map while the other one writes it.
	run(func(i int) error {
		_, err := s.Exec(fmt.Sprintf(`CREATE VIEW v%d AS SELECT k FROM t`, i))
		return err
	})
	for w := 0; w < 2; w++ {
		run(func(i int) error {
			_, _, _, err := s.Plan(fmt.Sprintf(`SELECT c.city FROM MakeTable(Access, 'd:\w%d\f%d.mdb', Customers) c`, w, i))
			return err
		})
	}
	// A reader resolving names against the view map.
	run(func(i int) error {
		_, _, _, err := s.Plan(`SELECT k FROM t WHERE v > 1`)
		return err
	})
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if _, _, _, err := s.Plan(fmt.Sprintf(`SELECT k FROM v%d`, rounds-1)); err != nil {
		t.Fatalf("last view does not resolve: %v", err)
	}
}
