package engine

import (
	"fmt"
	"hash/fnv"
	"io"
	"testing"

	"dhqp/internal/rowset"
)

// heldImages holds, for every table in some servers' stores, the batches
// of one full scan at the latest version: windows onto the tables'
// columnar images. The windows keep pointing at the same memory after DML
// replaces an image, so re-hashing them tells whether anything wrote into
// an image a statement read.
type heldImages struct {
	names   []string
	batches [][]*rowset.Batch
	sums    []uint64
}

func holdImages(t *testing.T, servers ...*Server) *heldImages {
	t.Helper()
	h := &heldImages{}
	for _, s := range servers {
		for _, dbName := range s.Store().Databases() {
			db, _ := s.Store().Database(dbName)
			for _, name := range db.Tables() {
				tbl, _ := db.Table(name)
				rs := tbl.Scan()
				var held []*rowset.Batch
				for {
					b := rowset.NewBatch(rowset.MaxBatchSize)
					err := rs.NextBatch(b)
					if err == io.EOF {
						break
					}
					if err != nil {
						t.Fatal(err)
					}
					held = append(held, b)
				}
				rs.Close()
				h.names = append(h.names, s.Name()+"."+dbName+"."+name)
				h.batches = append(h.batches, held)
				h.sums = append(h.sums, batchesSum(held))
			}
		}
	}
	return h
}

// check fails the test for every table whose image changed since hold.
func (h *heldImages) check(t *testing.T) {
	t.Helper()
	for i, held := range h.batches {
		if batchesSum(held) != h.sums[i] {
			t.Errorf("%s: the columnar image changed under the statements that read it", h.names[i])
		}
	}
}

// batchesSum hashes every column of the batches: typed payloads, validity
// and boxed values.
func batchesSum(bs []*rowset.Batch) uint64 {
	h := fnv.New64a()
	for _, b := range bs {
		for j := 0; j < b.Width(); j++ {
			v := b.Col(j)
			fmt.Fprint(h, v.Kind(), v.Int64s(), v.Float64s(), v.Strings())
			for i := 0; i < b.NumRows(); i++ {
				fmt.Fprint(h, v.Valid(i), v.Value(i))
			}
		}
	}
	return h.Sum64()
}
