// Vectorized iterator protocol. Batch-capable operators implement
// NextBatch alongside Next; a generic row→batch adapter bridges the
// remaining operators (sorts, spools, loop and merge joins). Remote
// rowsets and the parallel exchange move batches whichever protocol their
// parent speaks: their Next reads rows out of the current batch. Each
// parent commits to one protocol — row or batch — for the lifetime of an
// Open/Close cycle, so the choice is safe to make per execution.

package exec

import (
	"io"

	"dhqp/internal/rowset"
)

// BatchIterator is a batch-capable operator cursor: NextBatch fills the
// caller's batch with up to its capacity in rows and returns io.EOF only
// on an empty fill.
type BatchIterator interface {
	Iterator
	NextBatch(b *rowset.Batch) error
}

// asBatchIterator returns it as a BatchIterator, wrapping row-only
// iterators in the generic row→batch adapter.
func asBatchIterator(it Iterator) BatchIterator {
	if bi, ok := it.(BatchIterator); ok {
		return bi
	}
	return &rowToBatch{it: it}
}

// rowToBatch adapts a row-only iterator into the batch protocol by pulling
// rows until the batch fills. It is the adapter boundary named in the
// design: everything below it (sort buffers, spools, loop joins) runs
// row-at-a-time unchanged.
type rowToBatch struct {
	it Iterator
}

func (a *rowToBatch) Open() error  { return a.it.Open() }
func (a *rowToBatch) Close() error { return a.it.Close() }

func (a *rowToBatch) Next() (rowset.Row, error) { return a.it.Next() }

func (a *rowToBatch) NextBatch(b *rowset.Batch) error {
	b.Reset(0)
	for !b.Full() {
		r, err := a.it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		b.AppendRow(r)
	}
	if b.NumRows() == 0 {
		return io.EOF
	}
	return nil
}
