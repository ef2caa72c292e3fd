// The row-internal operators. Sort, spool, the loop and merge joins, the
// batched loop join, stream aggregation, remote fetch and the constant scan
// work a row at a time inside, behind one adapter in each direction: each
// reads its children through rowChild, a row cursor over the child's
// batches, and buildOp wraps it once in rowToBatch, so its parent sees a
// batch operator like any other.

package exec

import (
	"io"

	"dhqp/internal/algebra"
	"dhqp/internal/rowset"
)

// rowIterator is a row-internal operator's cursor: Next returns one row,
// io.EOF at the end.
type rowIterator interface {
	Open() error
	Next() (rowset.Row, error)
	Close() error
}

// rowToBatch presents a row-internal operator as a batch operator by
// pulling rows until the batch fills.
type rowToBatch struct {
	it rowIterator
}

func (a *rowToBatch) Open() error  { return a.it.Open() }
func (a *rowToBatch) Close() error { return a.it.Close() }

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

// rowChild is a row-internal operator's view of one child: the child's
// batches, handed out a row at a time. The rows are fresh, so the operator
// may keep them; Open restarts the child and drops whatever of its last
// batch was not handed out (a loop join re-opens its inner side per outer
// row).
type rowChild struct {
	Iterator
	rows rowset.BatchRows
}

// buildRows builds plan node n as a row child.
func buildRows(n *algebra.Node, ctx *Context) (*rowChild, error) {
	it, err := Build(n, ctx)
	if err != nil {
		return nil, err
	}
	return &rowChild{Iterator: it, rows: rowset.BatchRows{B: ctx.newBatch()}}, nil
}

func (c *rowChild) Open() error {
	c.rows.Reset()
	return c.Iterator.Open()
}

func (c *rowChild) Next() (rowset.Row, error) { return c.rows.Next(c.Iterator.NextBatch) }
