package exec

import (
	"io"

	"dhqp/internal/rowset"
)

// drain opens child and calls add after each batch it fills into b, then
// closes the child — on failure too, so a blocking operator (the
// aggregate, the spool) never leaves its input open.
func drain(child Iterator, b *rowset.Batch, add func() error) error {
	err := child.Open()
	for err == nil {
		if err = child.NextBatch(b); err == nil {
			err = add()
		}
	}
	if err == io.EOF {
		return child.Close()
	}
	child.Close()
	return err
}

// rowFeed hands a streaming child's live rows to a store a run at a time:
// the loop joins' outer rows and remote fetch's child rows.
type rowFeed struct {
	child Iterator
	in    *rowset.Batch // the child's current batch
	pos   int           // its next live row
	done  bool          // the child is exhausted
	ids   []int32
}

// open (re)opens the child, dropping what is left of its last batch.
func (f *rowFeed) open(ctx *Context) error {
	if f.in == nil {
		f.in = ctx.newBatch()
	}
	f.in.Reset(0)
	f.pos, f.done = 0, false
	return f.child.Open()
}

// take appends the child's next live rows to s until s holds k rows or the
// child is exhausted, store column j taking child column pos[j] (every
// column when pos is nil).
func (f *rowFeed) take(s *rowset.Store, pos []int, k int) error {
	for s.Len() < k && !f.done {
		if f.pos >= f.in.Len() {
			err := f.child.NextBatch(f.in)
			if err == io.EOF {
				f.done = true
				break
			}
			if err != nil {
				return err
			}
			f.pos = 0
		}
		live := f.in.Indices()[f.pos:]
		live = live[:min(len(live), k-s.Len())]
		f.ids = rowset.Int32s(f.ids, live)
		s.Add(f.in.Cols(), pos, f.ids)
		f.pos += len(live)
	}
	return nil
}
