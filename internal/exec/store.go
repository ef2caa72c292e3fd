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

// rowStore is the executor's one row buffer, held column-wise: cols[j] is
// column j of every stored row, in arrival order and in the representation
// its producer delivered, and a row's id is its position. The hash join's
// build side, the spool, the loop joins' outer rows and matches, remote
// fetch's pending rows and the aggregate's groups all keep their rows here,
// so rows enter by one gather per column and leave by another.
type rowStore struct {
	cols []rowset.Vec
	n    int
	ids  []int32 // scratch: the ids of a batch's live rows, or of an emit's
}

// reset empties the store to width columns, keeping their buffers.
func (s *rowStore) reset(width int) {
	s.n = 0
	if cap(s.cols) < width {
		s.cols = make([]rowset.Vec, width)
	}
	s.cols = s.cols[:width]
}

// add appends rows idxs of cols: stored column j takes cols[pos[j]] for
// every j of pos, or cols[j] for every stored column when pos is nil.
func (s *rowStore) add(cols []rowset.Vec, pos []int, idxs []int32) {
	if pos == nil {
		for j := range s.cols {
			s.cols[j].Gather(s.n, &cols[j], idxs, false)
		}
	} else {
		for j, c := range pos {
			s.cols[j].Gather(s.n, &cols[c], idxs, false)
		}
	}
	s.n += len(idxs)
}

// addBatch appends every live row of b.
func (s *rowStore) addBatch(b *rowset.Batch) {
	s.ids = int32s(s.ids, b.Indices())
	s.add(b.Cols(), nil, s.ids)
}

// int32s returns idxs as int32s, in dst's buffer: the index form Gather
// takes.
func int32s(dst []int32, idxs []int) []int32 {
	dst = dst[:0]
	for _, i := range idxs {
		dst = append(dst, int32(i))
	}
	return dst
}

// emit copies the stored rows from id from on into b, as many as fit, and
// returns how many it copied. The copy leaves the store free to refill
// while b is still being read.
func (s *rowStore) emit(b *rowset.Batch, from int) int {
	k := min(b.CapRows(), s.n-from)
	s.ids = s.ids[:0]
	for id := from; id < from+k; id++ {
		s.ids = append(s.ids, int32(id))
	}
	b.Reset(len(s.cols))
	for j := range s.cols {
		b.Col(j).Gather(0, &s.cols[j], s.ids, false)
	}
	b.SetNumRows(k)
	return k
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
func (f *rowFeed) take(s *rowStore, pos []int, k int) error {
	for s.n < k && !f.done {
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
		live = live[:min(len(live), k-s.n)]
		f.ids = int32s(f.ids, live)
		s.add(f.in.Cols(), pos, f.ids)
		f.pos += len(live)
	}
	return nil
}
