package exec

import (
	"fmt"
	"io"

	"dhqp/internal/algebra"
	"dhqp/internal/expr"
	"dhqp/internal/oledb"
	"dhqp/internal/rowset"
	"dhqp/internal/sqltypes"
)

// objectName renders the name a provider session expects for a source.
func objectName(src *algebra.Source) string {
	if src.Kind == algebra.SourceMailTVF {
		return src.Path
	}
	if src.Catalog != "" {
		return src.Catalog + "." + src.Table
	}
	return src.Table
}

// scanProjection maps a scan's output columns to the source row's ordinals
// by name. Column pruning can narrow a scan to a non-prefix subset of the
// table's columns; the projection re-addresses the full-width rows the
// rowset delivers. A nil result means the outputs are an identity prefix
// (or the source has no definition to map by) and plain truncation applies.
func scanProjection(src *algebra.Source, cols []algebra.OutCol) []int {
	if src.Def == nil {
		return nil
	}
	proj := make([]int, len(cols))
	identity := true
	for i, c := range cols {
		ord := src.Def.ColumnIndex(c.Name)
		if ord < 0 {
			return nil
		}
		proj[i] = ord
		if ord != i {
			identity = false
		}
	}
	if identity {
		return nil
	}
	return proj
}

func projectRow(r rowset.Row, proj []int) rowset.Row {
	out := make(rowset.Row, len(proj))
	for i, ord := range proj {
		out[i] = r[ord]
	}
	return out
}

// scanIter reads a whole table through OpenRowset — the TableScan and
// RemoteScan code paths are identical by design (§2).
type scanIter struct {
	ctx   *Context
	src   *algebra.Source
	width int
	proj  []int // non-nil when outputs are not an identity prefix
	rs    rowset.Rowset
}

func newScan(ctx *Context, src *algebra.Source, cols []algebra.OutCol) *scanIter {
	return &scanIter{ctx: ctx, src: src, width: len(cols), proj: scanProjection(src, cols)}
}

func (s *scanIter) Open() error {
	if s.rs != nil {
		s.rs.Close()
		s.rs = nil
	}
	if s.src.IsRemote() {
		rs, err := openRemoteRowset(s.ctx, s.src.Server, "scan", true, func(sess oledb.Session) (rowset.Rowset, error) {
			return sess.OpenRowset(objectName(s.src))
		})
		if err != nil {
			return fmt.Errorf("exec: scan %s: %w", s.src, err)
		}
		s.rs = rs
		return nil
	}
	sess, err := s.ctx.RT.SessionFor(s.src.Server)
	if err != nil {
		return err
	}
	rs, err := sess.OpenRowset(objectName(s.src))
	if err != nil {
		return fmt.Errorf("exec: scan %s: %w", s.src, err)
	}
	s.rs = rs
	return nil
}

func (s *scanIter) Next() (rowset.Row, error) {
	if s.rs == nil {
		return nil, io.EOF
	}
	r, err := s.rs.Next()
	if err != nil {
		return nil, err
	}
	if s.proj != nil {
		return projectRow(r, s.proj), nil
	}
	if s.width > 0 && len(r) > s.width {
		r = r[:s.width]
	}
	return r, nil
}

// NextBatch fills a column batch straight from the underlying rowset,
// narrowed to the plan's scan columns: an identity-prefix scan truncates a
// full-width fill, a pruned one hands its projection to the rowset. The
// storage engine's scans fill either shape from the columnar image without
// per-row calls, and a remote rowset delivers one fetch per batch.
func (s *scanIter) NextBatch(b *rowset.Batch) error {
	if s.rs == nil {
		return io.EOF
	}
	if err := rowset.FillBatch(s.rs, b, s.proj); err != nil {
		return err
	}
	b.Truncate(s.width)
	return nil
}

func (s *scanIter) Close() error {
	if s.rs != nil {
		err := s.rs.Close()
		s.rs = nil
		return err
	}
	return nil
}

// indexRangeIter reads rows through OpenIndexRange. Bound expressions may
// reference parameters (the parameterized remote-range path).
type indexRangeIter struct {
	ctx    *Context
	src    *algebra.Source
	index  string
	lo, hi algebra.RangeBound
	width  int
	proj   []int // non-nil when outputs are not an identity prefix
	rs     rowset.Rowset
}

func newIndexRange(ctx *Context, src *algebra.Source, index string, lo, hi algebra.RangeBound, cols []algebra.OutCol) (Iterator, error) {
	// Bind bound expressions against the empty layout: only consts and
	// params are legal in access-path bounds.
	bind := func(b algebra.RangeBound) (algebra.RangeBound, error) {
		if b.Vals == nil {
			return b, nil
		}
		out := algebra.RangeBound{Vals: make([]expr.Expr, len(b.Vals)), Inclusive: b.Inclusive}
		for i, v := range b.Vals {
			bv, err := expr.Bind(v, map[expr.ColumnID]int{})
			if err != nil {
				return b, err
			}
			out.Vals[i] = bv
		}
		return out, nil
	}
	blo, err := bind(lo)
	if err != nil {
		return nil, err
	}
	bhi, err := bind(hi)
	if err != nil {
		return nil, err
	}
	return &indexRangeIter{ctx: ctx, src: src, index: index, lo: blo, hi: bhi,
		width: len(cols), proj: scanProjection(src, cols)}, nil
}

func (s *indexRangeIter) Open() error {
	if s.rs != nil {
		s.rs.Close()
		s.rs = nil
	}
	lo, err := s.evalBound(s.lo)
	if err != nil {
		return err
	}
	hi, err := s.evalBound(s.hi)
	if err != nil {
		return err
	}
	if s.src.IsRemote() {
		rs, err := openRemoteRowset(s.ctx, s.src.Server, "index range", true, func(sess oledb.Session) (rowset.Rowset, error) {
			return sess.OpenIndexRange(objectName(s.src), s.index, lo, hi)
		})
		if err != nil {
			return fmt.Errorf("exec: index range %s.%s: %w", s.src, s.index, err)
		}
		s.rs = rs
		return nil
	}
	sess, err := s.ctx.RT.SessionFor(s.src.Server)
	if err != nil {
		return err
	}
	rs, err := sess.OpenIndexRange(objectName(s.src), s.index, lo, hi)
	if err != nil {
		return fmt.Errorf("exec: index range %s.%s: %w", s.src, s.index, err)
	}
	s.rs = rs
	return nil
}

func (s *indexRangeIter) evalBound(b algebra.RangeBound) (oledb.Bound, error) {
	if b.Vals == nil {
		return oledb.Bound{}, nil
	}
	key := make(rowset.Row, len(b.Vals))
	env := s.ctx.env(nil)
	for i, v := range b.Vals {
		val, err := v.Eval(env)
		if err != nil {
			return oledb.Bound{}, err
		}
		key[i] = val
	}
	return oledb.Bound{Key: key, Inclusive: b.Inclusive}, nil
}

func (s *indexRangeIter) Next() (rowset.Row, error) {
	if s.rs == nil {
		return nil, io.EOF
	}
	r, err := s.rs.Next()
	if err != nil {
		return nil, err
	}
	if s.proj != nil {
		return projectRow(r, s.proj), nil
	}
	if s.width > 0 && len(r) > s.width {
		r = r[:s.width]
	}
	return r, nil
}

// NextBatch mirrors scanIter's batch path for index-range access.
func (s *indexRangeIter) NextBatch(b *rowset.Batch) error {
	if s.rs == nil {
		return io.EOF
	}
	if err := rowset.FillBatch(s.rs, b, s.proj); err != nil {
		return err
	}
	b.Truncate(s.width)
	return nil
}

func (s *indexRangeIter) Close() error {
	if s.rs != nil {
		err := s.rs.Close()
		s.rs = nil
		return err
	}
	return nil
}

// remoteQueryIter executes decoded SQL on a linked server (§4.1.2 "build
// remote query"). The command carries exactly the parameters its text
// names: the statement parameters it references, at their current values
// (correlated ones bound by the enclosing loop join before each re-open),
// and the decoder's lifted constants.
type remoteQueryIter struct {
	ctx *Context
	op  *algebra.RemoteQuery
	rs  *remoteRowset
}

func (r *remoteQueryIter) Open() error {
	if r.rs != nil {
		r.rs.Close()
		r.rs = nil
	}
	// Snapshot the parameter values once: a retry re-executes the same
	// statement even if a concurrent sibling rebinds shared parameters. A
	// name missing from the context stays unset, and the target reports it.
	params := make(map[string]sqltypes.Value, len(r.op.Params)+len(r.op.Binds))
	for _, name := range r.op.Params {
		if v, ok := r.ctx.Params[name]; ok {
			params[name] = v
		}
	}
	for _, b := range r.op.Binds {
		params[b.Name] = b.Val
	}
	rs, err := openRemoteRowset(r.ctx, r.op.Server, "remote query", true, func(sess oledb.Session) (rowset.Rowset, error) {
		cmd, err := sess.CreateCommand()
		if err != nil {
			return nil, err
		}
		cmd.SetText(r.op.SQL)
		for name, v := range params {
			cmd.SetParam(name, v)
		}
		return cmd.Execute()
	})
	if err != nil {
		return fmt.Errorf("exec: remote query on %s: %w", r.op.Server, err)
	}
	r.rs = rs
	return nil
}

func (r *remoteQueryIter) Next() (rowset.Row, error) {
	if r.rs == nil {
		return nil, io.EOF
	}
	return r.rs.Next()
}

func (r *remoteQueryIter) NextBatch(b *rowset.Batch) error {
	if r.rs == nil {
		return io.EOF
	}
	return r.rs.NextBatch(b)
}

func (r *remoteQueryIter) Close() error {
	if r.rs != nil {
		err := r.rs.Close()
		r.rs = nil
		return err
	}
	return nil
}

// providerCommandIter runs a command in the provider's own language
// (full-text queries, OPENQUERY pass-through).
type providerCommandIter struct {
	ctx *Context
	op  *algebra.ProviderCommand
	rs  *remoteRowset
}

func (p *providerCommandIter) Open() error {
	if p.rs != nil {
		p.rs.Close()
		p.rs = nil
	}
	params := make(map[string]sqltypes.Value, len(p.ctx.Params))
	for name, v := range p.ctx.Params {
		params[name] = v
	}
	rs, err := openRemoteRowset(p.ctx, p.op.Src.Server, "provider command", p.op.Src.IsRemote(), func(sess oledb.Session) (rowset.Rowset, error) {
		cmd, err := sess.CreateCommand()
		if err != nil {
			return nil, err
		}
		cmd.SetText(p.op.Src.Query)
		for name, v := range params {
			cmd.SetParam(name, v)
		}
		return cmd.Execute()
	})
	if err != nil {
		return fmt.Errorf("exec: provider command on %s: %w", p.op.Src.Server, err)
	}
	p.rs = rs
	return nil
}

func (p *providerCommandIter) Next() (rowset.Row, error) {
	if p.rs == nil {
		return nil, io.EOF
	}
	return p.rs.Next()
}

func (p *providerCommandIter) NextBatch(b *rowset.Batch) error {
	if p.rs == nil {
		return io.EOF
	}
	return p.rs.NextBatch(b)
}

func (p *providerCommandIter) Close() error {
	if p.rs != nil {
		err := p.rs.Close()
		p.rs = nil
		return err
	}
	return nil
}

// remoteFetchIter locates base rows from child bookmarks in batches
// (IRowsetLocate; §4.1.2 "remote fetch").
type remoteFetchIter struct {
	ctx    *Context
	op     *algebra.RemoteFetch
	child  Iterator
	keyPos int

	buf     []rowset.Row
	bufPos  int
	pending []rowset.Row // child rows awaiting fetch
	done    bool
}

func (r *remoteFetchIter) Open() error {
	r.buf, r.pending, r.bufPos, r.done = nil, nil, 0, false
	return r.child.Open()
}

func (r *remoteFetchIter) Next() (rowset.Row, error) {
	for {
		if r.bufPos < len(r.buf) {
			row := r.buf[r.bufPos]
			r.bufPos++
			return row, nil
		}
		if r.done {
			return nil, io.EOF
		}
		// Refill: gather a batch of child rows and fetch their bookmarks.
		// The batch size is the session's batched-remote-access knob — the
		// same setting that sizes batched key-lookup joins.
		fetchBatch := r.ctx.remoteBatch()
		r.pending = r.pending[:0]
		for len(r.pending) < fetchBatch {
			row, err := r.child.Next()
			if err == io.EOF {
				r.done = true
				break
			}
			if err != nil {
				return nil, err
			}
			r.pending = append(r.pending, row.Clone())
		}
		if len(r.pending) == 0 {
			return nil, io.EOF
		}
		bms := make([]int64, len(r.pending))
		for i, row := range r.pending {
			v := row[r.keyPos]
			bm, ok := v.AsInt()
			if !ok {
				return nil, fmt.Errorf("exec: bookmark value %v is not numeric", v)
			}
			bms[i] = bm
		}
		// The fetch + drain retries as one unit: nothing from the batch is
		// delivered until the whole batch has crossed the link, so a
		// transient failure anywhere in it simply re-fetches the batch.
		var fetched *rowset.Materialized
		err := r.ctx.withRetry(r.op.Src.Server, func() error {
			sess, err := r.ctx.sessionFor(r.op.Src.Server)
			if err != nil {
				return err
			}
			rs, err := sess.FetchByBookmarks(objectName(r.op.Src), bms)
			if err != nil {
				return err
			}
			fetched, err = rowset.ReadAll(rs)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("exec: remote fetch %s: %w", r.op.Src, err)
		}
		if fetched.Len() != len(r.pending) {
			return nil, fmt.Errorf("exec: remote fetch returned %d rows for %d bookmarks", fetched.Len(), len(r.pending))
		}
		r.buf = r.buf[:0]
		for i, base := range fetched.Rows() {
			combined := make(rowset.Row, 0, len(r.pending[i])+len(r.op.Cols))
			combined = append(combined, r.pending[i]...)
			combined = append(combined, base[:len(r.op.Cols)]...)
			r.buf = append(r.buf, combined)
		}
		r.bufPos = 0
	}
}

func (r *remoteFetchIter) Close() error { return r.child.Close() }
