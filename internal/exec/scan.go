package exec

import (
	"fmt"
	"io"
	"slices"

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
// rowset delivers. The bookmark column maps to the ordinal one past the
// table's last, which a local rowset fills with each row's bookmark. A nil
// result means the outputs are an identity prefix (or the source has no
// definition to map by) and plain truncation applies.
func scanProjection(src *algebra.Source, cols []algebra.OutCol) []int {
	if src.Def == nil {
		return nil
	}
	proj := make([]int, len(cols))
	identity := true
	for i, c := range cols {
		ord := src.Def.ColumnIndex(c.Name)
		if c.Name == algebra.Bookmark {
			ord, identity = len(src.Def.Columns), false
		}
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

// source is what every leaf that reads a provider shares — table scans,
// index ranges, remote queries and provider commands: the open rowset,
// local or remote, and the fill that narrows it to the plan's columns. The
// local and remote paths are identical by design (§2); they differ only in
// the session the rowset came from. An identity-prefix read truncates a
// full-width fill, a pruned one keeps only the projected vectors. The rows
// a local rowset fills are the rows the statement read.
type source struct {
	ctx    *Context
	width  int
	proj   []int         // non-nil when outputs are not an identity prefix
	rs     rowset.Rowset // a local provider rowset, or nil
	remote *retryRowset  // a remote one, or nil
}

func (s *source) NextBatch(b *rowset.Batch) error {
	var err error
	switch {
	case s.remote != nil:
		if err = s.remote.NextBatch(b); err == nil && s.proj != nil {
			b.Project(s.proj)
		}
	case s.rs != nil:
		if err = rowset.FillBatch(s.rs, b, s.proj); err == nil {
			s.ctx.Stats.RecordRowsRead(b.Len())
		}
	default:
		return io.EOF
	}
	if err != nil {
		return err
	}
	b.Truncate(s.width)
	return nil
}

func (s *source) Close() error {
	var err error
	if s.remote != nil {
		err = s.remote.Close()
	}
	if s.rs != nil {
		err = s.rs.Close()
	}
	s.rs, s.remote = nil, nil
	return err
}

// open (re)opens the source on src's server: a remote rowset
// fault-tolerantly, a local one directly.
func (s *source) open(src *algebra.Source, what string, open rowsetOpener) error {
	s.Close()
	if src.IsRemote() {
		rs, err := openRemoteRowset(s.ctx, src.Server, what, open)
		s.remote = rs
		return err
	}
	sess, err := s.ctx.RT.SessionFor(src.Server)
	if err != nil {
		return err
	}
	s.rs, err = open.openRowset(sess)
	return err
}

// scanIter reads a whole table through OpenRowset.
type scanIter struct {
	source
	src *algebra.Source
}

func newScan(ctx *Context, src *algebra.Source, cols []algebra.OutCol) *scanIter {
	return &scanIter{source: source{ctx: ctx, width: len(cols), proj: scanProjection(src, cols)}, src: src}
}

func (s *scanIter) openRowset(sess oledb.Session) (rowset.Rowset, error) {
	return sess.OpenRowset(objectName(s.src))
}

func (s *scanIter) Open() error {
	if err := s.open(s.src, "scan", s); err != nil {
		return fmt.Errorf("exec: scan %s: %w", s.src, err)
	}
	return nil
}

// indexRangeIter reads rows through OpenIndexRange. Bound expressions may
// reference parameters (the parameterized remote-range path); they are
// evaluated at each Open. The range stands for comparisons, which no NULL
// satisfies: a NULL bound matches nothing, and a range open below starts
// after the NULL keys, which sort first.
type indexRangeIter struct {
	source
	src    *algebra.Source
	index  string
	lo, hi algebra.RangeBound
	keys   [2]rowset.Row // lo's and hi's keys as this Open evaluated them
}

func newIndexRange(ctx *Context, src *algebra.Source, index string, lo, hi algebra.RangeBound, cols []algebra.OutCol) (Iterator, error) {
	blo, err := bindBound(lo)
	if err != nil {
		return nil, err
	}
	bhi, err := bindBound(hi)
	if err != nil {
		return nil, err
	}
	return &indexRangeIter{source: source{ctx: ctx, width: len(cols), proj: scanProjection(src, cols)},
		src: src, index: index, lo: blo, hi: bhi}, nil
}

func (s *indexRangeIter) Open() error {
	s.Close()
	lo, err := evalBound(s.ctx, s.lo)
	if err != nil {
		return err
	}
	hi, err := evalBound(s.ctx, s.hi)
	if err != nil {
		return err
	}
	if slices.ContainsFunc(lo.Key, sqltypes.Value.IsNull) || slices.ContainsFunc(hi.Key, sqltypes.Value.IsNull) {
		return nil
	}
	if lo.Key == nil && hi.Key != nil {
		lo.Key = rowset.Row{sqltypes.Null} // exclusive: lo.Inclusive is false
	}
	s.keys = [2]rowset.Row{lo.Key, hi.Key}
	if err := s.open(s.src, "index range", s); err != nil {
		return fmt.Errorf("exec: index range %s.%s: %w", s.src, s.index, err)
	}
	return nil
}

func (s *indexRangeIter) openRowset(sess oledb.Session) (rowset.Rowset, error) {
	return sess.OpenIndexRange(objectName(s.src), s.index,
		oledb.Bound{Key: s.keys[0], Inclusive: s.lo.Inclusive}, oledb.Bound{Key: s.keys[1], Inclusive: s.hi.Inclusive})
}

// bindBound binds a range bound's expressions against the empty layout:
// only consts and params are legal in access-path bounds.
func bindBound(b algebra.RangeBound) (algebra.RangeBound, error) {
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

func evalBound(ctx *Context, b algebra.RangeBound) (oledb.Bound, error) {
	if b.Vals == nil {
		return oledb.Bound{}, nil
	}
	key := make(rowset.Row, len(b.Vals))
	for i, v := range b.Vals {
		val, err := expr.EvalScalar(v, &ctx.Env)
		if err != nil {
			return oledb.Bound{}, err
		}
		key[i] = val
	}
	return oledb.Bound{Key: key, Inclusive: b.Inclusive}, nil
}

// remoteQueryIter executes decoded SQL on a linked server (§4.1.2 "build
// remote query"). The command carries exactly the parameters its text
// names: the statement parameters it references, at their current values
// (correlated ones bound by the enclosing loop join before each re-open),
// and the decoder's lifted constants.
type remoteQueryIter struct {
	source
	op *algebra.RemoteQuery
}

func (r *remoteQueryIter) Open() error {
	r.Close()
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
	rs, err := openRemoteRowset(r.ctx, r.op.Server, "remote query", command{r.op.SQL, params})
	if err != nil {
		return fmt.Errorf("exec: remote query on %s: %w", r.op.Server, err)
	}
	r.remote = rs
	return nil
}

// providerCommandIter runs a command in the provider's own language
// (full-text queries, OPENQUERY pass-through).
type providerCommandIter struct {
	source
	op *algebra.ProviderCommand
}

func (p *providerCommandIter) Open() error {
	p.Close()
	params := make(map[string]sqltypes.Value, len(p.ctx.Params))
	for name, v := range p.ctx.Params {
		params[name] = v
	}
	rs, err := openRemoteRowset(p.ctx, p.op.Src.Server, "provider command", command{p.op.Src.Query, params})
	if err != nil {
		return fmt.Errorf("exec: provider command on %s: %w", p.op.Src.Server, err)
	}
	p.remote = rs
	return nil
}

// command opens a rowset by executing text with params as a command.
type command struct {
	text   string
	params map[string]sqltypes.Value
}

func (c command) openRowset(sess oledb.Session) (rowset.Rowset, error) {
	cmd, err := sess.CreateCommand()
	if err != nil {
		return nil, err
	}
	cmd.SetText(c.text)
	for name, v := range c.params {
		cmd.SetParam(name, v)
	}
	return cmd.Execute()
}

// remoteFetchIter locates base rows from child bookmarks in batches
// (IRowsetLocate; §4.1.2 "remote fetch"). Each output row is its child row
// followed by the located base row's columns.
type remoteFetchIter struct {
	ctx    *Context
	op     *algebra.RemoteFetch
	feed   rowFeed // the child
	keyPos int
	cpos   []int // the child's column positions, in order

	fetched *rowset.Batch
	bms     []int64
	ids     []int32
	rows    rowset.Store // the batch: pending child rows, then their base rows
	pos     int          // the next row of rows to emit
}

func (r *remoteFetchIter) Open() error {
	if r.fetched == nil {
		r.fetched = r.ctx.newBatch()
	}
	r.rows.Reset(0)
	r.pos = 0
	return r.feed.open(r.ctx)
}

func (r *remoteFetchIter) NextBatch(b *rowset.Batch) error {
	if r.pos >= r.rows.Len() {
		if err := r.fetch(); err != nil {
			return err
		}
		if r.rows.Len() == 0 {
			return io.EOF
		}
	}
	r.pos += r.rows.Emit(b, r.pos)
	return nil
}

// fetch gathers the next batch of child rows — the batch size is the
// session's batched-remote-access knob, the same setting that sizes batched
// key-lookup joins — and locates their bookmarks in one unit.
func (r *remoteFetchIter) fetch() error {
	cw := len(r.cpos)
	r.rows.Reset(cw + len(r.op.Cols))
	r.pos = 0
	if err := r.feed.take(&r.rows, r.cpos, r.ctx.remoteBatch()); err != nil {
		return err
	}
	if r.rows.Len() == 0 {
		return nil
	}
	key := &r.rows.Cols()[r.keyPos]
	r.bms = r.bms[:0]
	for i := 0; i < r.rows.Len(); i++ {
		v := key.Value(i)
		bm, ok := v.AsInt()
		if !ok {
			return fmt.Errorf("exec: bookmark value %v is not numeric", v)
		}
		r.bms = append(r.bms, bm)
	}
	// The fetch and its drain retry as one unit: nothing from the batch is
	// delivered until the whole batch has crossed the link, so a transient
	// failure anywhere in it simply re-fetches the batch. The base rows
	// land beside their child rows.
	got := 0
	err := r.ctx.withRetry(r.op.Src.Server, func() error {
		sess, err := r.ctx.sessionFor(r.op.Src.Server)
		if err != nil {
			return err
		}
		rs, err := sess.FetchByBookmarks(objectName(r.op.Src), r.bms)
		if err != nil {
			return err
		}
		defer rs.Close()
		for got = 0; ; {
			if err := rs.NextBatch(r.fetched); err == io.EOF {
				return nil
			} else if err != nil {
				return err
			}
			r.ids = rowset.Int32s(r.ids, r.fetched.Indices())
			for j := range r.op.Cols {
				r.rows.Cols()[cw+j].Gather(got, r.fetched.Col(j), r.ids, false)
			}
			got += len(r.ids)
		}
	})
	if err != nil {
		return fmt.Errorf("exec: remote fetch %s: %w", r.op.Src, err)
	}
	if got != r.rows.Len() {
		return fmt.Errorf("exec: remote fetch returned %d rows for %d bookmarks", got, r.rows.Len())
	}
	return nil
}

func (r *remoteFetchIter) Close() error { return r.feed.child.Close() }
