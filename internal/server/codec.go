// Binary layouts of the four statement frames. Every payload starts with a
// one-byte type tag (never '{', so a JSON control frame is told apart by its
// first byte) and the query ID as a zigzag varint; integers are varints,
// strings a uvarint length and their bytes:
//
//	query  'Q' qid sql trace_id span_id(uvarint) n (name kind value)…   names ascending
//	cols   'C' qid n (name kind)…
//	rows   'R' qid rows cols column…                                      column by column
//	done   'D' qid row_count elapsed_us retries n skipped… n span…
//
// A rows-frame column is a kind tag, then — only if the column holds a NULL
// — a validity bitmap (bit i of byte i/8 set = row i non-NULL, padding bits
// zero), then the values of its non-NULL rows: a zigzag varint per INT or
// DATE, one byte 0/1 per BOOL, 8 little-endian IEEE bytes per FLOAT, and
// for VARCHAR every length first, then all the bytes, so the decoder makes
// one string per column per frame and slices values out of it. An all-NULL
// column is kind NULL with its (all-zero) bitmap. A column whose non-NULL
// values are of more than one kind — the generic boxed vectors allow it —
// is tagged mixed, and every value carries its own kind tag.
//
// The encoding is canonical: the decoder rejects anything the encoder would
// not have produced (non-minimal varints, a bitmap without a NULL, a mixed
// column of one kind, unsorted parameters, trailing bytes), so every frame
// it accepts re-encodes to identical bytes. Every count is checked against
// the bytes left before anything is allocated for it, and a rows frame's
// rows × columns against maxFrameValues.
package server

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"dhqp/internal/rowset"
	"dhqp/internal/sqltypes"
)

// Statement frame type tags (first payload byte).
const (
	tagQuery byte = 'Q'
	tagCols  byte = 'C'
	tagRows  byte = 'R'
	tagDone  byte = 'D'
)

// Rows-frame column tags: a sqltypes.Kind, with colBitmap set when a
// validity bitmap follows, or colMixed.
const (
	colBitmap byte = 0x80
	colMixed  byte = 0x7f
)

// maxFrameValues bounds rows × columns in one rows frame; the session
// splits a root batch past it. A NULL costs one bitmap bit on the wire but a
// 40-byte value and a share of a 24-byte row header decoded, so without an
// absolute bound a 16 MiB frame of NULLs would decode into gigabytes; with
// it, one frame decodes into at most about 4 MiB. A default 1 024-row batch
// is one frame up to 64 columns wide.
const maxFrameValues = 1 << 16

// --- encoding ------------------------------------------------------------

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// appendInt appends one int-family payload: a byte 0/1 for BOOL, a zigzag
// varint for INT and DATE.
func appendInt(dst []byte, kind sqltypes.Kind, x int64) []byte {
	if kind == sqltypes.KindBool {
		if x != 0 {
			return append(dst, 1)
		}
		return append(dst, 0)
	}
	return binary.AppendVarint(dst, x)
}

func appendFloat(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

// appendValue appends a self-describing value: its kind tag, then its
// payload (parameters and mixed-kind columns).
func appendValue(dst []byte, v sqltypes.Value) []byte {
	k := v.Kind()
	dst = append(dst, byte(k))
	switch k {
	case sqltypes.KindBool, sqltypes.KindInt, sqltypes.KindDate:
		return appendInt(dst, k, v.RawInt())
	case sqltypes.KindFloat:
		return appendFloat(dst, v.RawFloat())
	case sqltypes.KindString:
		return appendString(dst, v.RawStr())
	}
	return dst
}

func appendQuery(dst []byte, f *Frame) []byte {
	dst = append(dst, tagQuery)
	dst = binary.AppendVarint(dst, f.QueryID)
	dst = appendString(dst, f.SQL)
	dst = appendString(dst, f.TraceID)
	dst = binary.AppendUvarint(dst, f.SpanID)
	names := make([]string, 0, len(f.Params))
	for name := range f.Params {
		names = append(names, name)
	}
	sort.Strings(names)
	dst = binary.AppendUvarint(dst, uint64(len(names)))
	for _, name := range names {
		dst = appendString(dst, name)
		dst = appendValue(dst, f.Params[name])
	}
	return dst
}

func appendCols(dst []byte, qid int64, cols []WireCol) []byte {
	dst = append(dst, tagCols)
	dst = binary.AppendVarint(dst, qid)
	dst = binary.AppendUvarint(dst, uint64(len(cols)))
	for _, c := range cols {
		dst = appendString(dst, c.Name)
		dst = append(dst, c.Kind)
	}
	return dst
}

func appendDone(dst []byte, f *Frame) []byte {
	dst = append(dst, tagDone)
	dst = binary.AppendVarint(dst, f.QueryID)
	dst = binary.AppendVarint(dst, f.RowCount)
	dst = binary.AppendVarint(dst, f.ElapsedUS)
	dst = binary.AppendVarint(dst, f.Retries)
	dst = binary.AppendUvarint(dst, uint64(len(f.Skipped)))
	for _, s := range f.Skipped {
		dst = appendString(dst, s)
	}
	dst = binary.AppendUvarint(dst, uint64(len(f.Spans)))
	for _, sp := range f.Spans {
		dst = binary.AppendUvarint(dst, sp.ID)
		dst = binary.AppendUvarint(dst, sp.Parent)
		dst = appendString(dst, sp.Server)
		dst = appendString(dst, sp.Name)
		dst = appendString(dst, sp.Detail)
		dst = binary.AppendVarint(dst, sp.StartUS)
		dst = binary.AppendVarint(dst, sp.ElapsedUS)
	}
	return dst
}

// appendRows appends a rows frame holding the rows idxs of cols — a root
// batch's column vectors and live rows, typed or generic.
func appendRows(dst []byte, qid int64, cols []rowset.Vec, idxs []int) []byte {
	dst = append(dst, tagRows)
	dst = binary.AppendVarint(dst, qid)
	dst = binary.AppendUvarint(dst, uint64(len(idxs)))
	if len(idxs) == 0 {
		return binary.AppendUvarint(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(len(cols)))
	for j := range cols {
		dst = appendColumn(dst, &cols[j], idxs)
	}
	return dst
}

// columnShape reports the one kind the non-NULL values at idxs share
// (KindNull when all are NULL), how many are NULL, and whether their kinds
// are mixed.
func columnShape(v *rowset.Vec, idxs []int) (kind sqltypes.Kind, nulls int, mixed bool) {
	if v.IsTyped() {
		if v.HasNulls() {
			for _, i := range idxs {
				if !v.Valid(i) {
					nulls++
				}
			}
		}
		if nulls == len(idxs) {
			return sqltypes.KindNull, nulls, false
		}
		return v.Kind(), nulls, false
	}
	g := v.Gen()
	for _, i := range idxs {
		switch k := g[i].Kind(); {
		case k == sqltypes.KindNull:
			nulls++
		case kind == sqltypes.KindNull:
			kind = k
		case k != kind:
			mixed = true
		}
	}
	return kind, nulls, mixed
}

// appendColumn appends one rows-frame column over the rows idxs of v.
func appendColumn(dst []byte, v *rowset.Vec, idxs []int) []byte {
	kind, nulls, mixed := columnShape(v, idxs)
	if mixed {
		dst = append(dst, colMixed)
		for _, i := range idxs {
			dst = appendValue(dst, v.Value(i))
		}
		return dst
	}
	if nulls == 0 {
		dst = append(dst, byte(kind))
	} else {
		dst = append(dst, byte(kind)|colBitmap)
		at, nb := len(dst), (len(idxs)+7)/8
		dst = slices.Grow(dst, nb)[:at+nb]
		clear(dst[at:])
		for k, i := range idxs {
			if v.Valid(i) {
				dst[at+k>>3] |= 1 << (k & 7)
			}
		}
	}
	typed := v.IsTyped()
	g := v.Gen()
	valid := func(i int) bool { return nulls == 0 || v.Valid(i) }
	switch kind {
	case sqltypes.KindBool, sqltypes.KindInt, sqltypes.KindDate:
		xs := v.Int64s()
		for _, i := range idxs {
			if !valid(i) {
				continue
			}
			if typed {
				dst = appendInt(dst, kind, xs[i])
			} else {
				dst = appendInt(dst, kind, g[i].RawInt())
			}
		}
	case sqltypes.KindFloat:
		fs := v.Float64s()
		for _, i := range idxs {
			if !valid(i) {
				continue
			}
			if typed {
				dst = appendFloat(dst, fs[i])
			} else {
				dst = appendFloat(dst, g[i].RawFloat())
			}
		}
	case sqltypes.KindString:
		ss := v.Strings()
		str := func(i int) string {
			if typed {
				return ss[i]
			}
			return g[i].RawStr()
		}
		for _, i := range idxs {
			if valid(i) {
				dst = binary.AppendUvarint(dst, uint64(len(str(i))))
			}
		}
		for _, i := range idxs {
			if valid(i) {
				dst = append(dst, str(i)...)
			}
		}
	}
	return dst
}

// --- decoding ------------------------------------------------------------

// decoder reads a binary payload. Its first error sticks: every later read
// returns zero values, so a decode body checks d.err once at the end.
type decoder struct {
	p   []byte
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("server: malformed frame: "+format, args...)
	}
	d.p = nil
}

func (d *decoder) u8() byte {
	if len(d.p) == 0 {
		d.fail("truncated")
		return 0
	}
	b := d.p[0]
	d.p = d.p[1:]
	return b
}

func (d *decoder) uvarint() uint64 {
	x, n := binary.Uvarint(d.p)
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	if n > 1 && d.p[n-1] == 0 {
		d.fail("non-minimal varint")
		return 0
	}
	d.p = d.p[n:]
	return x
}

func (d *decoder) varint() int64 {
	x := d.uvarint()
	v := int64(x >> 1)
	if x&1 != 0 {
		v = ^v
	}
	return v
}

// count reads an element count and checks it against the bytes left, each
// element taking at least min bytes.
func (d *decoder) count(min int) int {
	n := d.uvarint()
	if n > uint64(len(d.p)/min) {
		d.fail("count %d exceeds the %d bytes left", n, len(d.p))
		return 0
	}
	return int(n)
}

func (d *decoder) bytes(n int) []byte {
	if n < 0 || n > len(d.p) {
		d.fail("truncated")
		return nil
	}
	b := d.p[:n]
	d.p = d.p[n:]
	return b
}

func (d *decoder) str() string {
	return string(d.bytes(d.count(1)))
}

func (d *decoder) kind() sqltypes.Kind {
	k := sqltypes.Kind(d.u8())
	if k > sqltypes.KindDate {
		d.fail("unknown kind %d", k)
	}
	return k
}

// intValue reads one int-family payload of the given kind.
func (d *decoder) intValue(kind sqltypes.Kind) sqltypes.Value {
	switch kind {
	case sqltypes.KindBool:
		b := d.u8()
		if b > 1 {
			d.fail("BOOL byte %d", b)
		}
		return sqltypes.NewBool(b == 1)
	case sqltypes.KindDate:
		return sqltypes.NewDateDays(d.varint())
	}
	return sqltypes.NewInt(d.varint())
}

func (d *decoder) floatValue() sqltypes.Value {
	b := d.bytes(8)
	if b == nil {
		return sqltypes.Null
	}
	return sqltypes.NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(b)))
}

// value reads a self-describing value (kind tag, then payload).
func (d *decoder) value() sqltypes.Value {
	switch k := d.kind(); k {
	case sqltypes.KindBool, sqltypes.KindInt, sqltypes.KindDate:
		return d.intValue(k)
	case sqltypes.KindFloat:
		return d.floatValue()
	case sqltypes.KindString:
		return sqltypes.NewString(d.str())
	}
	return sqltypes.Null
}

// decodeBinary decodes a statement frame; rows of a rows frame append to
// dst.
func decodeBinary(p []byte, dst []rowset.Row) (*Frame, []rowset.Row, error) {
	d := &decoder{p: p[1:]}
	f := &Frame{QueryID: d.varint()}
	switch p[0] {
	case tagQuery:
		f.Type = FrameQuery
		f.SQL = d.str()
		f.TraceID = d.str()
		f.SpanID = d.uvarint()
		if n := d.count(2); n > 0 {
			f.Params = make(map[string]sqltypes.Value, n)
			prev := ""
			for i := 0; i < n && d.err == nil; i++ {
				name := d.str()
				if i > 0 && name <= prev {
					d.fail("parameter %q out of order", name)
				}
				f.Params[name], prev = d.value(), name
			}
		}
	case tagCols:
		f.Type = FrameCols
		if n := d.count(2); n > 0 {
			f.Cols = make([]WireCol, n)
			for i := range f.Cols {
				f.Cols[i] = WireCol{Name: d.str(), Kind: uint8(d.kind())}
			}
		}
	case tagRows:
		f.Type = FrameRows
		dst = d.rows(dst)
	case tagDone:
		f.Type = FrameDone
		f.RowCount = d.varint()
		f.ElapsedUS = d.varint()
		f.Retries = d.varint()
		if n := d.count(1); n > 0 {
			f.Skipped = make([]string, n)
			for i := range f.Skipped {
				f.Skipped[i] = d.str()
			}
		}
		if n := d.count(7); n > 0 {
			f.Spans = make([]WireSpan, n)
			for i := range f.Spans {
				f.Spans[i] = WireSpan{ID: d.uvarint(), Parent: d.uvarint(), Server: d.str(), Name: d.str(),
					Detail: d.str(), StartUS: d.varint(), ElapsedUS: d.varint()}
			}
		}
	default:
		d.fail("unknown frame tag %#x", p[0])
	}
	if d.err == nil && len(d.p) > 0 {
		d.fail("%d trailing bytes", len(d.p))
	}
	if d.err != nil {
		return nil, dst, d.err
	}
	return f, dst, nil
}

// rows decodes a rows-frame body into rows over one backing value array,
// appended to dst.
func (d *decoder) rows(dst []rowset.Row) []rowset.Row {
	n64, w64 := d.uvarint(), d.uvarint()
	if d.err != nil {
		return dst
	}
	if (n64 == 0) != (w64 == 0) {
		d.fail("%d rows of %d columns", n64, w64)
		return dst
	}
	// Each column takes at least its tag and one bit per row (a bitmap, or
	// a byte per value), which bounds rows × columns by 8 × the bytes left;
	// maxFrameValues bounds them absolutely.
	left := uint64(len(d.p))
	if n64 > 8*left || w64 > left || w64*(1+(n64+7)/8) > left || n64*w64 > maxFrameValues {
		d.fail("%d rows of %d columns exceed the %d bytes left or the %d-value frame bound", n64, w64, left, maxFrameValues)
		return dst
	}
	n, w := int(n64), int(w64)
	if n == 0 {
		return dst
	}
	vals := make([]sqltypes.Value, n*w)
	for j := 0; j < w && d.err == nil; j++ {
		d.column(vals[j:], w, n)
	}
	if d.err != nil {
		return dst
	}
	dst = slices.Grow(dst, n)
	for i := 0; i < n; i++ {
		base := i * w
		dst = append(dst, rowset.Row(vals[base:base+w:base+w]))
	}
	return dst
}

// column decodes one rows-frame column into vals[0], vals[stride], ….
func (d *decoder) column(vals []sqltypes.Value, stride, n int) {
	tag := d.u8()
	if tag == colMixed {
		d.mixed(vals, stride, n)
		return
	}
	kind := sqltypes.Kind(tag &^ colBitmap)
	if kind > sqltypes.KindDate {
		d.fail("unknown column tag %#x", tag)
		return
	}
	var bitmap []byte
	present := n
	if tag&colBitmap != 0 {
		bitmap = d.bytes((n + 7) / 8)
		if bitmap == nil {
			return
		}
		present = 0
		for _, b := range bitmap {
			present += bits.OnesCount8(b)
		}
		if last := bitmap[len(bitmap)-1]; n%8 != 0 && last>>(n%8) != 0 {
			d.fail("bitmap padding bits set")
			return
		}
		if kind == sqltypes.KindNull && present != 0 || kind != sqltypes.KindNull && (present == 0 || present == n) {
			d.fail("%s column bitmap marks %d of %d rows present", kind, present, n)
			return
		}
	} else if kind == sqltypes.KindNull {
		d.fail("NULL column without a bitmap")
		return
	}
	valid := func(i int) bool { return bitmap == nil || bitmap[i>>3]&(1<<(i&7)) != 0 }
	switch kind {
	case sqltypes.KindBool, sqltypes.KindInt, sqltypes.KindDate:
		for i := 0; i < n && d.err == nil; i++ {
			if valid(i) {
				vals[i*stride] = d.intValue(kind)
			}
		}
	case sqltypes.KindFloat:
		if 8*present > len(d.p) {
			d.fail("truncated")
			return
		}
		for i := 0; i < n; i++ {
			if valid(i) {
				vals[i*stride] = d.floatValue()
			}
		}
	case sqltypes.KindString:
		// Lengths first, then one string for the column's bytes.
		lens := *d
		total := 0
		for k := 0; k < present && d.err == nil; k++ {
			l := d.uvarint()
			if l > uint64(len(d.p)) || total+int(l) > len(d.p) {
				d.fail("strings exceed the %d bytes left", len(d.p))
				return
			}
			total += int(l)
		}
		blob := string(d.bytes(total))
		if d.err != nil {
			return
		}
		off := 0
		for i := 0; i < n; i++ {
			if valid(i) {
				l := int(lens.uvarint())
				vals[i*stride] = sqltypes.NewString(blob[off : off+l])
				off += l
			}
		}
	}
}

// mixed decodes a mixed-kind column: a self-describing value per row, of at
// least two distinct non-NULL kinds (one kind would have been typed).
func (d *decoder) mixed(vals []sqltypes.Value, stride, n int) {
	if n > len(d.p) {
		d.fail("truncated")
		return
	}
	var kinds uint
	for i := 0; i < n && d.err == nil; i++ {
		v := d.value()
		vals[i*stride] = v
		if v.Kind() != sqltypes.KindNull {
			kinds |= 1 << v.Kind()
		}
	}
	if d.err == nil && bits.OnesCount(kinds) < 2 {
		d.fail("mixed column of fewer than two kinds")
	}
}
