package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"dhqp/internal/rowset"
	"dhqp/internal/schema"
	"dhqp/internal/sqltypes"
)

// TestFrameLayouts pins which frames are binary and which are JSON: the
// four statement frames have one binary layout each, the six control frames
// start with '{', and a statement frame sent as JSON is refused.
func TestFrameLayouts(t *testing.T) {
	binaryFrames := []*Frame{
		{Type: FrameQuery, QueryID: 1, SQL: "SELECT 1", Params: map[string]sqltypes.Value{"a": sqltypes.NewInt(1)}},
		{Type: FrameCols, QueryID: 1, Cols: []WireCol{{Name: "a", Kind: uint8(sqltypes.KindInt)}}},
		{Type: FrameRows, QueryID: 1, Rows: [][]WireValue{{{K: "i", I: 1}}}},
		{Type: FrameDone, QueryID: 1, RowCount: 1, Spans: []WireSpan{{ID: 1, Name: "statement"}}},
	}
	controlFrames := []*Frame{
		{Type: FrameHello}, {Type: FrameWelcome, SessionID: 3, Server: "s"}, {Type: FrameInfo, Info: &ServerInfo{}},
		{Type: FrameBye}, {Type: FrameCancel}, {Type: FrameError, Code: CodeQuery, Msg: "m"},
	}
	for _, f := range binaryFrames {
		p, err := appendFrame(nil, f)
		if err != nil {
			t.Fatal(err)
		}
		if p[0] == '{' || !strings.Contains("QCRD", string(p[0])) {
			t.Errorf("%s payload starts with %q, want its binary tag", f.Type, p[0])
		}
		if _, _, err := decodeFrame([]byte(fmt.Sprintf(`{"type":%q}`, f.Type)), nil); err == nil {
			t.Errorf("a JSON %s frame was accepted", f.Type)
		}
	}
	for _, f := range controlFrames {
		p, err := appendFrame(nil, f)
		if err != nil {
			t.Fatal(err)
		}
		if p[0] != '{' {
			t.Errorf("%s payload starts with %q, want JSON", f.Type, p[0])
		}
		got, _, err := decodeFrame(p, nil)
		if err != nil || got.Type != f.Type {
			t.Errorf("%s round trip: %+v, %v", f.Type, got, err)
		}
	}
}

// TestStatementFrameRoundTrip pushes query and done frames, with every
// field set, through the binary layouts.
func TestStatementFrameRoundTrip(t *testing.T) {
	for _, in := range []*Frame{
		{Type: FrameQuery, QueryID: -5, SQL: "SELECT x FROM t WHERE x = @b", TraceID: "tr", SpanID: 9,
			Params: map[string]sqltypes.Value{"b": sqltypes.NewString("ü"), "a": sqltypes.Null, "c": sqltypes.NewFloat(math.Copysign(0, -1)), "d": sqltypes.NewDateDays(-3)}},
		{Type: FrameDone, QueryID: 2, RowCount: 1500, ElapsedUS: 77, Retries: 3, Skipped: []string{"server1", ""},
			Spans: []WireSpan{{ID: 1, Server: "head", Name: "statement", StartUS: 1 << 50, ElapsedUS: 12}, {ID: 2, Parent: 1, Detail: "d"}}},
		{Type: FrameCols, QueryID: 1, Cols: []WireCol{{Name: "a", Kind: 2}, {Name: "", Kind: 4}}},
	} {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, in); err != nil {
			t.Fatal(err)
		}
		out, err := ReadFrame(bufio.NewReader(&buf))
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(out) != fmt.Sprint(in) {
			t.Errorf("round trip:\n got %+v\nwant %+v", out, in)
		}
	}
}

// randomValue draws a value of kind k, favouring the edges.
func randomValue(rng *rand.Rand, k sqltypes.Kind) sqltypes.Value {
	switch k {
	case sqltypes.KindBool:
		return sqltypes.NewBool(rng.Intn(2) == 0)
	case sqltypes.KindInt:
		edges := []int64{0, 1, -1, math.MinInt64, math.MaxInt64, 1 << 35}
		if rng.Intn(2) == 0 {
			return sqltypes.NewInt(edges[rng.Intn(len(edges))])
		}
		return sqltypes.NewInt(rng.Int63() - rng.Int63())
	case sqltypes.KindFloat:
		edges := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 1.5, math.SmallestNonzeroFloat64, math.MaxFloat64}
		if rng.Intn(2) == 0 {
			return sqltypes.NewFloat(edges[rng.Intn(len(edges))])
		}
		return sqltypes.NewFloat(rng.NormFloat64() * 1e6)
	case sqltypes.KindString:
		edges := []string{"", "a", "héllo wörld", "日本語", "\x00\xff\xfe", strings.Repeat("x", 300)}
		if rng.Intn(2) == 0 {
			return sqltypes.NewString(edges[rng.Intn(len(edges))])
		}
		return sqltypes.NewString(fmt.Sprintf("s%d", rng.Intn(1e6)))
	case sqltypes.KindDate:
		edges := []int64{0, -1, 19876, -719162, 2932896}
		return sqltypes.NewDateDays(edges[rng.Intn(len(edges))] + int64(rng.Intn(3)))
	}
	return sqltypes.Null
}

var valueKinds = []sqltypes.Kind{sqltypes.KindBool, sqltypes.KindInt, sqltypes.KindFloat, sqltypes.KindString, sqltypes.KindDate}

// randomBatch builds a batch of 0–4096 rows: typed or generic columns,
// NULL-heavy or NULL-free, single-kind or mixed, sometimes behind a
// selection vector.
func randomBatch(rng *rand.Rand) *rowset.Batch {
	sizes := []int{0, 1, 2, 7, 8, 9, 63, 64, 65, 1000, rowset.DefaultBatchSize, rowset.MaxBatchSize}
	n := sizes[rng.Intn(len(sizes))]
	if rng.Intn(3) == 0 {
		n = rng.Intn(300)
	}
	w := 1 + rng.Intn(5)
	kinds := make([]sqltypes.Kind, w)
	nullProb := make([]float64, w)
	mixed := make([]bool, w)
	for j := range kinds {
		kinds[j] = valueKinds[rng.Intn(len(valueKinds))]
		nullProb[j] = []float64{0, 0, 0.3, 0.9, 1}[rng.Intn(5)]
		mixed[j] = rng.Intn(6) == 0
	}
	rows := make([]rowset.Row, n)
	for i := range rows {
		rows[i] = make(rowset.Row, w)
		for j := range rows[i] {
			k := kinds[j]
			if mixed[j] {
				k = valueKinds[rng.Intn(len(valueKinds))]
			}
			if rng.Float64() >= nullProb[j] {
				rows[i][j] = randomValue(rng, k)
			}
		}
	}
	b := rowset.NewBatch(rowset.MaxBatchSize)
	if rng.Intn(3) == 0 {
		kinds = make([]sqltypes.Kind, len(kinds)) // generic columns
	}
	if rng.Intn(2) == 0 {
		if rowset.NewMaterialized(kindCols(kinds), rows).NextBatch(b) == io.EOF {
			b.ResetTyped(kinds)
		}
	} else {
		b.ResetTyped(kinds)
		for _, r := range rows {
			b.AppendRow(r)
		}
	}
	if n > 0 && rng.Intn(2) == 0 {
		var sel []int
		for i := 0; i < n; i++ {
			if rng.Intn(3) != 0 {
				sel = append(sel, i)
			}
		}
		b.SetSelection(sel)
	}
	return b
}

// sameValue compares kind for kind and bit for bit.
func sameValue(a, b sqltypes.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case sqltypes.KindFloat:
		return math.Float64bits(a.RawFloat()) == math.Float64bits(b.RawFloat())
	case sqltypes.KindString:
		return a.RawStr() == b.RawStr()
	}
	return a.RawInt() == b.RawInt()
}

// TestBatchFrameRoundTrip is the encoder/decoder property: any batch the
// executor can hand the session encodes into a rows frame that decodes to
// exactly Batch.RowAt, and the decoded rows re-encode to the same bytes.
func TestBatchFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	iters := 400
	if testing.Short() {
		iters = 60
	}
	for it := 0; it < iters; it++ {
		b := randomBatch(rng)
		p := appendRows(nil, 7, b.Cols(), b.Indices())
		f, rows, err := decodeFrame(p, nil)
		if err != nil {
			t.Fatalf("iteration %d: decoding %d rows: %v", it, b.Len(), err)
		}
		if f.Type != FrameRows || f.QueryID != 7 || len(rows) != b.Len() {
			t.Fatalf("iteration %d: frame %s/%d with %d rows, want rows/7 with %d", it, f.Type, f.QueryID, len(rows), b.Len())
		}
		var want rowset.Row
		for i, got := range rows {
			want = b.RowAt(i, want)
			for j := range want {
				if !sameValue(got[j], want[j]) {
					t.Fatalf("iteration %d: row %d col %d = %v (%s), want %v (%s)", it, i, j,
						got[j].Display(), got[j].Kind(), want[j].Display(), want[j].Kind())
				}
			}
		}
		cols, idxs, err := wireColumns(wireRows(rows))
		if err != nil {
			t.Fatal(err)
		}
		if again := appendRows(nil, 7, cols, idxs); !bytes.Equal(again, p) {
			t.Fatalf("iteration %d: decoded rows re-encode to different bytes", it)
		}
	}
}

// frameSeeds is FuzzReadFrame's seed corpus (also committed under
// testdata/fuzz/FuzzReadFrame): every frame type, an all-NULL column, mixed
// kinds, truncations, and row and column counts far past the bytes sent.
func frameSeeds() [][]byte {
	enc := func(f *Frame) []byte {
		p, err := appendFrame(nil, f)
		if err != nil {
			panic(err)
		}
		return p
	}
	rows := enc(&Frame{Type: FrameRows, QueryID: 3, Rows: [][]WireValue{
		{{K: "i", I: 42}, {K: "s", S: "hi"}, {}, {K: "f", F: 2.5}, {K: "b", I: 1}},
		{{}, {K: "s", S: "héllo"}, {}, {K: "i", I: -7}, {K: "d", I: 19876}},
		{{K: "i", I: math.MinInt64}, {}, {}, {}, {K: "b"}},
	}})
	seeds := [][]byte{
		enc(&Frame{Type: FrameQuery, QueryID: 1, SQL: "SELECT a FROM t WHERE a = @p", TraceID: "t1", SpanID: 4,
			Params: map[string]sqltypes.Value{"p": sqltypes.NewInt(5), "q": sqltypes.NewString("x")}}),
		enc(&Frame{Type: FrameCols, QueryID: 3, Cols: []WireCol{{Name: "a", Kind: 2}, {Name: "s", Kind: 4}}}),
		rows,
		enc(&Frame{Type: FrameRows, QueryID: 3}),
		enc(&Frame{Type: FrameDone, QueryID: 3, RowCount: 3, ElapsedUS: 100, Retries: 1, Skipped: []string{"server2"},
			Spans: []WireSpan{{ID: 1, Server: "head", Name: "statement", StartUS: 1, ElapsedUS: 2}}}),
		enc(&Frame{Type: FrameHello}),
		enc(&Frame{Type: FrameError, QueryID: 3, Code: CodeKilled, Msg: "killed by session 2"}),
		enc(&Frame{Type: FrameInfo, Info: &ServerInfo{Server: "s", Sessions: 1}}),
		rows[:len(rows)/2], // truncated
		{tagRows, 6, 0x80, 0x80, 0x80, 0x80, 0x10, 1, byte(sqltypes.KindInt), 1},           // 2^32 rows
		{tagRows, 6, 2, 0xff, 0xff, 0xff, 0xff, 0x0f, byte(sqltypes.KindInt), 1, 1},        // 2^32 columns
		{tagRows, 6, 0x90, 0x4e, 1, byte(sqltypes.KindNull) | colBitmap, 0},                // 10 000 all-NULL rows, 1 bitmap byte
		{tagRows, 6, 2, 1, colMixed, byte(sqltypes.KindInt), 2, byte(sqltypes.KindInt), 4}, // mixed of one kind
		{tagDone, 2, 0, 0, 0, 0, 0x80, 0x80, 0x80, 0x08},                                   // 2^24 spans
		[]byte(`{"type":"rows"}`),
		nullRowsFrame(maxFrameValues + 1), // one value past the bound, every bitmap bit paid
	}
	return seeds
}

// nullRowsFrame is a rows-frame payload of n rows of one all-NULL column:
// n/8 bytes on the wire, n values decoded.
func nullRowsFrame(n int) []byte {
	p := append([]byte{tagRows, 0}, binary.AppendUvarint(nil, uint64(n))...)
	p = append(p, 1, byte(sqltypes.KindNull)|colBitmap)
	return append(p, make([]byte, (n+7)/8)...)
}

// TestRowsFrameValueBound: the decoder takes a rows frame of maxFrameValues
// values and refuses one more, whatever the bytes would allow.
func TestRowsFrameValueBound(t *testing.T) {
	if _, rows, err := decodeFrame(nullRowsFrame(maxFrameValues), nil); err != nil || len(rows) != maxFrameValues {
		t.Fatalf("a frame of %d NULLs: %d rows, %v", maxFrameValues, len(rows), err)
	}
	if _, _, err := decodeFrame(nullRowsFrame(maxFrameValues+1), nil); err == nil {
		t.Fatalf("a frame of %d NULLs was accepted", maxFrameValues+1)
	}
	wide := make([]WireValue, maxFrameValues+1)
	if err := WriteFrame(io.Discard, &Frame{Type: FrameRows, Rows: [][]WireValue{wide}}); err == nil {
		t.Fatal("WriteFrame encoded a row past the value bound")
	}
}

// decodeAllocBound is what decoding a payload of n bytes may allocate: 8
// values per byte (a NULL is a bitmap bit) at 64 bytes each — a 40-byte value
// and a 24-byte row header for a one-column row — with an eighth for size
// classes and 64 KiB for the reader's fixed costs.
func decodeAllocBound(n int) uint64 { return 576*uint64(n) + 64<<10 }

// FuzzReadFrame holds the decoder to three properties on any payload: it
// never panics; it allocates at most a constant times the payload (every
// count is checked against the bytes left first); and every binary frame it
// accepts re-encodes to identical bytes.
func FuzzReadFrame(f *testing.F) {
	for _, s := range frameSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		if len(payload) > MaxFrameBytes {
			return
		}
		in := make([]byte, prefixLen, prefixLen+len(payload))
		binary.BigEndian.PutUint32(in, uint32(len(payload)))
		in = append(in, payload...)
		r := frameReader{br: bufio.NewReader(bytes.NewReader(in))}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fr, rows, err := r.next(nil)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > decodeAllocBound(len(payload)) {
			t.Fatalf("decoding %d payload bytes allocated %d bytes", len(payload), alloc)
		}
		if err != nil || payload[0] == '{' {
			return
		}
		fr.Rows = wireRows(rows) // what ReadFrame hands back
		again, err := appendFrame(nil, fr)
		if err != nil {
			t.Fatalf("accepted %s frame does not re-encode: %v", fr.Type, err)
		}
		if !bytes.Equal(again, payload) {
			t.Fatalf("accepted %s frame re-encodes differently:\n in %x\nout %x", fr.Type, payload, again)
		}
	})
}

// kindCols describes one column per kind.
func kindCols(kinds []sqltypes.Kind) []schema.Column {
	cols := make([]schema.Column, len(kinds))
	for j, k := range kinds {
		cols[j] = schema.Column{Name: fmt.Sprintf("c%d", j), Kind: k}
	}
	return cols
}

// resultFrames encodes a result the way a session streams it: cols, one
// rows frame per root batch of DefaultBatchSize rows, done.
func resultFrames(kinds []sqltypes.Kind, rows []rowset.Row) [][]byte {
	cols := make([]WireCol, len(kinds))
	for j, k := range kinds {
		cols[j] = WireCol{Name: fmt.Sprintf("c%d", j), Kind: uint8(k)}
	}
	frames := [][]byte{appendCols(frameStart(nil), 1, cols)}
	b := rowset.NewBatch(rowset.DefaultBatchSize)
	for m := rowset.NewMaterialized(kindCols(kinds), rows); m.NextBatch(b) == nil; {
		frames = append(frames, appendRows(frameStart(nil), 1, b.Cols(), b.Indices()))
	}
	return append(frames, appendDone(frameStart(nil), &Frame{QueryID: 1, RowCount: int64(len(rows))}))
}

// BenchmarkResultFrames encodes and decodes the serving layer's two typical
// results — fed_row_ship's 1 500-row (INT, VARCHAR, INT) join and a one-row
// (VARCHAR, INT) point read — and reports wire bytes per row and
// allocations per decoded frame. Its gates count, so they hold on any host:
// decode allocations per frame do not grow with the rows a frame holds,
// and the 1 500-row result is at most 30 000 wire bytes.
func BenchmarkResultFrames(b *testing.B) {
	shapes := []struct {
		name  string
		kinds []sqltypes.Kind
		rows  int
	}{
		{"join-1500", []sqltypes.Kind{sqltypes.KindInt, sqltypes.KindString, sqltypes.KindInt}, 1500},
		{"point-1", []sqltypes.Kind{sqltypes.KindString, sqltypes.KindInt}, 1},
	}
	decodeAllocs := map[string]float64{}
	for _, sh := range shapes {
		rows := make([]rowset.Row, sh.rows)
		for i := range rows {
			// fed_row_ship's values: an order id in a 128 000-row key
			// space, a customer name, an amount below 1 000.
			ints := []int64{int64(64000 + i), int64(i * 7 % 1000)}
			for _, k := range sh.kinds {
				if k == sqltypes.KindString {
					rows[i] = append(rows[i], sqltypes.NewString(fmt.Sprintf("cust-%06d", i*37%5000)))
				} else {
					rows[i], ints = append(rows[i], sqltypes.NewInt(ints[0])), ints[1:]
				}
			}
		}
		frames := resultFrames(sh.kinds, rows)
		wire := 0
		for _, p := range frames {
			wire += len(p)
		}
		rowsFrame := frames[1][prefixLen:]
		allocs := testing.AllocsPerRun(50, func() {
			if _, _, err := decodeFrame(rowsFrame, nil); err != nil {
				b.Fatal(err)
			}
		})
		decodeAllocs[sh.name] = allocs
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			var dst []rowset.Row
			for i := 0; i < b.N; i++ {
				again := resultFrames(sh.kinds, rows)
				dst = dst[:0]
				for _, p := range again {
					var err error
					if _, dst, err = decodeFrame(p[prefixLen:], dst); err != nil {
						b.Fatal(err)
					}
				}
				if len(dst) != sh.rows {
					b.Fatalf("%d rows decoded, want %d", len(dst), sh.rows)
				}
			}
			b.ReportMetric(float64(wire)/float64(sh.rows), "wire-B/row")
			b.ReportMetric(allocs, "decode-allocs/frame")
		})
		if sh.name == "join-1500" && wire > 30000 {
			b.Fatalf("gate: the 1 500-row result is %d wire bytes, over 30 000", wire)
		}
	}
	if big, small := decodeAllocs["join-1500"], decodeAllocs["point-1"]; big > small+1 {
		b.Fatalf("gate: decoding a %d-row frame allocates %v times, a one-row frame %v", rowset.DefaultBatchSize, big, small)
	}
}
