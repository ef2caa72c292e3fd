package engine

import (
	"context"
	"fmt"
	"io"
	"reflect"
	"testing"

	"dhqp/internal/netsim"
	"dhqp/internal/providers/sqlful"
	"dhqp/internal/rowset"
	"dhqp/internal/sqltypes"
)

// typedMember is a member server holding t: an INT, a FLOAT, a VARCHAR, a
// DATE and a BIT column, each with a NULL.
func typedMember(t *testing.T) *Server {
	t.Helper()
	m := NewServer("m", "odb")
	m.MustExec(`CREATE TABLE t (i INT, f FLOAT, s VARCHAR(16), d DATE, b BIT)`)
	m.MustExec(`INSERT INTO t VALUES (1, 1.5, 'one', '2024-01-01', 1), (2, NULL, 'two', '2024-02-29', 0),
		(3, 3.25, NULL, '2024-03-03', 1), (4, -4.0, 'four', NULL, 0), (5, 5.5, 'five', '2024-05-05', NULL),
		(6, 6.0, 'six', '2024-06-06', 1), (NULL, 7.75, 'seven', '2024-07-07', 0)`)
	return m
}

// wantTypedRows is what SELECT i, f, s, d, b FROM t WHERE i > 1 OR i IS
// NULL returns from typedMember.
const wantTypedRows = "[(2, NULL, two, 2024-02-29, 0) (3, 3.25, NULL, 2024-03-03, 1) (4, -4, four, NULL, 0) (5, 5.5, five, 2024-05-05, NULL) (6, 6, six, 2024-06-06, 1) (NULL, 7.75, seven, 2024-07-07, 0)]"

// TestRemoteColumnsArriveTyped: a SELECT pushed to a SQL-92-full member
// comes back as the typed INT, FLOAT, VARCHAR, DATE and BIT columns the
// member's executor produced, NULLs and all, not as boxed values, and the
// link charges exactly the rows' encoded size plus the request.
func TestRemoteColumnsArriveTyped(t *testing.T) {
	head := NewServer("head", "hdb")
	link := netsim.LAN()
	if err := head.AddLinkedServer("m", sqlful.New(typedMember(t), link, sqlful.FullSQLCapabilities()), link); err != nil {
		t.Fatal(err)
	}
	const query = `SELECT i, f, s, d, b FROM m.odb.dbo.t WHERE i > 1 OR i IS NULL`
	plan, _, _, err := head.Plan(query)
	if err != nil {
		t.Fatal(err)
	}
	rq := findRemoteQuery(plan)
	if rq == nil {
		t.Fatalf("nothing pushed:\n%s", plan)
	}
	if _, err := head.Query(query, nil); err != nil { // compiles: metadata and statistics cross first
		t.Fatal(err)
	}
	link.Reset()

	cur, err := head.OpenQuery(context.Background(), query, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []sqltypes.Kind{sqltypes.KindInt, sqltypes.KindFloat, sqltypes.KindString, sqltypes.KindDate, sqltypes.KindBool}
	var rows []rowset.Row
	for i := 0; ; i++ {
		b, err := cur.Pull()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		var kinds []sqltypes.Kind
		for j := 0; j < b.Width(); j++ {
			kinds = append(kinds, b.Col(j).Kind())
		}
		if !reflect.DeepEqual(kinds, want) {
			t.Errorf("root batch %d has column kinds %v, want %v", i, kinds, want)
		}
		for k := 0; k < b.Len(); k++ {
			rows = append(rows, b.RowAt(k, nil))
		}
	}
	if _, err := cur.Finish(nil); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(rows); got != wantTypedRows {
		t.Errorf("rows %s, want %s", got, wantTypedRows)
	}

	bytes := len(rq.SQL) + 16*len(rq.Binds)
	for _, r := range rows {
		bytes += r.EncodedSize()
	}
	st := link.Stats()
	if st.Calls != 1 || st.Rows != 6 || st.Bytes != int64(bytes) || st.Bytes != 324 {
		t.Errorf("link: %d calls, %d rows, %d bytes; want 1, 6 and Σ EncodedSize + request = %d (324)", st.Calls, st.Rows, st.Bytes, bytes)
	}
}

// TestMemberResultOwnsItsColumns: each fetch a head makes of a member's
// open statement is the head's own copy, filled to the head's fetch size
// across the member's root batches, and later fetches read the statement's
// snapshot. At batch size 2 the member's computed columns are refilled for
// every pair of rows, and its scans borrow the table's columnar image;
// neither DML that replaces the image nor a second statement, run between
// fetches, may change what the head reads.
func TestMemberResultOwnsItsColumns(t *testing.T) {
	m := typedMember(t)
	m.Configure(func(c *Config) { c.BatchSize = 2 })
	const query = `SELECT i * 10, f * 2, s, d, b FROM t`
	const want = "[(10, 3, one, 2024-01-01, 1) (20, NULL, two, 2024-02-29, 0) (30, 6.5, NULL, 2024-03-03, 1) (40, -8, four, NULL, 0) " +
		"(50, 11, five, 2024-05-05, NULL) (60, 12, six, 2024-06-06, 1) (NULL, 15.5, seven, 2024-07-07, 0)]"
	// fetch reads one fetch of three rows into rows and its size into fills.
	fetch := func(cur rowset.Rowset, rows *[]rowset.Row, fills *[]int) error {
		b := rowset.NewBatch(3)
		err := cur.NextBatch(b)
		if err == nil {
			*fills = append(*fills, b.Len())
			for i := 0; i < b.Len(); i++ {
				*rows = append(*rows, b.RowAt(i, nil))
			}
		}
		return err
	}
	first, err := m.QuerySQL(context.Background(), query, nil)
	if err != nil {
		t.Fatal(err)
	}
	var rows, secondRows []rowset.Row
	var fills, secondFills []int
	if err := fetch(first, &rows, &fills); err != nil {
		t.Fatal(err)
	}
	m.MustExec(`UPDATE t SET i = i + 100, f = 0, s = 'changed', d = '2000-01-01', b = 0`)
	second, err := m.QuerySQL(context.Background(), query, nil)
	if err != nil {
		t.Fatal(err)
	}
	for fetch(second, &secondRows, &secondFills) == nil {
	}
	second.Close()
	for {
		if err := fetch(first, &rows, &fills); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	first.Close()
	if got := fmt.Sprint(rows); got != want {
		t.Errorf("the head read %s, want %s", got, want)
	}
	if !reflect.DeepEqual(fills, []int{3, 3, 1}) {
		t.Errorf("fetches of %v rows, want [3 3 1]", fills)
	}
	if got := fmt.Sprint(secondRows); got == want || len(secondRows) != 7 {
		t.Errorf("the second statement did not see the DML: %s", got)
	}
}
