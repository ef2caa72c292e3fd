package sqltypes

import (
	"testing"
	"testing/quick"
	"time"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull: "NULL", KindBool: "BIT", KindInt: "BIGINT",
		KindFloat: "FLOAT", KindString: "VARCHAR", KindDate: "DATE",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	if v := NewInt(42); v.Kind() != KindInt || v.Int() != 42 {
		t.Errorf("NewInt: got %v", v)
	}
	if v := NewFloat(2.5); v.Kind() != KindFloat || v.Float() != 2.5 {
		t.Errorf("NewFloat: got %v", v)
	}
	if v := NewString("x"); v.Kind() != KindString || v.Str() != "x" {
		t.Errorf("NewString: got %v", v)
	}
	if v := NewBool(true); v.Kind() != KindBool || !v.Bool() {
		t.Errorf("NewBool: got %v", v)
	}
	d := NewDate(1996, time.March, 13)
	if d.Kind() != KindDate || d.Time().Format("2006-01-02") != "1996-03-13" {
		t.Errorf("NewDate: got %v", d.Time())
	}
	if !Null.IsNull() || Null.Kind() != KindNull {
		t.Errorf("Null is not null")
	}
}

func TestAccessorPanicsOnWrongKind(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Int() on string did not panic")
		}
	}()
	_ = NewString("x").Int()
}

func TestCompareNulls(t *testing.T) {
	if Compare(Null, Null) != 0 {
		t.Error("NULL != NULL in sort order")
	}
	if Compare(Null, NewInt(0)) != -1 {
		t.Error("NULL should sort before 0")
	}
	if Compare(NewInt(0), Null) != 1 {
		t.Error("0 should sort after NULL")
	}
}

func TestCompareCrossNumeric(t *testing.T) {
	if Compare(NewInt(3), NewFloat(3.0)) != 0 {
		t.Error("3 != 3.0")
	}
	if Compare(NewInt(3), NewFloat(3.5)) != -1 {
		t.Error("3 !< 3.5")
	}
	if Compare(NewFloat(4.0), NewInt(3)) != 1 {
		t.Error("4.0 !> 3")
	}
	if Compare(NewBool(true), NewInt(1)) != 0 {
		t.Error("true != 1")
	}
}

func TestCompareStringsAndDates(t *testing.T) {
	if Compare(NewString("abc"), NewString("abd")) != -1 {
		t.Error("abc !< abd")
	}
	a := NewDate(1992, 1, 1)
	b := NewDate(1993, 1, 1)
	if Compare(a, b) != -1 || Compare(b, a) != 1 || Compare(a, a) != 0 {
		t.Error("date ordering broken")
	}
}

func TestStringLiteralRendering(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null, "NULL"},
		{NewInt(-7), "-7"},
		{NewFloat(1.5), "1.5"},
		{NewBool(false), "0"},
		{NewString("o'brien"), "'o''brien'"},
		{NewDate(1998, 12, 1), "'1998-12-01'"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%v) = %q, want %q", c.v.Kind(), got, c.want)
		}
	}
}

func TestDisplay(t *testing.T) {
	if NewString("x").Display() != "x" {
		t.Error("Display should not quote strings")
	}
	if NewDate(1998, 12, 1).Display() != "1998-12-01" {
		t.Error("Display date format")
	}
}

func TestParseDate(t *testing.T) {
	v, err := ParseDate("1992-01-01")
	if err != nil {
		t.Fatal(err)
	}
	if v.Time().Year() != 1992 {
		t.Errorf("year = %d", v.Time().Year())
	}
	if _, err := ParseDate("not-a-date"); err == nil {
		t.Error("expected error")
	}
}

func TestCoerce(t *testing.T) {
	cases := []struct {
		v    Value
		k    Kind
		want Value
		err  bool
	}{
		{NewInt(3), KindFloat, NewFloat(3), false},
		{NewFloat(3.7), KindInt, NewInt(3), false},
		{NewString("12"), KindInt, NewInt(12), false},
		{NewString("2.5"), KindFloat, NewFloat(2.5), false},
		{NewInt(0), KindBool, NewBool(false), false},
		{NewString("1992-06-09"), KindDate, NewDate(1992, 6, 9), false},
		{Null, KindInt, Null, false},
		{NewString("abc"), KindInt, Null, true},
	}
	for i, c := range cases {
		got, err := Coerce(c.v, c.k)
		if c.err != (err != nil) {
			t.Errorf("case %d: err = %v, want err=%v", i, err, c.err)
			continue
		}
		if err == nil && !Equal(got, c.want) {
			t.Errorf("case %d: got %v, want %v", i, got, c.want)
		}
	}
}

func TestCoerceToString(t *testing.T) {
	got, err := Coerce(NewInt(42), KindString)
	if err != nil || got.Str() != "42" {
		t.Errorf("got %v, %v", got, err)
	}
}

func TestEncodedSize(t *testing.T) {
	if Null.EncodedSize() != 1 {
		t.Error("null size")
	}
	if NewInt(1).EncodedSize() != 8 {
		t.Error("int size")
	}
	if NewString("abcd").EncodedSize() != 8 {
		t.Error("string size should be 4+len")
	}
}

// Property: Compare is a total order — antisymmetric and transitive over a
// generated sample.
func TestCompareProperties(t *testing.T) {
	gen := func(seed int64) Value {
		switch seed % 5 {
		case 0:
			return Null
		case 1:
			return NewInt(seed % 100)
		case 2:
			return NewFloat(float64(seed%100) / 2)
		case 3:
			return NewString(string(rune('a' + seed%26)))
		default:
			return NewDateDays(seed % 1000)
		}
	}
	f := func(a, b, c int64) bool {
		x, y, z := gen(a), gen(b), gen(c)
		if Compare(x, y) != -Compare(y, x) {
			return false
		}
		// transitivity: x<=y && y<=z => x<=z
		if Compare(x, y) <= 0 && Compare(y, z) <= 0 && Compare(x, z) > 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestAsFloatAsInt(t *testing.T) {
	if f, ok := NewInt(3).AsFloat(); !ok || f != 3 {
		t.Error("AsFloat(int)")
	}
	if _, ok := NewString("x").AsFloat(); ok {
		t.Error("AsFloat(string) should fail")
	}
	if i, ok := NewFloat(3.9).AsInt(); !ok || i != 3 {
		t.Error("AsInt(float) should truncate")
	}
	if _, ok := Null.AsInt(); ok {
		t.Error("AsInt(null) should fail")
	}
	if i, ok := NewDateDays(10).AsInt(); !ok || i != 10 {
		t.Error("AsInt(date) should expose days")
	}
}
