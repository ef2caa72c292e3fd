// Package sqltypes implements the SQL value system shared by every layer of
// the DHQP engine: the storage engine, the expression evaluator, the
// optimizer's constraint framework and the provider rowset interfaces.
//
// A Value is a small flat struct (no interface boxing) so that hot executor
// loops and hash tables stay allocation-free. NULL ordering and three-valued
// logic follow SQL semantics: NULL sorts first, comparisons with NULL yield
// unknown (surfaced as Null Values from Compare-like expressions).
package sqltypes

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Kind enumerates the dynamic type of a Value.
type Kind uint8

// The supported SQL types. Date values are stored at day granularity as days
// since the Unix epoch, which keeps Value flat and comparison cheap; the
// engine surfaces them in 'YYYY-MM-DD' literal syntax.
const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
	KindDate
)

// String returns the SQL name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindBool:
		return "BIT"
	case KindInt:
		return "BIGINT"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "VARCHAR"
	case KindDate:
		return "DATE"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a single SQL value. The zero Value is SQL NULL.
type Value struct {
	kind Kind
	i    int64 // int, bool (0/1), date (days since epoch)
	f    float64
	s    string
}

// Null is the SQL NULL value.
var Null = Value{}

// NewInt returns a BIGINT value.
func NewInt(v int64) Value { return Value{kind: KindInt, i: v} }

// NewFloat returns a FLOAT value.
func NewFloat(v float64) Value { return Value{kind: KindFloat, f: v} }

// NewString returns a VARCHAR value.
func NewString(v string) Value { return Value{kind: KindString, s: v} }

// NewBool returns a BIT value.
func NewBool(v bool) Value {
	var i int64
	if v {
		i = 1
	}
	return Value{kind: KindBool, i: i}
}

// NewDate returns a DATE value for the given civil date.
func NewDate(year int, month time.Month, day int) Value {
	t := time.Date(year, month, day, 0, 0, 0, 0, time.UTC)
	return Value{kind: KindDate, i: t.Unix() / 86400}
}

// NewDateDays returns a DATE value from days since the Unix epoch.
func NewDateDays(days int64) Value { return Value{kind: KindDate, i: days} }

// Kind reports the dynamic type of the value.
func (v Value) Kind() Kind { return v.kind }

// RawInt returns the shared int-family payload word (kinds Int, Bool,
// Date) without re-validating the kind. The pointer receiver lets bulk
// column fills read the payload of a value in place — no 40-byte struct
// copy, no kind switch — after checking Kind() once per element. The
// result is unspecified for other kinds.
func (v *Value) RawInt() int64 { return v.i }

// RawFloat returns the FLOAT payload without re-validating the kind; see
// RawInt.
func (v *Value) RawFloat() float64 { return v.f }

// RawStr returns the VARCHAR payload without re-validating the kind; see
// RawInt.
func (v *Value) RawStr() string { return v.s }

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Int returns the BIGINT payload. It panics on other kinds; callers must
// check Kind first (or use AsInt for coercion).
func (v Value) Int() int64 {
	if v.kind != KindInt {
		panic("sqltypes: Int() on " + v.kind.String())
	}
	return v.i
}

// Float returns the FLOAT payload.
func (v Value) Float() float64 {
	if v.kind != KindFloat {
		panic("sqltypes: Float() on " + v.kind.String())
	}
	return v.f
}

// Str returns the VARCHAR payload.
func (v Value) Str() string {
	if v.kind != KindString {
		panic("sqltypes: Str() on " + v.kind.String())
	}
	return v.s
}

// Bool returns the BIT payload.
func (v Value) Bool() bool {
	if v.kind != KindBool {
		panic("sqltypes: Bool() on " + v.kind.String())
	}
	return v.i != 0
}

// DateDays returns the DATE payload as days since the Unix epoch.
func (v Value) DateDays() int64 {
	if v.kind != KindDate {
		panic("sqltypes: DateDays() on " + v.kind.String())
	}
	return v.i
}

// Time returns the DATE payload as a UTC midnight time.Time.
func (v Value) Time() time.Time {
	return time.Unix(v.DateDays()*86400, 0).UTC()
}

// AsFloat coerces numeric kinds to float64. ok is false for non-numeric
// kinds and NULL.
func (v Value) AsFloat() (f float64, ok bool) {
	switch v.kind {
	case KindInt:
		return float64(v.i), true
	case KindFloat:
		return v.f, true
	case KindBool:
		return float64(v.i), true
	default:
		return 0, false
	}
}

// AsInt coerces numeric kinds to int64 (floats truncate). ok is false for
// non-numeric kinds and NULL.
func (v Value) AsInt() (i int64, ok bool) {
	switch v.kind {
	case KindInt, KindBool, KindDate:
		return v.i, true
	case KindFloat:
		return int64(v.f), true
	default:
		return 0, false
	}
}

// String renders the value in SQL literal syntax (used by the decoder for
// dialects whose literal forms match; dialect-specific forms live in the
// decoder itself).
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindBool:
		if v.i != 0 {
			return "1"
		}
		return "0"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return "'" + strings.ReplaceAll(v.s, "'", "''") + "'"
	case KindDate:
		return "'" + v.Time().Format("2006-01-02") + "'"
	default:
		return fmt.Sprintf("Value(kind=%d)", v.kind)
	}
}

// Display renders the value for result-set output (no quoting).
func (v Value) Display() string {
	switch v.kind {
	case KindString:
		return v.s
	case KindDate:
		return v.Time().Format("2006-01-02")
	default:
		return v.String()
	}
}

// numericRank orders kinds for cross-kind numeric comparison.
func numericKind(k Kind) bool {
	return k == KindInt || k == KindFloat || k == KindBool
}

// Compare orders two values. NULL compares less than every non-NULL value
// and equal to NULL (this is *index/sort* order, not predicate semantics;
// predicate evaluation handles three-valued logic in the expr package).
// Numeric kinds compare by numeric value; otherwise kinds must match.
// Cross-kind non-numeric comparisons order by Kind to keep sorting total.
func Compare(a, b Value) int {
	if a.kind == KindNull || b.kind == KindNull {
		switch {
		case a.kind == b.kind:
			return 0
		case a.kind == KindNull:
			return -1
		default:
			return 1
		}
	}
	if numericKind(a.kind) && numericKind(b.kind) {
		if a.kind == KindFloat || b.kind == KindFloat {
			af, _ := a.AsFloat()
			bf, _ := b.AsFloat()
			switch {
			case af < bf:
				return -1
			case af > bf:
				return 1
			default:
				return 0
			}
		}
		switch {
		case a.i < b.i:
			return -1
		case a.i > b.i:
			return 1
		default:
			return 0
		}
	}
	if a.kind != b.kind {
		if a.kind < b.kind {
			return -1
		}
		return 1
	}
	switch a.kind {
	case KindString:
		return strings.Compare(a.s, b.s)
	case KindDate:
		switch {
		case a.i < b.i:
			return -1
		case a.i > b.i:
			return 1
		default:
			return 0
		}
	default:
		return 0
	}
}

// Equal reports whether two values are identical under Compare order.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// EncodedSize approximates the wire size of the value in bytes; the network
// simulator and the remote cost model charge traffic by this measure.
func (v Value) EncodedSize() int {
	switch v.kind {
	case KindNull:
		return 1
	case KindBool:
		return 1
	case KindInt, KindFloat, KindDate:
		return 8
	case KindString:
		return 4 + len(v.s)
	default:
		return 8
	}
}

// ParseDate parses a 'YYYY-MM-DD' literal.
func ParseDate(s string) (Value, error) {
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		return Null, fmt.Errorf("sqltypes: bad date literal %q: %w", s, err)
	}
	return Value{kind: KindDate, i: t.Unix() / 86400}, nil
}

// Coerce converts v to the requested kind where a lossless or standard SQL
// implicit conversion exists. It returns an error otherwise; NULL coerces to
// every kind.
func Coerce(v Value, k Kind) (Value, error) {
	if v.kind == k || v.kind == KindNull {
		return v, nil
	}
	switch k {
	case KindInt:
		if i, ok := v.AsInt(); ok {
			return NewInt(i), nil
		}
		if v.kind == KindString {
			i, err := strconv.ParseInt(strings.TrimSpace(v.s), 10, 64)
			if err == nil {
				return NewInt(i), nil
			}
		}
	case KindFloat:
		if f, ok := v.AsFloat(); ok {
			return NewFloat(f), nil
		}
		if v.kind == KindString {
			f, err := strconv.ParseFloat(strings.TrimSpace(v.s), 64)
			if err == nil {
				return NewFloat(f), nil
			}
		}
	case KindString:
		return NewString(v.Display()), nil
	case KindBool:
		if i, ok := v.AsInt(); ok {
			return NewBool(i != 0), nil
		}
		if v.kind == KindString {
			switch strings.ToLower(strings.TrimSpace(v.s)) {
			case "1", "true", "yes":
				return NewBool(true), nil
			case "0", "false", "no":
				return NewBool(false), nil
			}
		}
	case KindDate:
		if v.kind == KindString {
			return ParseDate(v.s)
		}
		if v.kind == KindInt {
			return NewDateDays(v.i), nil
		}
	}
	return Null, fmt.Errorf("sqltypes: cannot coerce %s to %s", v.kind, k)
}
