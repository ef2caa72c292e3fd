package expr

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"dhqp/internal/sqltypes"
)

// FuncCall invokes a built-in scalar function. The function set covers what
// the paper's examples use (date, today, year) plus common string/numeric
// helpers.
type FuncCall struct {
	Name string
	Args []Expr
}

// NewFuncCall validates the function name and arity.
func NewFuncCall(name string, args []Expr) (*FuncCall, error) {
	lname := strings.ToLower(name)
	spec, ok := funcs[lname]
	if !ok {
		return nil, fmt.Errorf("expr: unknown function %s", name)
	}
	if spec.arity >= 0 && len(args) != spec.arity {
		return nil, fmt.Errorf("expr: %s takes %d argument(s), got %d", name, spec.arity, len(args))
	}
	return &FuncCall{Name: lname, Args: args}, nil
}

type funcSpec struct {
	arity int // -1 = variadic
	impl  func(env *Env, args []sqltypes.Value) (sqltypes.Value, error)
	// nullPropagating functions return NULL if any argument is NULL.
	nullPropagating bool
}

var funcs = map[string]funcSpec{
	"today": {arity: 0, impl: func(env *Env, _ []sqltypes.Value) (sqltypes.Value, error) {
		if env.Today.IsNull() {
			return sqltypes.Null, fmt.Errorf("expr: today() requires a session date")
		}
		return env.Today, nil
	}},
	// date(d, n) produces the date n days after d (the paper §2.4:
	// date(today(), -2)).
	"date": {arity: 2, nullPropagating: true, impl: func(_ *Env, args []sqltypes.Value) (sqltypes.Value, error) {
		d, err := sqltypes.Coerce(args[0], sqltypes.KindDate)
		if err != nil {
			return sqltypes.Null, err
		}
		n, ok := args[1].AsInt()
		if !ok {
			return sqltypes.Null, fmt.Errorf("expr: date() offset must be numeric")
		}
		return sqltypes.NewDateDays(d.DateDays() + n), nil
	}},
	"year": {arity: 1, nullPropagating: true, impl: func(_ *Env, args []sqltypes.Value) (sqltypes.Value, error) {
		d, err := sqltypes.Coerce(args[0], sqltypes.KindDate)
		if err != nil {
			return sqltypes.Null, err
		}
		return sqltypes.NewInt(int64(d.Time().Year())), nil
	}},
	"month": {arity: 1, nullPropagating: true, impl: func(_ *Env, args []sqltypes.Value) (sqltypes.Value, error) {
		d, err := sqltypes.Coerce(args[0], sqltypes.KindDate)
		if err != nil {
			return sqltypes.Null, err
		}
		return sqltypes.NewInt(int64(d.Time().Month())), nil
	}},
	"len": {arity: 1, nullPropagating: true, impl: func(_ *Env, args []sqltypes.Value) (sqltypes.Value, error) {
		s, err := sqltypes.Coerce(args[0], sqltypes.KindString)
		if err != nil {
			return sqltypes.Null, err
		}
		return sqltypes.NewInt(int64(len(s.Str()))), nil
	}},
	"upper": {arity: 1, nullPropagating: true, impl: func(_ *Env, args []sqltypes.Value) (sqltypes.Value, error) {
		s, err := sqltypes.Coerce(args[0], sqltypes.KindString)
		if err != nil {
			return sqltypes.Null, err
		}
		return sqltypes.NewString(strings.ToUpper(s.Str())), nil
	}},
	"lower": {arity: 1, nullPropagating: true, impl: func(_ *Env, args []sqltypes.Value) (sqltypes.Value, error) {
		s, err := sqltypes.Coerce(args[0], sqltypes.KindString)
		if err != nil {
			return sqltypes.Null, err
		}
		return sqltypes.NewString(strings.ToLower(s.Str())), nil
	}},
	"substring": {arity: 3, nullPropagating: true, impl: func(_ *Env, args []sqltypes.Value) (sqltypes.Value, error) {
		s, err := sqltypes.Coerce(args[0], sqltypes.KindString)
		if err != nil {
			return sqltypes.Null, err
		}
		start, ok1 := args[1].AsInt()
		length, ok2 := args[2].AsInt()
		if !ok1 || !ok2 {
			return sqltypes.Null, fmt.Errorf("expr: substring offsets must be numeric")
		}
		str := s.Str()
		// SQL semantics: 1-based start; out-of-range clamps.
		if start < 1 {
			length += start - 1
			start = 1
		}
		if start > int64(len(str)) || length <= 0 {
			return sqltypes.NewString(""), nil
		}
		end := start - 1 + length
		if end > int64(len(str)) {
			end = int64(len(str))
		}
		return sqltypes.NewString(str[start-1 : end]), nil
	}},
	"abs": {arity: 1, nullPropagating: true, impl: func(_ *Env, args []sqltypes.Value) (sqltypes.Value, error) {
		switch args[0].Kind() {
		case sqltypes.KindInt:
			v := args[0].Int()
			if v < 0 {
				v = -v
			}
			return sqltypes.NewInt(v), nil
		case sqltypes.KindFloat:
			return sqltypes.NewFloat(math.Abs(args[0].Float())), nil
		}
		return sqltypes.Null, fmt.Errorf("expr: abs on %s", args[0].Kind())
	}},
	"round": {arity: 2, nullPropagating: true, impl: func(_ *Env, args []sqltypes.Value) (sqltypes.Value, error) {
		f, ok := args[0].AsFloat()
		if !ok {
			return sqltypes.Null, fmt.Errorf("expr: round on %s", args[0].Kind())
		}
		n, ok := args[1].AsInt()
		if !ok {
			return sqltypes.Null, fmt.Errorf("expr: round precision must be numeric")
		}
		scale := math.Pow(10, float64(n))
		return sqltypes.NewFloat(math.Round(f*scale) / scale), nil
	}},
	"coalesce": {arity: -1, impl: func(env *Env, args []sqltypes.Value) (sqltypes.Value, error) {
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return sqltypes.Null, nil
	}},
}

// apply is the function's rule over one row's argument values.
func (f *FuncCall) apply(env *Env, args []sqltypes.Value) (sqltypes.Value, error) {
	spec := funcs[f.Name]
	if spec.nullPropagating && slices.ContainsFunc(args, sqltypes.Value.IsNull) {
		return sqltypes.Null, nil
	}
	return spec.impl(env, args)
}

func (f *FuncCall) String() string {
	parts := make([]string, len(f.Args))
	for i, a := range f.Args {
		parts[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", f.Name, strings.Join(parts, ", "))
}

// IsKnownFunc reports whether name is a registered scalar function.
func IsKnownFunc(name string) bool {
	_, ok := funcs[strings.ToLower(name)]
	return ok
}
