// Package interp executes LSL scripts (internal/script) against the
// dataframe engine (internal/frame). It is the substrate behind the
// paper's execution constraint: a candidate script is valid only if it
// runs without error, and the outputs it produces feed the user-intent
// measures (table Jaccard and downstream model accuracy).
package interp

import (
	"fmt"

	"lucidscript/internal/frame"
)

// Value is any runtime value an LSL expression can produce.
type Value interface{}

// DF is a dataframe value with pandas-style row labels. Labels let
// patterns like `update = df.sample(20).index; df.loc[update, "c"] = 0`
// address rows of the original frame after sampling or filtering.
type DF struct {
	F     *frame.Frame
	Index []int // row labels, parallel to F's rows
}

// NewDF wraps a frame with fresh labels 0..n-1.
func NewDF(f *frame.Frame) *DF {
	idx := make([]int, f.NumRows())
	for i := range idx {
		idx[i] = i
	}
	return &DF{F: f, Index: idx}
}

// Clone deep-copies the dataframe value.
func (d *DF) Clone() *DF {
	return &DF{F: d.F.Clone(), Index: append([]int(nil), d.Index...)}
}

// take returns the sub-dataframe at the given row positions.
func (d *DF) take(pos []int) (*DF, error) {
	f, err := d.F.Take(pos)
	if err != nil {
		return nil, err
	}
	idx := make([]int, len(pos))
	for i, p := range pos {
		idx[i] = d.Index[p]
	}
	return &DF{F: f, Index: idx}, nil
}

// filter returns the sub-dataframe where the mask is true.
func (d *DF) filter(m frame.Mask) (*DF, error) {
	if len(m) != d.F.NumRows() {
		return nil, fmt.Errorf("interp: mask length %d does not match %d rows", len(m), d.F.NumRows())
	}
	return d.take(m.Positions())
}

// moduleVal represents an imported module (pandas / numpy).
type moduleVal struct {
	name string
}

// statVal is the result of df.mean() / df.median() / df.mode(): a deferred
// per-column statistic, consumed by df.fillna(...).
type statVal struct {
	stat frame.FillStat
}

// strVal is the .str accessor over a string series.
type strVal struct {
	s *frame.Series
}

// indexVal is a row-label list, produced by `df.index` or `df.sample(n).index`.
type indexVal struct {
	labels []int
}

// dictVal is a dict literal rendered to string keys/values.
type dictVal struct {
	m map[string]string
}

// listVal is a list literal.
type listVal struct {
	elems []Value
}

// groupVal is `df.groupby(key)`.
type groupVal struct {
	df  *DF
	key string
}

// groupColVal is `df.groupby(key)[value]`.
type groupColVal struct {
	df       *DF
	key, col string
}

// boundMethod defers a method call: evaluating `x.attr` where attr names a
// method yields a boundMethod that the call evaluator invokes.
type boundMethod struct {
	recv Value
	name string
}

// typeName names a value's LSL-visible type for error messages.
func typeName(v Value) string {
	switch v.(type) {
	case *DF:
		return "DataFrame"
	case *frame.Series:
		return "Series"
	case frame.Mask:
		return "Mask"
	case float64:
		return "number"
	case string:
		return "str"
	case bool:
		return "bool"
	case moduleVal:
		return "module"
	case statVal:
		return "column-statistic"
	case strVal:
		return "str-accessor"
	case dtVal:
		return "dt-accessor"
	case indexVal:
		return "Index"
	case dictVal:
		return "dict"
	case listVal:
		return "list"
	case groupVal:
		return "GroupBy"
	case groupColVal:
		return "GroupBy-column"
	case boundMethod:
		return "method"
	case nil:
		return "None"
	}
	return fmt.Sprintf("%T", v)
}
