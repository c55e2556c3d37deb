// Package frame implements a small columnar dataframe engine with
// null-aware typed series and the data-preparation operators that
// LucidScript scripts use: CSV I/O, imputation, filtering, one-hot
// encoding, string normalization, sorting, sampling and more.
//
// The engine is the execution substrate for the interpreter in
// internal/interp; the paper's prototype used pandas for the same role.
package frame

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Kind identifies the element type of a Series.
type Kind int

// The supported series element kinds.
const (
	Float Kind = iota
	Int
	String
	Bool
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case Float:
		return "float"
	case Int:
		return "int"
	case String:
		return "string"
	case Bool:
		return "bool"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Series is a named, typed, null-aware column of values.
// Exactly one of the backing slices is populated, chosen by kind.
// valid[i] reports whether row i holds a value (false means null/NaN).
type Series struct {
	name  string
	kind  Kind
	fs    []float64
	is    []int64
	ss    []string
	bs    []bool
	valid []bool
}

// NewFloatSeries builds a float series. A NaN value marks a null.
func NewFloatSeries(name string, vals []float64) *Series {
	s := &Series{name: name, kind: Float, fs: append([]float64(nil), vals...), valid: make([]bool, len(vals))}
	for i, v := range vals {
		s.valid[i] = !math.IsNaN(v)
	}
	return s
}

// NewIntSeries builds an int series with all values present.
func NewIntSeries(name string, vals []int64) *Series {
	s := &Series{name: name, kind: Int, is: append([]int64(nil), vals...), valid: make([]bool, len(vals))}
	for i := range s.valid {
		s.valid[i] = true
	}
	return s
}

// NewStringSeries builds a string series. Empty strings are stored as
// values, not nulls; use SetNull to mark nulls explicitly.
func NewStringSeries(name string, vals []string) *Series {
	s := &Series{name: name, kind: String, ss: append([]string(nil), vals...), valid: make([]bool, len(vals))}
	for i := range s.valid {
		s.valid[i] = true
	}
	return s
}

// NewBoolSeries builds a bool series with all values present.
func NewBoolSeries(name string, vals []bool) *Series {
	s := &Series{name: name, kind: Bool, bs: append([]bool(nil), vals...), valid: make([]bool, len(vals))}
	for i := range s.valid {
		s.valid[i] = true
	}
	return s
}

// NewEmptySeries builds an all-null series of n rows with the given kind.
func NewEmptySeries(name string, kind Kind, n int) *Series {
	s := &Series{name: name, kind: kind, valid: make([]bool, n)}
	switch kind {
	case Float:
		s.fs = make([]float64, n)
		for i := range s.fs {
			s.fs[i] = math.NaN()
		}
	case Int:
		s.is = make([]int64, n)
	case String:
		s.ss = make([]string, n)
	case Bool:
		s.bs = make([]bool, n)
	}
	return s
}

// Name returns the column name.
func (s *Series) Name() string { return s.name }

// Kind returns the element kind.
func (s *Series) Kind() Kind { return s.kind }

// Len returns the number of rows.
func (s *Series) Len() int { return len(s.valid) }

// StringBytes returns the total byte length of the stored string values.
// Non-string series hold no string payload and report 0. The interpreter's
// resource governor uses this to bound runaway string growth.
func (s *Series) StringBytes() int {
	var n int
	for _, v := range s.ss {
		n += len(v)
	}
	return n
}

// Rename returns a shallow copy of the series under a new name.
func (s *Series) Rename(name string) *Series {
	c := *s
	c.name = name
	return &c
}

// Clone returns a deep copy of the series. It is the ownership primitive of
// the immutability contract (DESIGN.md §9): code that needs to write cells
// into a series reachable from a frame must Clone (or AsType) first, because
// frames share column pointers freely.
func (s *Series) Clone() *Series {
	c := &Series{name: s.name, kind: s.kind}
	c.fs = append([]float64(nil), s.fs...)
	c.is = append([]int64(nil), s.is...)
	c.ss = append([]string(nil), s.ss...)
	c.bs = append([]bool(nil), s.bs...)
	c.valid = append([]bool(nil), s.valid...)
	return c
}

// IsValid reports whether row i holds a non-null value.
func (s *Series) IsValid(i int) bool { return s.valid[i] }

// SetNull marks row i as null.
func (s *Series) SetNull(i int) {
	s.valid[i] = false
	if s.kind == Float {
		s.fs[i] = math.NaN()
	}
}

// NullCount returns the number of null rows.
func (s *Series) NullCount() int {
	n := 0
	for _, v := range s.valid {
		if !v {
			n++
		}
	}
	return n
}

// hasNulls reports whether any row is null, without counting them all.
func (s *Series) hasNulls() bool {
	for _, v := range s.valid {
		if !v {
			return true
		}
	}
	return false
}

// Float returns the value at row i as a float64. Null rows and
// non-numeric strings yield NaN; bools map to 0/1.
func (s *Series) Float(i int) float64 {
	if !s.valid[i] {
		return math.NaN()
	}
	switch s.kind {
	case Float:
		return s.fs[i]
	case Int:
		return float64(s.is[i])
	case Bool:
		if s.bs[i] {
			return 1
		}
		return 0
	case String:
		v, err := strconv.ParseFloat(strings.TrimSpace(s.ss[i]), 64)
		if err != nil {
			return math.NaN()
		}
		return v
	}
	return math.NaN()
}

// StringAt returns the value at row i rendered as a string.
// Null rows render as the empty string.
func (s *Series) StringAt(i int) string {
	if !s.valid[i] {
		return ""
	}
	switch s.kind {
	case Float:
		return strconv.FormatFloat(s.fs[i], 'g', -1, 64)
	case Int:
		return strconv.FormatInt(s.is[i], 10)
	case Bool:
		return strconv.FormatBool(s.bs[i])
	case String:
		return s.ss[i]
	}
	return ""
}

// appendCell appends StringAt(i) to buf without the intermediate string
// allocation for numeric and bool kinds. Null rows append nothing, exactly
// like StringAt rendering the empty string.
func (s *Series) appendCell(buf []byte, i int) []byte {
	if !s.valid[i] {
		return buf
	}
	switch s.kind {
	case Float:
		return strconv.AppendFloat(buf, s.fs[i], 'g', -1, 64)
	case Int:
		return strconv.AppendInt(buf, s.is[i], 10)
	case Bool:
		return strconv.AppendBool(buf, s.bs[i])
	case String:
		return append(buf, s.ss[i]...)
	}
	return buf
}

// BoolAt returns the value at row i as a bool (only meaningful for Bool kind;
// for other kinds any non-zero / non-empty value is true).
func (s *Series) BoolAt(i int) bool {
	if !s.valid[i] {
		return false
	}
	switch s.kind {
	case Bool:
		return s.bs[i]
	case Float:
		return s.fs[i] != 0
	case Int:
		return s.is[i] != 0
	case String:
		return s.ss[i] != ""
	}
	return false
}

// SetFloat stores a float value at row i; the series must be Float kind.
func (s *Series) SetFloat(i int, v float64) {
	s.fs[i] = v
	s.valid[i] = !math.IsNaN(v)
}

// SetString stores a string value at row i; the series must be String kind.
func (s *Series) SetString(i int, v string) {
	s.ss[i] = v
	s.valid[i] = true
}

// SetInt stores an int value at row i; the series must be Int kind.
func (s *Series) SetInt(i int, v int64) {
	s.is[i] = v
	s.valid[i] = true
}

// SetBool stores a bool value at row i; the series must be Bool kind.
func (s *Series) SetBool(i int, v bool) {
	s.bs[i] = v
	s.valid[i] = true
}

// IsNumeric reports whether the series kind is Float or Int.
func (s *Series) IsNumeric() bool { return s.kind == Float || s.kind == Int }

// validFloats collects the non-null values of a numeric series.
func (s *Series) validFloats() []float64 {
	out := make([]float64, 0, s.Len())
	for i := 0; i < s.Len(); i++ {
		if !s.valid[i] {
			continue
		}
		v := s.Float(i)
		if !math.IsNaN(v) {
			out = append(out, v)
		}
	}
	return out
}

// Mean returns the arithmetic mean of the non-null values, or NaN if none.
func (s *Series) Mean() float64 {
	vs := s.validFloats()
	if len(vs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// Median returns the median of the non-null values, or NaN if none.
func (s *Series) Median() float64 {
	vs := s.validFloats()
	if len(vs) == 0 {
		return math.NaN()
	}
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// Std returns the population standard deviation of the non-null values.
func (s *Series) Std() float64 {
	vs := s.validFloats()
	if len(vs) == 0 {
		return math.NaN()
	}
	m := s.Mean()
	acc := 0.0
	for _, v := range vs {
		d := v - m
		acc += d * d
	}
	return math.Sqrt(acc / float64(len(vs)))
}

// Min returns the minimum non-null value, or NaN if none.
func (s *Series) Min() float64 {
	vs := s.validFloats()
	if len(vs) == 0 {
		return math.NaN()
	}
	m := vs[0]
	for _, v := range vs[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the maximum non-null value, or NaN if none.
func (s *Series) Max() float64 {
	vs := s.validFloats()
	if len(vs) == 0 {
		return math.NaN()
	}
	m := vs[0]
	for _, v := range vs[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Sum returns the sum of the non-null values (0 if none).
func (s *Series) Sum() float64 {
	sum := 0.0
	for _, v := range s.validFloats() {
		sum += v
	}
	return sum
}

// Mode returns the most frequent non-null value rendered as a string,
// breaking ties by lexicographic order. ok is false when all rows are null.
func (s *Series) Mode() (string, bool) {
	counts := map[string]int{}
	for i := 0; i < s.Len(); i++ {
		if s.valid[i] {
			counts[s.StringAt(i)]++
		}
	}
	if len(counts) == 0 {
		return "", false
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	best, bestN := keys[0], counts[keys[0]]
	for _, k := range keys[1:] {
		if counts[k] > bestN {
			best, bestN = k, counts[k]
		}
	}
	return best, true
}

// Unique returns the distinct non-null values as strings, sorted.
func (s *Series) Unique() []string {
	seen := map[string]bool{}
	for i := 0; i < s.Len(); i++ {
		if s.valid[i] {
			seen[s.StringAt(i)] = true
		}
	}
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// SortPositions returns the row positions that order the series, as
// pandas sort_values does: numeric and bool values compare as floats,
// strings bytewise, nulls go last in either direction, and ties keep their
// row order. Breaking ties by position makes the order total, so the
// result is the one a stable sort would give. A valid cell is never NaN
// (NaN is stored as null), so the float comparison is a strict weak order.
func (s *Series) SortPositions(ascending bool) []int {
	pos := make([]int, s.Len())
	for i := range pos {
		pos[i] = i
	}
	numeric := s.IsNumeric() || s.kind == Bool
	slices.SortFunc(pos, func(a, b int) int {
		if s.valid[a] != s.valid[b] {
			if s.valid[a] {
				return -1
			}
			return 1
		}
		if s.valid[a] {
			x, y := a, b
			if !ascending {
				x, y = b, a
			}
			c := 0
			if numeric {
				c = cmp.Compare(s.Float(x), s.Float(y))
			} else {
				c = strings.Compare(s.StringAt(x), s.StringAt(y))
			}
			if c != 0 {
				return c
			}
		}
		return cmp.Compare(a, b)
	})
	return pos
}

// FillNAFloat returns a series with nulls replaced by v (numeric series
// only). A series with no nulls is returned as-is — safe under the
// immutability contract, since no caller writes into a fill result.
func (s *Series) FillNAFloat(v float64) *Series {
	if !s.hasNulls() {
		return s
	}
	c := s.Clone()
	if c.kind == String {
		for i := range c.valid {
			if !c.valid[i] {
				c.SetString(i, strconv.FormatFloat(v, 'g', -1, 64))
			}
		}
		return c
	}
	if c.kind == Int {
		for i := range c.valid {
			if !c.valid[i] {
				c.SetInt(i, int64(v))
			}
		}
		return c
	}
	if c.kind == Bool {
		for i := range c.valid {
			if !c.valid[i] {
				c.SetBool(i, v != 0)
			}
		}
		return c
	}
	for i := range c.valid {
		if !c.valid[i] {
			c.SetFloat(i, v)
		}
	}
	return c
}

// FillNAString returns a series with nulls replaced by v (string series
// only; for non-string series the value is parsed where possible). A series
// with no nulls is returned as-is, like FillNAFloat.
func (s *Series) FillNAString(v string) *Series {
	if !s.hasNulls() {
		return s
	}
	c := s.Clone()
	switch c.kind {
	case String:
		for i := range c.valid {
			if !c.valid[i] {
				c.SetString(i, v)
			}
		}
	default:
		if f, err := strconv.ParseFloat(v, 64); err == nil {
			return s.FillNAFloat(f)
		}
	}
	return c
}

// Lower returns a copy with string values lower-cased.
func (s *Series) Lower() *Series {
	c := s.Clone()
	if c.kind != String {
		return c
	}
	for i := range c.ss {
		if c.valid[i] {
			c.ss[i] = strings.ToLower(c.ss[i])
		}
	}
	return c
}

// Upper returns a copy with string values upper-cased.
func (s *Series) Upper() *Series {
	c := s.Clone()
	if c.kind != String {
		return c
	}
	for i := range c.ss {
		if c.valid[i] {
			c.ss[i] = strings.ToUpper(c.ss[i])
		}
	}
	return c
}

// Strip returns a copy with surrounding whitespace removed from string values.
func (s *Series) Strip() *Series {
	c := s.Clone()
	if c.kind != String {
		return c
	}
	for i := range c.ss {
		if c.valid[i] {
			c.ss[i] = strings.TrimSpace(c.ss[i])
		}
	}
	return c
}

// ReplaceString returns a copy with all occurrences of old replaced by new
// in string values.
func (s *Series) ReplaceString(old, new string) *Series {
	c := s.Clone()
	if c.kind != String {
		return c
	}
	for i := range c.ss {
		if c.valid[i] {
			c.ss[i] = strings.ReplaceAll(c.ss[i], old, new)
		}
	}
	return c
}

// MapValues returns a copy where values found in m (by string rendering)
// are replaced by the mapped value; unmapped values are kept.
func (s *Series) MapValues(m map[string]string) *Series {
	out := NewStringSeries(s.name, make([]string, s.Len()))
	anyNull := false
	for i := 0; i < s.Len(); i++ {
		if !s.valid[i] {
			out.SetNull(i)
			anyNull = true
			continue
		}
		v := s.StringAt(i)
		if nv, ok := m[v]; ok {
			out.SetString(i, nv)
		} else {
			out.SetString(i, v)
		}
	}
	_ = anyNull
	return out.inferKind()
}

// inferKind attempts to downcast a string series to numeric when every
// non-null value parses as a number.
func (s *Series) inferKind() *Series {
	if s.kind != String {
		return s
	}
	allNum, any := true, false
	allInt := true
	for i := 0; i < s.Len(); i++ {
		if !s.valid[i] {
			continue
		}
		any = true
		v := strings.TrimSpace(s.ss[i])
		if _, err := strconv.ParseInt(v, 10, 64); err != nil {
			allInt = false
		}
		if _, err := strconv.ParseFloat(v, 64); err != nil {
			allNum = false
			break
		}
	}
	if !any || !allNum {
		return s
	}
	if allInt && s.NullCount() == 0 {
		vals := make([]int64, s.Len())
		for i := range vals {
			vals[i], _ = strconv.ParseInt(strings.TrimSpace(s.ss[i]), 10, 64)
		}
		return NewIntSeries(s.name, vals)
	}
	vals := make([]float64, s.Len())
	for i := range vals {
		if !s.valid[i] {
			vals[i] = math.NaN()
			continue
		}
		vals[i], _ = strconv.ParseFloat(strings.TrimSpace(s.ss[i]), 64)
	}
	return NewFloatSeries(s.name, vals)
}

// AsType converts the series to the requested kind, best-effort.
// Unconvertible values become null. The result is always freshly allocated
// — callers may mutate it — with the identity conversion reduced to a bulk
// Clone and the numeric conversions running as kind-specialized loops over
// the backing slices instead of per-row kind dispatch.
func (s *Series) AsType(kind Kind) *Series {
	if kind == s.kind {
		return s.Clone()
	}
	switch kind {
	case Float:
		vals := make([]float64, s.Len())
		switch s.kind {
		case Int:
			for i, v := range s.is {
				if s.valid[i] {
					vals[i] = float64(v)
				} else {
					vals[i] = math.NaN()
				}
			}
		case Bool:
			for i, v := range s.bs {
				switch {
				case !s.valid[i]:
					vals[i] = math.NaN()
				case v:
					vals[i] = 1
				}
			}
		default:
			for i := range vals {
				vals[i] = s.Float(i)
			}
		}
		return NewFloatSeries(s.name, vals)
	case Int:
		out := NewEmptySeries(s.name, Int, s.Len())
		for i := 0; i < s.Len(); i++ {
			v := s.Float(i)
			if math.IsNaN(v) {
				continue
			}
			out.SetInt(i, int64(v))
		}
		return out
	case String:
		out := NewEmptySeries(s.name, String, s.Len())
		for i := 0; i < s.Len(); i++ {
			if s.valid[i] {
				out.SetString(i, s.StringAt(i))
			}
		}
		return out
	case Bool:
		out := NewEmptySeries(s.name, Bool, s.Len())
		for i := 0; i < s.Len(); i++ {
			if s.valid[i] {
				out.SetBool(i, s.BoolAt(i))
			}
		}
		return out
	}
	return s.Clone()
}

// gatherSlice copies src[idx[j]] into position j of a fresh slice. Index
// runs that are contiguous in the source (the common case for filter masks,
// head, and sorted sample positions) are bulk-copied with copy instead of
// element-by-element.
func gatherSlice[T any](src []T, idx []int) []T {
	out := make([]T, len(idx))
	for j := 0; j < len(idx); {
		k := j + 1
		for k < len(idx) && idx[k] == idx[k-1]+1 {
			k++
		}
		copy(out[j:k], src[idx[j]:idx[j]+(k-j)])
		j = k
	}
	return out
}

// Gather returns a new series holding the rows at the given indices. The
// inner loop is kind-specialized: exactly one backing slice is gathered,
// with contiguous index runs bulk-copied. Cell payloads at null positions
// are copied verbatim rather than zeroed — reads go through the validity
// slice, so the payload of a null cell is never observable.
func (s *Series) Gather(idx []int) *Series {
	out := &Series{name: s.name, kind: s.kind, valid: gatherSlice(s.valid, idx)}
	switch s.kind {
	case Float:
		out.fs = gatherSlice(s.fs, idx)
	case Int:
		out.is = gatherSlice(s.is, idx)
	case String:
		out.ss = gatherSlice(s.ss, idx)
	case Bool:
		out.bs = gatherSlice(s.bs, idx)
	}
	return out
}
