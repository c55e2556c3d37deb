package interp

import (
	"fmt"
	"math"
	"sort"

	"lucidscript/internal/frame"
	"lucidscript/internal/script"
)

// call carries the evaluated arguments of one invocation.
type call struct {
	args   []Value
	kwargs map[string]Value
}

func (c *call) arg(i int) (Value, bool) {
	if i < len(c.args) {
		return c.args[i], true
	}
	return nil, false
}

func (c *call) kwarg(name string) (Value, bool) {
	v, ok := c.kwargs[name]
	return v, ok
}

func (c *call) floatArg(i int) (float64, error) {
	v, ok := c.arg(i)
	if !ok {
		return 0, fmt.Errorf("missing argument %d", i)
	}
	f, ok := v.(float64)
	if !ok {
		return 0, fmt.Errorf("argument %d must be a number, got %s", i, typeName(v))
	}
	return f, nil
}

func (c *call) stringArg(i int) (string, error) {
	v, ok := c.arg(i)
	if !ok {
		return "", fmt.Errorf("missing argument %d", i)
	}
	s, ok := v.(string)
	if !ok {
		return "", fmt.Errorf("argument %d must be a string, got %s", i, typeName(v))
	}
	return s, nil
}

// evalCall dispatches the call, then runs the materialized result through
// the resource governor: method calls are where frames blow up (get_dummies
// column explosions, merges, concats), so every call result is budgeted
// even in expression position.
func (e *Env) evalCall(x *script.CallExpr) (Value, error) {
	v, err := e.evalCallDispatch(x)
	if err != nil {
		return nil, err
	}
	if e.limits != nil {
		if err := e.checkValue(v); err != nil {
			return nil, err
		}
	}
	return v, nil
}

func (e *Env) evalCallDispatch(x *script.CallExpr) (Value, error) {
	fnV, err := e.eval(x.Fn)
	if err != nil {
		return nil, err
	}
	bm, ok := fnV.(boundMethod)
	if !ok {
		return nil, fmt.Errorf("%s is not callable", typeName(fnV))
	}
	c := &call{kwargs: map[string]Value{}}
	for _, a := range x.Args {
		v, err := e.eval(a)
		if err != nil {
			return nil, err
		}
		c.args = append(c.args, v)
	}
	for _, k := range x.Kwargs {
		v, err := e.eval(k.Value)
		if err != nil {
			return nil, err
		}
		c.kwargs[k.Name] = v
	}
	switch recv := bm.recv.(type) {
	case moduleVal:
		return e.callModule(recv, bm.name, c)
	case *DF:
		return e.callDF(recv, bm.name, c)
	case *frame.Series:
		return e.callSeries(recv, bm.name, c)
	case strVal:
		return e.callStr(recv, bm.name, c)
	case groupColVal:
		return e.callGroupCol(recv, bm.name, c)
	default:
		return nil, fmt.Errorf("%s has no method %q", typeName(bm.recv), bm.name)
	}
}

func (e *Env) callModule(m moduleVal, name string, c *call) (Value, error) {
	switch m.name {
	case "pandas":
		return e.callPandas(name, c)
	case "numpy":
		return e.callNumpy(name, c)
	default:
		return nil, fmt.Errorf("module %q has no callable %q", m.name, name)
	}
}

func (e *Env) callPandas(name string, c *call) (Value, error) {
	switch name {
	case "read_csv":
		path, err := c.stringArg(0)
		if err != nil {
			return nil, err
		}
		f, ok := e.sources[path]
		if !ok {
			// Fall back to the base name so "/data/titanic/train.csv" and
			// "train.csv" resolve to the same source.
			base := path
			for i := len(path) - 1; i >= 0; i-- {
				if path[i] == '/' {
					base = path[i+1:]
					break
				}
			}
			f, ok = e.sources[base]
			if !ok {
				return nil, fmt.Errorf("no such data file %q", path)
			}
		}
		return NewDF(f.Clone()), nil
	case "get_dummies":
		v, ok := c.arg(0)
		if !ok {
			return nil, fmt.Errorf("get_dummies needs a DataFrame")
		}
		df, ok := v.(*DF)
		if !ok {
			return nil, fmt.Errorf("get_dummies needs a DataFrame, got %s", typeName(v))
		}
		// Index slices follow the same functional discipline as frames
		// (never written in place), so row-preserving ops share them.
		return &DF{F: df.F.GetDummies(), Index: df.Index}, nil
	case "to_datetime":
		v, ok := c.arg(0)
		if !ok {
			return nil, fmt.Errorf("to_datetime needs a Series")
		}
		sv, ok := v.(*frame.Series)
		if !ok {
			return nil, fmt.Errorf("to_datetime needs a Series, got %s", typeName(v))
		}
		return toDatetime(sv), nil
	case "to_numeric":
		v, ok := c.arg(0)
		if !ok {
			return nil, fmt.Errorf("to_numeric needs a Series")
		}
		s, ok := v.(*frame.Series)
		if !ok {
			return nil, fmt.Errorf("to_numeric needs a Series, got %s", typeName(v))
		}
		return s.AsType(frame.Float), nil
	case "merge":
		lv, ok := c.arg(0)
		if !ok {
			return nil, fmt.Errorf("pd.merge needs two DataFrames")
		}
		rv, ok := c.arg(1)
		if !ok {
			return nil, fmt.Errorf("pd.merge needs two DataFrames")
		}
		ldf, lok := lv.(*DF)
		rdf, rok := rv.(*DF)
		if !lok || !rok {
			return nil, fmt.Errorf("pd.merge needs DataFrames, got %s and %s", typeName(lv), typeName(rv))
		}
		return e.mergeFrames(ldf, rdf, c)
	case "concat":
		v, ok := c.arg(0)
		if !ok {
			return nil, fmt.Errorf("pd.concat needs a list of DataFrames")
		}
		lst, ok := v.(listVal)
		if !ok {
			return nil, fmt.Errorf("pd.concat needs a list, got %s", typeName(v))
		}
		var frames []*frame.Frame
		for _, el := range lst.elems {
			df, ok := el.(*DF)
			if !ok {
				return nil, fmt.Errorf("pd.concat list must contain DataFrames")
			}
			frames = append(frames, df.F)
		}
		out, err := frame.Concat(frames...)
		if err != nil {
			return nil, err
		}
		return NewDF(out), nil
	case "cut", "qcut":
		v, ok := c.arg(0)
		if !ok {
			return nil, fmt.Errorf("%s needs a Series", name)
		}
		s, ok := v.(*frame.Series)
		if !ok {
			return nil, fmt.Errorf("%s needs a Series, got %s", name, typeName(v))
		}
		bins, err := c.floatArg(1)
		if err != nil {
			return nil, err
		}
		if bins < 1 {
			return nil, fmt.Errorf("%s needs at least one bin", name)
		}
		if name == "cut" {
			return binEqualWidth(s, int(bins)), nil
		}
		return binEqualFreq(s, int(bins)), nil
	default:
		return nil, fmt.Errorf("pandas has no callable %q", name)
	}
}

func binEqualWidth(s *frame.Series, bins int) *frame.Series {
	lo, hi := s.Min(), s.Max()
	out := frame.NewEmptySeries(s.Name(), frame.String, s.Len())
	if math.IsNaN(lo) || lo == hi {
		for i := 0; i < s.Len(); i++ {
			if s.IsValid(i) {
				out.SetString(i, "bin0")
			}
		}
		return out
	}
	width := (hi - lo) / float64(bins)
	for i := 0; i < s.Len(); i++ {
		if !s.IsValid(i) {
			continue
		}
		v := s.Float(i)
		if math.IsNaN(v) {
			continue
		}
		b := int((v - lo) / width)
		if b >= bins {
			b = bins - 1
		}
		out.SetString(i, fmt.Sprintf("bin%d", b))
	}
	return out
}

func binEqualFreq(s *frame.Series, bins int) *frame.Series {
	// Rank-based quantile binning.
	var ps []rankPair
	for i := 0; i < s.Len(); i++ {
		if s.IsValid(i) {
			v := s.Float(i)
			if !math.IsNaN(v) {
				ps = append(ps, rankPair{i, v})
			}
		}
	}
	out := frame.NewEmptySeries(s.Name(), frame.String, s.Len())
	if len(ps) == 0 {
		return out
	}
	sortPairs(ps)
	per := (len(ps) + bins - 1) / bins
	for rank, p := range ps {
		b := rank / per
		if b >= bins {
			b = bins - 1
		}
		out.SetString(p.pos, fmt.Sprintf("q%d", b))
	}
	return out
}

type rankPair struct {
	pos int
	v   float64
}

// sortPairs orders ps by value; ties keep their row order, which fixes
// which bin a run of equal values straddling a boundary lands in.
func sortPairs(ps []rankPair) {
	sort.SliceStable(ps, func(i, j int) bool { return ps[i].v < ps[j].v })
}

func (e *Env) callNumpy(name string, c *call) (Value, error) {
	switch name {
	case "log1p", "log", "sqrt", "abs", "exp":
		v, ok := c.arg(0)
		if !ok {
			return nil, fmt.Errorf("np.%s needs an argument", name)
		}
		switch a := v.(type) {
		case *frame.Series:
			return applyElementwise(a, name)
		case float64:
			return applyScalar(a, name)
		}
		return nil, fmt.Errorf("np.%s needs a Series or number, got %s", name, typeName(v))
	case "where":
		mv, ok := c.arg(0)
		if !ok {
			return nil, fmt.Errorf("np.where needs (mask, a, b)")
		}
		m, ok := mv.(frame.Mask)
		if !ok {
			return nil, fmt.Errorf("np.where condition must be a mask, got %s", typeName(mv))
		}
		av, aok := c.arg(1)
		bv, bok := c.arg(2)
		if !aok || !bok {
			return nil, fmt.Errorf("np.where needs (mask, a, b)")
		}
		return whereSelect(m, av, bv)
	default:
		return nil, fmt.Errorf("numpy has no callable %q", name)
	}
}

func applyScalar(v float64, fn string) (Value, error) {
	switch fn {
	case "log1p":
		return math.Log1p(v), nil
	case "log":
		return math.Log(v), nil
	case "sqrt":
		return math.Sqrt(v), nil
	case "abs":
		return math.Abs(v), nil
	case "exp":
		return math.Exp(v), nil
	}
	return nil, fmt.Errorf("unknown function %q", fn)
}

func applyElementwise(s *frame.Series, fn string) (Value, error) {
	out := make([]float64, s.Len())
	for i := range out {
		v := s.Float(i)
		if math.IsNaN(v) {
			out[i] = math.NaN()
			continue
		}
		r, err := applyScalar(v, fn)
		if err != nil {
			return nil, err
		}
		out[i] = r.(float64)
	}
	return frame.NewFloatSeries(s.Name(), out), nil
}

func whereSelect(m frame.Mask, a, b Value) (Value, error) {
	switch av := a.(type) {
	case float64:
		switch bv := b.(type) {
		case float64:
			out := make([]float64, len(m))
			for i, keep := range m {
				if keep {
					out[i] = av
				} else {
					out[i] = bv
				}
			}
			return frame.NewFloatSeries("where", out), nil
		case *frame.Series:
			if bv.Len() != len(m) {
				return nil, fmt.Errorf("np.where length mismatch")
			}
			out := bv.AsType(frame.Float)
			for i, keep := range m {
				if keep {
					out.SetFloat(i, av)
				}
			}
			return out, nil
		}
		return nil, fmt.Errorf("np.where branches must share a type")
	case string:
		bs, ok := b.(string)
		if !ok {
			return nil, fmt.Errorf("np.where branches must share a type")
		}
		out := make([]string, len(m))
		for i, keep := range m {
			if keep {
				out[i] = av
			} else {
				out[i] = bs
			}
		}
		return frame.NewStringSeries("where", out), nil
	case *frame.Series:
		out := av.Clone()
		switch bv := b.(type) {
		case *frame.Series:
			if bv.Len() != len(m) || av.Len() != len(m) {
				return nil, fmt.Errorf("np.where length mismatch")
			}
			for i, keep := range m {
				if !keep {
					if bv.IsValid(i) {
						if out.Kind() == frame.Float {
							out.SetFloat(i, bv.Float(i))
						} else if out.Kind() == frame.String {
							out.SetString(i, bv.StringAt(i))
						}
					} else {
						out.SetNull(i)
					}
				}
			}
			return out, nil
		case float64:
			conv := out.AsType(frame.Float)
			for i, keep := range m {
				if !keep {
					conv.SetFloat(i, bv)
				}
			}
			return conv, nil
		}
	}
	return nil, fmt.Errorf("np.where arguments not supported")
}

func (e *Env) callDF(df *DF, name string, c *call) (Value, error) {
	switch name {
	case "fillna":
		return e.dfFillna(df, c)
	case "dropna":
		m := make(frame.Mask, df.F.NumRows())
		for i := range m {
			m[i] = true
			for j := 0; j < df.F.NumCols(); j++ {
				if !df.F.ColumnAt(j).IsValid(i) {
					m[i] = false
					break
				}
			}
		}
		return df.filter(m)
	case "drop":
		return e.dfDrop(df, c)
	case "sample":
		rows := df.F.NumRows()
		n := 1.0
		if v, ok := c.arg(0); ok {
			f, ok := v.(float64)
			if !ok {
				return nil, fmt.Errorf("sample needs a number, got %s", typeName(v))
			}
			n = f
		} else if v, ok := c.kwarg("n"); ok {
			if f, ok := v.(float64); ok {
				n = f
			}
		} else if v, ok := c.kwarg("frac"); ok {
			f, ok := v.(float64)
			if !ok || f < 0 || f > 1 {
				return nil, fmt.Errorf("sample frac must be in [0,1]")
			}
			n = f * float64(rows)
		}
		k := int(n)
		if k > rows {
			k = rows
		}
		if k < 0 {
			// pandas raises on negative n; clamping to the empty sample keeps
			// generated candidates executable instead of panicking on perm[:k].
			k = 0
		}
		perm := e.rng.Perm(rows)
		pos := append([]int(nil), perm[:k]...)
		sortInts(pos)
		return df.take(pos)
	case "head":
		n := 5.0
		if v, ok := c.arg(0); ok {
			if f, ok := v.(float64); ok {
				n = f
			}
		}
		k := int(n)
		if k > df.F.NumRows() {
			k = df.F.NumRows()
		}
		if k < 0 {
			// head(-n) in pandas drops the last n rows; the subset semantics
			// here clamp to empty rather than panic on a negative make().
			k = 0
		}
		pos := make([]int, k)
		for i := range pos {
			pos[i] = i
		}
		return df.take(pos)
	case "sort_values":
		col, err := c.stringArg(0)
		if err != nil {
			if v, ok := c.kwarg("by"); ok {
				if s, ok := v.(string); ok {
					col = s
					err = nil
				}
			}
			if err != nil {
				return nil, err
			}
		}
		asc := true
		if v, ok := c.kwarg("ascending"); ok {
			if b, ok := v.(bool); ok {
				asc = b
			}
		}
		colS, err := df.F.Column(col)
		if err != nil {
			return nil, err
		}
		pos := sortPositions(colS, asc)
		return df.take(pos)
	case "groupby":
		key, err := c.stringArg(0)
		if err != nil {
			return nil, err
		}
		if !df.F.HasColumn(key) {
			return nil, fmt.Errorf("groupby: no column %q", key)
		}
		return groupVal{df: df, key: key}, nil
	case "copy":
		return df.Clone(), nil
	case "describe":
		return NewDF(df.F.Describe()), nil
	case "merge":
		v, ok := c.arg(0)
		if !ok {
			return nil, fmt.Errorf("merge needs a DataFrame")
		}
		other, ok := v.(*DF)
		if !ok {
			return nil, fmt.Errorf("merge needs a DataFrame, got %s", typeName(v))
		}
		return e.mergeFrames(df, other, c)
	case "reset_index":
		return NewDF(df.F.Clone()), nil
	case "rename":
		v, ok := c.kwarg("columns")
		if !ok {
			return nil, fmt.Errorf("rename needs columns={...}")
		}
		d, ok := v.(dictVal)
		if !ok {
			return nil, fmt.Errorf("rename columns must be a dict")
		}
		out := df.F
		for _, old := range sortedKeys(d.m) {
			renamed, err := out.RenameColumn(old, d.m[old])
			if err != nil {
				return nil, err
			}
			out = renamed
		}
		return &DF{F: out, Index: df.Index}, nil
	case "mean":
		return statVal{stat: frame.FillMean}, nil
	case "median":
		return statVal{stat: frame.FillMedian}, nil
	case "mode":
		return statVal{stat: frame.FillMode}, nil
	case "duplicated":
		seen := map[string]bool{}
		m := make(frame.Mask, df.F.NumRows())
		for i, key := range df.F.RowStrings() {
			if seen[key] {
				m[i] = true
			}
			seen[key] = true
		}
		return m, nil
	case "drop_duplicates":
		seen := map[string]bool{}
		var pos []int
		for i, key := range df.F.RowStrings() {
			if !seen[key] {
				pos = append(pos, i)
			}
			seen[key] = true
		}
		return df.take(pos)
	default:
		return nil, fmt.Errorf("DataFrame has no method %q", name)
	}
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

func sortPositions(s *frame.Series, asc bool) []int {
	pos := make([]int, s.Len())
	for i := range pos {
		pos[i] = i
	}
	numeric := s.IsNumeric() || s.Kind() == frame.Bool
	less := func(a, b int) bool {
		av, bv := s.IsValid(a), s.IsValid(b)
		if av != bv {
			return av
		}
		if !av {
			return false
		}
		var l bool
		if numeric {
			l = s.Float(a) < s.Float(b)
		} else {
			l = s.StringAt(a) < s.StringAt(b)
		}
		if asc {
			return l
		}
		var g bool
		if numeric {
			g = s.Float(a) > s.Float(b)
		} else {
			g = s.StringAt(a) > s.StringAt(b)
		}
		return g
	}
	// Stable insertion sort (corpus frames are small at check time).
	for i := 1; i < len(pos); i++ {
		for j := i; j > 0 && less(pos[j], pos[j-1]); j-- {
			pos[j], pos[j-1] = pos[j-1], pos[j]
		}
	}
	return pos
}

func (e *Env) dfFillna(df *DF, c *call) (Value, error) {
	v, ok := c.arg(0)
	if !ok {
		return nil, fmt.Errorf("fillna needs an argument")
	}
	out := df.F
	switch a := v.(type) {
	case statVal:
		out = out.FillNA(a.stat)
	case float64:
		out = out.Clone()
		for i := 0; i < out.NumCols(); i++ {
			col := out.ColumnAt(i)
			if col.IsNumeric() || col.Kind() == frame.Bool {
				_ = out.SetColumn(col.FillNAFloat(a))
			}
		}
	case string:
		out = out.Clone()
		for i := 0; i < out.NumCols(); i++ {
			col := out.ColumnAt(i)
			if col.Kind() == frame.String {
				_ = out.SetColumn(col.FillNAString(a))
			}
		}
	default:
		return nil, fmt.Errorf("fillna argument must be a statistic or scalar, got %s", typeName(v))
	}
	return &DF{F: out, Index: df.Index}, nil
}

func (e *Env) dfDrop(df *DF, c *call) (Value, error) {
	v, ok := c.arg(0)
	if !ok {
		if kv, kok := c.kwarg("columns"); kok {
			v = kv
		} else {
			return nil, fmt.Errorf("drop needs columns")
		}
	} else {
		ax, axOK := c.kwarg("axis")
		if !axOK {
			return nil, fmt.Errorf("drop requires axis=1 for column drops")
		}
		if f, ok := ax.(float64); !ok || f != 1 {
			return nil, fmt.Errorf("only axis=1 drops are supported")
		}
	}
	var names []string
	switch a := v.(type) {
	case string:
		names = []string{a}
	case listVal:
		for _, el := range a.elems {
			s, ok := el.(string)
			if !ok {
				return nil, fmt.Errorf("drop list must contain strings")
			}
			names = append(names, s)
		}
	default:
		return nil, fmt.Errorf("drop needs a column name or list, got %s", typeName(v))
	}
	out, err := df.F.Drop(names...)
	if err != nil {
		return nil, err
	}
	return &DF{F: out, Index: df.Index}, nil
}

// mergeFrames implements df.merge(other, on=..., how=...) and
// pd.merge(a, b, on=..., how=...). The `on` key is required; `how`
// defaults to inner.
func (e *Env) mergeFrames(left, right *DF, c *call) (Value, error) {
	onV, ok := c.kwarg("on")
	if !ok {
		// pd.merge(a, b, "key") positional form: the key is the argument
		// after the two frames (or after the one frame for the method form).
		for _, i := range []int{2, 1} {
			if v, has := c.arg(i); has {
				if s, isStr := v.(string); isStr {
					onV, ok = s, true
					break
				}
			}
		}
		if !ok {
			return nil, fmt.Errorf("merge requires on=\"column\"")
		}
	}
	on, ok := onV.(string)
	if !ok {
		return nil, fmt.Errorf("merge on= must be a string, got %s", typeName(onV))
	}
	kind := frame.InnerJoin
	if hv, has := c.kwarg("how"); has {
		how, isStr := hv.(string)
		if !isStr {
			return nil, fmt.Errorf("merge how= must be a string")
		}
		switch how {
		case "inner":
			kind = frame.InnerJoin
		case "left":
			kind = frame.LeftJoin
		default:
			return nil, fmt.Errorf("merge how=%q not supported (inner, left)", how)
		}
	}
	out, err := frame.Merge(left.F, right.F, on, kind)
	if err != nil {
		return nil, err
	}
	return NewDF(out), nil
}

func (e *Env) callSeries(s *frame.Series, name string, c *call) (Value, error) {
	switch name {
	case "fillna":
		v, ok := c.arg(0)
		if !ok {
			return nil, fmt.Errorf("fillna needs an argument")
		}
		switch a := v.(type) {
		case float64:
			return s.FillNAFloat(a), nil
		case string:
			return s.FillNAString(a), nil
		default:
			return nil, fmt.Errorf("fillna argument must be a scalar, got %s", typeName(v))
		}
	case "mean":
		return s.Mean(), nil
	case "median":
		return s.Median(), nil
	case "std":
		return s.Std(), nil
	case "min":
		return s.Min(), nil
	case "max":
		return s.Max(), nil
	case "sum":
		return s.Sum(), nil
	case "count":
		return float64(s.Len() - s.NullCount()), nil
	case "mode":
		m, ok := s.Mode()
		if !ok {
			return nil, fmt.Errorf("mode of an all-null series")
		}
		if s.IsNumeric() {
			var f float64
			if _, err := fmt.Sscanf(m, "%g", &f); err == nil {
				return f, nil
			}
		}
		return m, nil
	case "between":
		lo, err := c.floatArg(0)
		if err != nil {
			return nil, err
		}
		hi, err := c.floatArg(1)
		if err != nil {
			return nil, err
		}
		return s.Between(lo, hi), nil
	case "map", "replace":
		v, ok := c.arg(0)
		if !ok {
			return nil, fmt.Errorf("%s needs a dict", name)
		}
		d, ok := v.(dictVal)
		if !ok {
			return nil, fmt.Errorf("%s needs a dict, got %s", name, typeName(v))
		}
		return s.MapValues(d.m), nil
	case "astype":
		t, err := c.stringArg(0)
		if err != nil {
			return nil, err
		}
		switch t {
		case "int", "int64", "int32":
			return s.AsType(frame.Int), nil
		case "float", "float64", "float32":
			return s.AsType(frame.Float), nil
		case "str", "object", "string", "category":
			return s.AsType(frame.String), nil
		case "bool":
			return s.AsType(frame.Bool), nil
		default:
			return nil, fmt.Errorf("astype: unsupported type %q", t)
		}
	case "isnull", "isna":
		return s.IsNull(), nil
	case "notnull", "notna":
		return s.NotNull(), nil
	case "isin":
		v, ok := c.arg(0)
		if !ok {
			return nil, fmt.Errorf("isin needs a list")
		}
		lv, ok := v.(listVal)
		if !ok {
			return nil, fmt.Errorf("isin needs a list, got %s", typeName(v))
		}
		vals := make([]string, len(lv.elems))
		for i, el := range lv.elems {
			vals[i] = scalarString(el)
		}
		return s.IsIn(vals), nil
	case "clip":
		lo, err := c.floatArg(0)
		if err != nil {
			return nil, err
		}
		hi, err := c.floatArg(1)
		if err != nil {
			return nil, err
		}
		return s.Clip(lo, hi), nil
	case "round":
		return s.Round(), nil
	case "abs":
		return s.Abs(), nil
	case "nunique":
		return float64(len(s.Unique())), nil
	default:
		return nil, fmt.Errorf("Series has no method %q", name)
	}
}

func (e *Env) callStr(sv strVal, name string, c *call) (Value, error) {
	if sv.s.Kind() != frame.String {
		return nil, fmt.Errorf(".str accessor on non-string series %q", sv.s.Name())
	}
	switch name {
	case "lower":
		return sv.s.Lower(), nil
	case "upper":
		return sv.s.Upper(), nil
	case "strip":
		return sv.s.Strip(), nil
	case "replace":
		old, err := c.stringArg(0)
		if err != nil {
			return nil, err
		}
		nw, err := c.stringArg(1)
		if err != nil {
			return nil, err
		}
		return sv.s.ReplaceString(old, nw), nil
	case "contains":
		sub, err := c.stringArg(0)
		if err != nil {
			return nil, err
		}
		m := make(frame.Mask, sv.s.Len())
		for i := 0; i < sv.s.Len(); i++ {
			if sv.s.IsValid(i) && containsStr(sv.s.StringAt(i), sub) {
				m[i] = true
			}
		}
		return m, nil
	case "len":
		out := make([]float64, sv.s.Len())
		for i := range out {
			if sv.s.IsValid(i) {
				out[i] = float64(len(sv.s.StringAt(i)))
			} else {
				out[i] = math.NaN()
			}
		}
		return frame.NewFloatSeries(sv.s.Name(), out), nil
	default:
		return nil, fmt.Errorf(".str has no method %q", name)
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func (e *Env) callGroupCol(g groupColVal, name string, c *call) (Value, error) {
	var agg frame.GroupAgg
	switch name {
	case "mean":
		agg = frame.AggMean
	case "sum":
		agg = frame.AggSum
	case "count":
		agg = frame.AggCount
	default:
		return nil, fmt.Errorf("groupby aggregate %q not supported", name)
	}
	out, err := g.df.F.GroupBy(g.key, g.col, agg)
	if err != nil {
		return nil, err
	}
	return NewDF(out), nil
}
