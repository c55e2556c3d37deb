package frame

import (
	"math/rand"
	"reflect"
	"testing"
)

// insertionSortPositions is the reference for SortPositions: a stable
// insertion sort over the same ordering (numeric and bool as floats,
// strings bytewise, nulls last in either direction), written out
// comparison by comparison.
func insertionSortPositions(s *Series, asc bool) []int {
	pos := make([]int, s.Len())
	for i := range pos {
		pos[i] = i
	}
	numeric := s.IsNumeric() || s.Kind() == Bool
	less := func(a, b int) bool {
		av, bv := s.IsValid(a), s.IsValid(b)
		if av != bv {
			return av
		}
		if !av {
			return false
		}
		if numeric {
			if asc {
				return s.Float(a) < s.Float(b)
			}
			return s.Float(a) > s.Float(b)
		}
		if asc {
			return s.StringAt(a) < s.StringAt(b)
		}
		return s.StringAt(a) > s.StringAt(b)
	}
	for i := 1; i < len(pos); i++ {
		for j := i; j > 0 && less(pos[j], pos[j-1]); j-- {
			pos[j], pos[j-1] = pos[j-1], pos[j]
		}
	}
	return pos
}

// randomSeries returns a series of the given kind drawing from only a few
// distinct values (heavy ties), with roughly one null in five.
func randomSeries(rng *rand.Rand, kind Kind, n int) *Series {
	s := NewEmptySeries("c", kind, n)
	for i := 0; i < n; i++ {
		if rng.Intn(5) == 0 {
			continue
		}
		switch kind {
		case Float:
			s.SetFloat(i, float64(rng.Intn(7))-2.5)
		case Int:
			s.SetInt(i, int64(rng.Intn(7)-3))
		case String:
			s.SetString(i, []string{"", "a", "ab", "b", "B"}[rng.Intn(5)])
		case Bool:
			s.SetBool(i, rng.Intn(2) == 0)
		}
	}
	return s
}

func TestSortPositionsMatchesInsertionSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, kind := range []Kind{Float, Int, String, Bool} {
		for trial := 0; trial < 40; trial++ {
			n := trial
			if trial >= 20 {
				n = rng.Intn(300)
			}
			s := randomSeries(rng, kind, n)
			for _, asc := range []bool{true, false} {
				got, want := s.SortPositions(asc), insertionSortPositions(s, asc)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s n=%d asc=%v:\n got %v\nwant %v", kind, n, asc, got, want)
				}
			}
		}
	}
}

func TestCompleteRowsMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	if got := New().CompleteRows(); len(got) != 0 {
		t.Fatalf("empty frame: CompleteRows = %v", got)
	}
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(200)
		f := New()
		for j, kind := range []Kind{Float, Int, String, Bool}[:1+rng.Intn(4)] {
			c := randomSeries(rng, kind, n).Rename(string(rune('a' + j)))
			if err := f.AddColumn(c); err != nil {
				t.Fatal(err)
			}
		}
		want := []int{}
		for i := 0; i < n; i++ {
			complete := true
			for j := 0; j < f.NumCols(); j++ {
				complete = complete && f.ColumnAt(j).IsValid(i)
			}
			if complete {
				want = append(want, i)
			}
		}
		if got := f.CompleteRows(); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: CompleteRows = %v, want %v", trial, got, want)
		}
	}
}

func TestMaskPositionsMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		m := make(Mask, rng.Intn(200))
		want := []int{}
		for i := range m {
			m[i] = rng.Intn(3) == 0
			if m[i] {
				want = append(want, i)
			}
		}
		if got := m.Positions(); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Positions = %v, want %v", trial, got, want)
		}
	}
}
