package core

import (
	"math"
	"runtime"
	"sort"
	"testing"

	"lucidscript/internal/corpusgen"
	"lucidscript/internal/dag"
	"lucidscript/internal/entropy"
)

// clusterStepsOracle is clusterSteps the direct way: it rebuilds the
// dimension map from the sorted corpus edge keys and embeds each step by
// its rendered edge keys.
func clusterStepsOracle(c *candidate, steps []Transformation, m int, v *entropy.Vocab) [][]Transformation {
	if m <= 1 || len(steps) <= m {
		out := make([][]Transformation, 0, len(steps))
		for _, s := range steps {
			out = append(out, []Transformation{s})
		}
		return out
	}
	dim := map[string]int{}
	keys := make([]string, 0, len(v.EdgeCounts))
	for k := range v.EdgeCounts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i, k := range keys {
		dim[k] = i
	}
	vecs := make([][]float64, len(steps))
	for i, tr := range steps {
		vec := make([]float64, len(dim))
		total := 0.0
		for _, k := range dag.EdgeKeysOf(transformed(c.lines, tr)) {
			if j, ok := dim[k]; ok {
				vec[j]++
				total++
			}
		}
		if total > 0 {
			for j := range vec {
				vec[j] /= total
			}
		}
		vecs[i] = vec
	}
	assign := kmeans(vecs, m, 12)
	out := make([][]Transformation, m)
	for i, a := range assign {
		out[a] = append(out[a], steps[i])
	}
	res := out[:0]
	for _, cl := range out {
		if len(cl) > 0 {
			res = append(res, cl)
		}
	}
	return res
}

// competitionVocab curates one competition's generated corpus and returns
// it with the corpus graphs.
func competitionVocab(t testing.TB, name string) (*entropy.Vocab, []*dag.Graph) {
	t.Helper()
	comp, err := corpusgen.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := comp.Generate(corpusgen.GenOptions{Seed: 1, RowScale: 0.001, MinRows: 10})
	if err != nil {
		t.Fatal(err)
	}
	var graphs []*dag.Graph
	for _, s := range gen.ScriptsOnly() {
		graphs = append(graphs, dag.Build(s))
	}
	return entropy.BuildVocab(graphs), graphs
}

// scaledVocab curates a GenerateScaled corpus of n scripts.
func scaledVocab(t testing.TB, name string, n int) *entropy.Vocab {
	t.Helper()
	comp, err := corpusgen.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	scripts, err := comp.GenerateScaled(corpusgen.ScaleConfig{Seed: 1, NumScripts: n})
	if err != nil {
		t.Fatal(err)
	}
	graphs := make([]*dag.Graph, len(scripts))
	for i, gs := range scripts {
		graphs[i] = dag.Build(gs.Script)
	}
	return entropy.BuildVocab(graphs)
}

func TestClusterStepsMatchesDimMapOracle(t *testing.T) {
	for _, name := range corpusgen.Names() {
		v, graphs := competitionVocab(t, name)
		for gi, g := range graphs {
			if gi%5 != 0 {
				continue
			}
			c := newCandidate(g.Lines, v)
			steps := limitSteps(getSteps(c, v), 20)
			for _, m := range []int{2, 3, 5} {
				got, want := clusterSteps(c, steps, m, v), clusterStepsOracle(c, steps, m, v)
				if len(got) != len(want) {
					t.Fatalf("%s script %d m=%d: %d clusters, oracle %d", name, gi, m, len(got), len(want))
				}
				for i := range want {
					if len(got[i]) != len(want[i]) {
						t.Fatalf("%s script %d m=%d cluster %d: %d steps, oracle %d", name, gi, m, i, len(got[i]), len(want[i]))
					}
					for j := range want[i] {
						a, b := got[i][j], want[i][j]
						if a.Type != b.Type || a.Pos != b.Pos || a.Atom.Key != b.Atom.Key ||
							math.Float64bits(a.RE) != math.Float64bits(b.RE) {
							t.Fatalf("%s script %d m=%d cluster %d step %d: %v, oracle %v", name, gi, m, i, j, a, b)
						}
					}
				}
			}
		}
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the average heap bytes
// allocated by one call of f, after a warm-up call.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// allocCost is the allocation count and volume of one call.
type allocCost struct {
	allocs float64
	bytes  uint64
}

func measureAllocs(f func()) allocCost {
	return allocCost{testing.AllocsPerRun(20, f), bytesPerRun(20, f)}
}

// TestRankingCostIndependentOfVocab pins that scoring and embedding one
// candidate allocate the same, in count and in bytes, on a one-competition
// vocabulary and on a 2,500-script one: ranking cost must follow the
// candidate, not the corpus. The dense vector edgeVector fills is the one
// corpus-sized object, and the caller owns it.
func TestRankingCostIndependentOfVocab(t *testing.T) {
	small, graphs := competitionVocab(t, "House")
	large := scaledVocab(t, "House", 2500)
	if large.NumUniqueEdges() <= small.NumUniqueEdges() {
		t.Fatalf("scaled vocab has %d edges, not more than %d", large.NumUniqueEdges(), small.NumUniqueEdges())
	}
	lines := graphs[0].Lines
	c := &candidate{lines: lines}
	tr := Transformation{Type: TransformDelete, Atom: lines[len(lines)-1], Pos: len(lines) - 1}
	var sink float64
	cost := func(v *entropy.Vocab) (re, vec allocCost) {
		buf := make([]float64, v.NumUniqueEdges())
		re = measureAllocs(func() { sink += v.RELines(lines) })
		vec = measureAllocs(func() {
			clear(buf)
			edgeVector(buf, c, tr, v)
		})
		return re, vec
	}
	smallRE, smallVec := cost(small)
	largeRE, largeVec := cost(large)
	if smallRE != largeRE {
		t.Errorf("RELines allocs: %+v on %d corpus edges, %+v on %d", smallRE, small.NumUniqueEdges(), largeRE, large.NumUniqueEdges())
	}
	if smallVec != largeVec {
		t.Errorf("edgeVector allocs: %+v on %d corpus edges, %+v on %d", smallVec, small.NumUniqueEdges(), largeVec, large.NumUniqueEdges())
	}
}

var stepsSink []Transformation

// BenchmarkGetSteps ranks one script's next transformations against a
// 2,500-script vocabulary.
func BenchmarkGetSteps(b *testing.B) {
	v := scaledVocab(b, "House", 2500)
	_, graphs := competitionVocab(b, "House")
	c := newCandidate(graphs[0].Lines, v)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stepsSink = getSteps(c, v)
	}
}
