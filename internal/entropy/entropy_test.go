package entropy

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"lucidscript/internal/corpusgen"
	"lucidscript/internal/dag"
	"lucidscript/internal/script"
)

// REFromEdges is the reference oracle for RELines: the smoothed relative
// entropy of a script given as rendered edge keys, computed the direct
// way, by materializing the union sample space and sorting rendered keys.
func (v *Vocab) REFromEdges(edgeKeys []string) float64 {
	p := map[string]int{}
	for _, k := range edgeKeys {
		p[k]++
	}
	space := make(map[string]bool, len(v.EdgeCounts)+len(p))
	for k := range v.EdgeCounts {
		space[k] = true
	}
	for k := range p {
		space[k] = true
	}
	qTotal := float64(v.TotalEdges) + Epsilon*float64(len(space))
	pTotal := float64(len(edgeKeys))
	if pTotal == 0 {
		n := float64(len(space))
		if n == 0 {
			return 0
		}
		keys := make([]string, 0, len(space))
		for k := range space {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		re := 0.0
		for _, k := range keys {
			px := 1.0 / n
			qx := (float64(v.EdgeCounts[k]) + Epsilon) / qTotal
			re += px * math.Log(px/qx)
		}
		return re
	}
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	re := 0.0
	for _, k := range keys {
		px := float64(p[k]) / pTotal
		qx := (float64(v.EdgeCounts[k]) + Epsilon) / qTotal
		re += px * math.Log(px/qx)
	}
	return re
}

// assertREMatchesOracle fails unless RELines equals the oracle bit for bit.
func assertREMatchesOracle(t *testing.T, v *Vocab, lines []dag.LineInfo, what string) {
	t.Helper()
	got, want := v.RELines(lines), v.REFromEdges(dag.EdgeKeysOf(lines))
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: RELines = %v (%#x), oracle %v (%#x)\nscript:\n%s", what,
			got, math.Float64bits(got), want, math.Float64bits(want), dag.ToScript(lines).Source())
	}
}

// mutate applies n seeded random deletes and adds (atoms drawn from pool)
// to a copy of lines.
func mutate(rng *rand.Rand, lines []dag.LineInfo, pool []dag.LineInfo, n int) []dag.LineInfo {
	out := append([]dag.LineInfo(nil), lines...)
	for i := 0; i < n; i++ {
		if len(out) > 0 && rng.Intn(2) == 0 {
			j := rng.Intn(len(out))
			out = append(out[:j], out[j+1:]...)
			continue
		}
		j := rng.Intn(len(out) + 1)
		out = append(out[:j], append([]dag.LineInfo{pool[rng.Intn(len(pool))]}, out[j:]...)...)
	}
	return out
}

// arrowAtoms are statements whose source contains the edge-key separator,
// so rendered keys order differently from (From, To) tuples.
func arrowAtoms(t *testing.T) []dag.LineInfo {
	t.Helper()
	var out []dag.LineInfo
	for _, src := range []string{
		"df['a -> b'] = 1",
		"df['a'] = 1",
		"df['a -> b'] = df['a'] + 1",
		"df['a'] = df['a -> b'] * 2",
		"df = df.drop(columns=['a -> b'])",
	} {
		st, err := script.ParseStmt(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		out = append(out, dag.NewLineInfo(st))
	}
	return out
}

func TestRELinesMatchesOracleOnCompetitionCorpora(t *testing.T) {
	arrows := arrowAtoms(t)
	rng := rand.New(rand.NewSource(1))
	for _, comp := range corpusgen.All() {
		gen, err := comp.Generate(corpusgen.GenOptions{Seed: 1, RowScale: 0.001, MinRows: 10})
		if err != nil {
			t.Fatal(err)
		}
		var graphs []*dag.Graph
		pool := append([]dag.LineInfo(nil), arrows...)
		for _, s := range gen.ScriptsOnly() {
			g := dag.Build(s)
			graphs = append(graphs, g)
			pool = append(pool, g.Lines...)
		}
		// Two corpus scripts carry the arrow atoms, so some of their
		// edges are corpus edges and others are not.
		for i := 0; i < 2; i++ {
			lines := mutate(rng, graphs[i].Lines, arrows, 4)
			graphs = append(graphs, &dag.Graph{Lines: lines, Edges: dag.EdgesOf(lines)})
		}
		v := BuildVocab(graphs)
		assertREMatchesOracle(t, v, nil, comp.Name+" empty script")
		for i, g := range graphs {
			assertREMatchesOracle(t, v, g.Lines, comp.Name+" corpus script")
			for m := 1; m <= 3; m++ {
				lines := mutate(rng, g.Lines, pool, m*(i%4+1))
				assertREMatchesOracle(t, v, lines, comp.Name+" mutated script")
			}
		}
	}
}

// TestRELinesMatchesOracleOnAmbiguousKeys uses synthetic atoms whose keys
// make two distinct edges render to one key ("a -> b" -> "c" and "a" ->
// "b -> c"), which must score as a single term.
func TestRELinesMatchesOracleOnAmbiguousKeys(t *testing.T) {
	keys := []string{"a", "b", "c", "a -> b", "b -> c", "a -> b -> c", " -> ", "c -> ", ""}
	vars := []string{"x", "y", "z"}
	rng := rand.New(rand.NewSource(7))
	randomLines := func(n int) []dag.LineInfo {
		lines := make([]dag.LineInfo, n)
		for i := range lines {
			lines[i] = dag.LineInfo{
				Key:    keys[rng.Intn(len(keys))],
				Reads:  []string{vars[rng.Intn(len(vars))], vars[rng.Intn(len(vars))]},
				Writes: []string{vars[rng.Intn(len(vars))]},
			}
		}
		return lines
	}
	for trial := 0; trial < 200; trial++ {
		var graphs []*dag.Graph
		for i := rng.Intn(4); i >= 0; i-- {
			lines := randomLines(rng.Intn(8))
			graphs = append(graphs, &dag.Graph{Lines: lines, Edges: dag.EdgesOf(lines)})
		}
		v := BuildVocab(graphs)
		for i := 0; i < 10; i++ {
			assertREMatchesOracle(t, v, randomLines(rng.Intn(10)), "synthetic script")
		}
	}
	// The ambiguous pair itself, with only one split in the corpus.
	line := func(key, read, write string) dag.LineInfo {
		return dag.LineInfo{Key: key, Reads: []string{read}, Writes: []string{write}}
	}
	corpus := []dag.LineInfo{line("a -> b", "-", "x"), line("c", "x", "y")}
	v := BuildVocab([]*dag.Graph{{Lines: corpus, Edges: dag.EdgesOf(corpus)}})
	other := []dag.LineInfo{line("a", "-", "x"), line("b -> c", "x", "y"), line("a -> b", "-", "x"), line("c", "x", "y")}
	if rank, ok := v.EdgeRank(dag.Edge{From: "a", To: "b -> c"}); !ok || rank != 0 {
		t.Fatalf("EdgeRank of the other split = %d, %v", rank, ok)
	}
	assertREMatchesOracle(t, v, other, "ambiguous pair")
}

func corpusGraphs(t *testing.T, srcs ...string) []*dag.Graph {
	t.Helper()
	var gs []*dag.Graph
	for _, s := range srcs {
		gs = append(gs, dag.Build(script.MustParse(s)))
	}
	return gs
}

const (
	s1 = "import pandas as pd\ndf = pd.read_csv(\"d.csv\")\ndf = df.fillna(df.mean())\ndf = df[df[\"SkinThickness\"] < 80]\ndf = pd.get_dummies(df)\n"
	s2 = "import pandas as pd\ndf = pd.read_csv(\"d.csv\")\ndf = df[df[\"SkinThickness\"] < 80]\ndf = pd.get_dummies(df)\n"
	s3 = "import pandas as pd\ndf = pd.read_csv(\"d.csv\")\ndf = df.fillna(df.mean())\ndf = pd.get_dummies(df)\n"
)

func TestBuildVocabCounts(t *testing.T) {
	gs := corpusGraphs(t, s1, s2, s3)
	v := BuildVocab(gs)
	if v.NumScripts != 3 {
		t.Fatalf("scripts = %d", v.NumScripts)
	}
	if v.LineCounts["import pandas as pd"] != 3 {
		t.Fatalf("import count = %d", v.LineCounts["import pandas as pd"])
	}
	if v.LineCounts["df = df.fillna(df.mean())"] != 2 {
		t.Fatalf("fillna count = %d", v.LineCounts["df = df.fillna(df.mean())"])
	}
	if v.TotalEdges == 0 || v.NumUniqueEdges() == 0 || v.NumUniqueLines() == 0 || v.NumUniqueUnigrams() == 0 {
		t.Fatal("empty vocab")
	}
	// read_csv→fillna edge appears in s1 and s3.
	key := dag.Edge{From: `df = pd.read_csv("d.csv")`, To: "df = df.fillna(df.mean())"}.Key()
	if v.EdgeCounts[key] != 2 {
		t.Fatalf("edge count = %d", v.EdgeCounts[key])
	}
}

func TestMeanPosRange(t *testing.T) {
	v := BuildVocab(corpusGraphs(t, s1, s2, s3))
	for k, p := range v.MeanPos {
		if p < 0 || p > 1 {
			t.Fatalf("MeanPos[%q] = %v", k, p)
		}
	}
	// import is always first.
	if v.MeanPos["import pandas as pd"] != 0 {
		t.Fatalf("import pos = %v", v.MeanPos["import pandas as pd"])
	}
}

func TestRENonNegativeAndOrdering(t *testing.T) {
	v := BuildVocab(corpusGraphs(t, s1, s2, s3))
	// A script matching common corpus steps should score lower (more
	// standard) than one using a rare composition.
	common := dag.Build(script.MustParse(s1))
	rare := dag.Build(script.MustParse(
		"import pandas as pd\ndf = pd.read_csv(\"d.csv\")\ndf = df.fillna(df.median())\n"))
	reCommon, reRare := v.RE(common), v.RE(rare)
	if reCommon < 0 || reRare < 0 {
		t.Fatalf("negative RE: %v %v", reCommon, reRare)
	}
	if reCommon >= reRare {
		t.Fatalf("common script should be more standard: common=%v rare=%v", reCommon, reRare)
	}
}

func TestREFiniteOnUnseenEdges(t *testing.T) {
	v := BuildVocab(corpusGraphs(t, s1))
	g := dag.Build(script.MustParse("import pandas as pd\ndf = pd.read_csv(\"other.csv\")\ndf = df.dropna()\n"))
	re := v.RE(g)
	if math.IsInf(re, 0) || math.IsNaN(re) {
		t.Fatalf("RE not finite on unseen edges: %v", re)
	}
	if re <= 0 {
		t.Fatalf("fully-unseen script should have positive RE, got %v", re)
	}
}

func TestREEmptyScript(t *testing.T) {
	v := BuildVocab(corpusGraphs(t, s1, s2))
	re := v.RELines(nil)
	if math.IsNaN(re) || math.IsInf(re, 0) || re <= 0 {
		t.Fatalf("empty-script RE = %v", re)
	}
	if oracle := v.REFromEdges(nil); math.Float64bits(re) != math.Float64bits(oracle) {
		t.Fatalf("empty-script RE = %v, oracle %v", re, oracle)
	}
	empty := BuildVocab(nil)
	if got := empty.RELines(nil); got != 0 {
		t.Fatalf("empty/empty RE = %v", got)
	}
}

func TestAddingCommonStepLowersRE(t *testing.T) {
	// Mirror of Example 4.6: adding the common step moves P toward Q.
	v := BuildVocab(corpusGraphs(t, s1, s1, s3))
	before := dag.Build(script.MustParse(s2)) // missing fillna
	after := dag.Build(script.MustParse(s1))  // has fillna
	if v.RE(after) >= v.RE(before) {
		t.Fatalf("adding the corpus-common step should lower RE: before=%v after=%v",
			v.RE(before), v.RE(after))
	}
}

func TestRELinesMatchesRE(t *testing.T) {
	v := BuildVocab(corpusGraphs(t, s1, s2, s3))
	g := dag.Build(script.MustParse(s2))
	if math.Abs(v.RE(g)-v.RELines(g.Lines)) > 1e-12 {
		t.Fatal("RELines must agree with RE")
	}
}

func TestImprovement(t *testing.T) {
	if got := Improvement(2, 1); math.Abs(got-50) > 1e-9 {
		t.Fatalf("improvement = %v", got)
	}
	if got := Improvement(0, 1); got != 0 {
		t.Fatalf("zero-orig improvement = %v", got)
	}
	if got := Improvement(1, 2); got >= 0 {
		t.Fatalf("worsening should be negative, got %v", got)
	}
}

func TestSortedLineKeysDeterministic(t *testing.T) {
	v := BuildVocab(corpusGraphs(t, s1, s2, s3))
	a := v.SortedLineKeys()
	b := v.SortedLineKeys()
	if len(a) == 0 {
		t.Fatal("no keys")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("non-deterministic ordering")
		}
	}
	// Most frequent first.
	if v.LineCounts[a[0]] < v.LineCounts[a[len(a)-1]] {
		t.Fatal("keys not sorted by count")
	}
}

// Property: RE is non-negative for arbitrary scripts vs this corpus.
func TestRENonNegativeProperty(t *testing.T) {
	v := BuildVocab(corpusGraphs(t, s1, s2, s3))
	pool := []string{
		"import pandas as pd",
		`df = pd.read_csv("d.csv")`,
		"df = df.fillna(df.mean())",
		"df = df.dropna()",
		`df = df[df["SkinThickness"] < 80]`,
		"df = pd.get_dummies(df)",
		`df["Z"] = df["Z"].fillna(0)`,
	}
	f := func(pick []uint8) bool {
		var lines []dag.LineInfo
		for _, p := range pick {
			st, err := script.ParseStmt(pool[int(p)%len(pool)])
			if err != nil {
				return false
			}
			lines = append(lines, dag.NewLineInfo(st))
		}
		re := v.RELines(lines)
		return re >= -1e-9 && !math.IsNaN(re) && !math.IsInf(re, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
