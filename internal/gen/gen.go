// Package gen is a seeded generative test harness: it produces
// pseudo-random but always-valid LSL preparation scripts over one fixed
// synthetic schema, plus the matching CSV dataset. The batch stress test
// and the parser fuzz corpus both draw from it, so generated scripts must
// stay inside the grammar AND execute successfully against Sources —
// every template below uses only operations the interpreter supports.
//
// The package deliberately imports only frame and script, so any test in
// the tree (including script's own fuzz tests) can use it without an
// import cycle.
package gen

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"lucidscript/internal/frame"
	"lucidscript/internal/script"
)

// SourceFile is the dataset name every generated script reads.
const SourceFile = "data.csv"

// Generator produces random scripts and datasets from one seeded stream.
// It is deterministic: two Generators with the same seed emit the same
// sequence. Not safe for concurrent use; give each goroutine its own.
type Generator struct {
	rng *rand.Rand
}

// New returns a Generator seeded with seed.
func New(seed int64) *Generator {
	return &Generator{rng: rand.New(rand.NewSource(seed))}
}

// template is one candidate statement; text may hold one %d slot, filled
// from the template's own consts so a drawn constant always keeps the
// statement executable (e.g. an Age filter never uses an Income bound that
// would empty the frame).
type template struct {
	text   string
	consts []int
}

// phase is one stage of the canonical preparation pipeline. Generated
// scripts draw 0..max templates per phase, in phase order, so every output
// is a plausible impute -> filter -> features -> encode -> split pipeline
// and statement order never violates a data dependency.
type phase struct {
	max       int // templates drawn from this phase: 0..max
	templates []template
}

// phases holds the generation grammar. Every template must execute against
// Frame's schema: ID, Age (nullable), Income, Score, City (nullable
// categorical), Gender (categorical), Target. Filter bounds are chosen to
// keep most rows, so no draw produces an empty frame downstream.
var phases = []phase{
	{ // impute / clean
		max: 3,
		templates: []template{
			{text: `df["Age"] = df["Age"].fillna(df["Age"].mean())`},
			{text: `df["Age"] = df["Age"].fillna(df["Age"].median())`},
			{text: `df["Income"] = df["Income"].fillna(df["Income"].median())`},
			{text: `df["Income"] = df["Income"].fillna(df["Income"].mean())`},
			{text: `df["City"] = df["City"].fillna("metro")`},
			{text: `df = df.dropna()`},
			{text: `df = df.drop_duplicates()`},
		},
	},
	{ // filter
		max: 2,
		templates: []template{
			{text: `df = df[df["Income"] < %d]`, consts: []int{150000, 200000, 300000}},
			{text: `df = df[df["Age"] < %d]`, consts: []int{70, 80, 90}},
			{text: `df = df[df["Score"] > %d]`, consts: []int{1, 5, 10}},
		},
	},
	{ // feature engineering
		max: 2,
		templates: []template{
			{text: `df["AgeScore"] = df["Age"] * df["Score"]`},
			{text: `df["IncomeK"] = df["Income"] / 1000`},
			{text: `df["Gender"] = df["Gender"].map({"m": 0, "f": 1})`},
			{text: `df["ScoreHalf"] = df["Score"] / 2 + %d`, consts: []int{0, 1, 10}},
		},
	},
	{ // encode
		max: 2,
		templates: []template{
			{text: `df = df.drop("ID", axis=1)`},
			{text: `df = pd.get_dummies(df)`},
		},
	},
	{ // split
		max: 2,
		templates: []template{
			{text: `y = df["Target"]`},
			{text: `X = df.drop("Target", axis=1)`},
		},
	},
}

// ScriptSource returns the text of one random valid script. Useful as a
// fuzz seed, where the raw bytes matter.
func (g *Generator) ScriptSource() string {
	var b strings.Builder
	b.WriteString("import pandas as pd\n")
	b.WriteString(`df = pd.read_csv("data.csv")` + "\n")
	for _, ph := range phases {
		n := g.rng.Intn(ph.max + 1)
		// Draw without replacement, preserving template order: a phase
		// never emits the same statement twice, and e.g. get_dummies
		// always follows the ID drop.
		picked := g.pick(len(ph.templates), n)
		for _, ti := range picked {
			tmpl := ph.templates[ti]
			line := tmpl.text
			if strings.Contains(line, "%d") {
				line = fmt.Sprintf(line, tmpl.consts[g.rng.Intn(len(tmpl.consts))])
			}
			b.WriteString(line + "\n")
		}
	}
	return b.String()
}

// pick draws n distinct indices from [0, k) and returns them ascending.
func (g *Generator) pick(k, n int) []int {
	perm := g.rng.Perm(k)
	if n > k {
		n = k
	}
	picked := append([]int(nil), perm[:n]...)
	sort.Ints(picked)
	return picked
}

// Script returns one random valid parsed script. It panics if the
// generator emits something outside the grammar — that is a bug in this
// package, not in the caller.
func (g *Generator) Script() *script.Script {
	return script.MustParse(g.ScriptSource())
}

// Scripts returns n random valid scripts.
func (g *Generator) Scripts(n int) []*script.Script {
	out := make([]*script.Script, n)
	for i := range out {
		out[i] = g.Script()
	}
	return out
}

// Frame synthesizes the data.csv dataset matching the generation schema:
// nulls in Age and City, a skewed Income with outliers, and a Target
// correlated with Score so intent measures have signal.
func (g *Generator) Frame(rows int) *frame.Frame {
	var b strings.Builder
	b.WriteString("ID,Age,Income,Score,City,Gender,Target\n")
	cities := []string{"metro", "coast", "rural"}
	genders := []string{"m", "f"}
	for i := 0; i < rows; i++ {
		age := ""
		if g.rng.Float64() > 0.15 {
			age = fmt.Sprintf("%d", 18+g.rng.Intn(60))
		}
		income := 20000 + g.rng.Intn(90000)
		if g.rng.Float64() < 0.03 {
			income = 250000 + g.rng.Intn(200000) // outliers the filters cut
		}
		score := g.rng.Intn(100)
		city := cities[g.rng.Intn(len(cities))]
		if g.rng.Float64() < 0.05 {
			city = ""
		}
		target := 0
		if score > 50 || g.rng.Float64() < 0.1 {
			target = 1
		}
		fmt.Fprintf(&b, "%d,%s,%d,%d,%s,%s,%d\n",
			i+1, age, income, score, city, genders[g.rng.Intn(2)], target)
	}
	f, err := frame.ReadCSVString(b.String())
	if err != nil {
		panic(fmt.Sprintf("gen: generated CSV does not parse: %v", err))
	}
	return f
}

// Sources returns the dataset map every generated script runs against.
func (g *Generator) Sources(rows int) map[string]*frame.Frame {
	return map[string]*frame.Frame{SourceFile: g.Frame(rows)}
}
