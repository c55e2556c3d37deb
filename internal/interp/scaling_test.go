package interp

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"lucidscript/internal/frame"
	"lucidscript/internal/script"
)

// scalingOps are the interpreter's row and column operators, each as the
// statement a corpus script would run. The statement is a function of the
// row count so that operators taking a row count (sample(n=), head) stay
// linear in it.
var scalingOps = []struct {
	name string
	stmt func(rows int) string
}{
	{"mask filter", func(int) string { return `df = df[df["x"] > 50]` }},
	{"dropna", func(int) string { return `df = df.dropna()` }},
	{"sort_values asc", func(int) string { return `df = df.sort_values("x")` }},
	{"sort_values desc", func(int) string { return `df = df.sort_values("x", ascending=False)` }},
	{"sample n", func(rows int) string { return fmt.Sprintf(`df = df.sample(n=%d)`, rows/2) }},
	{"sample frac", func(int) string { return `df = df.sample(frac=1.0)` }},
	{"head", func(rows int) string { return fmt.Sprintf(`df = df.head(%d)`, rows/2) }},
	{"duplicated", func(int) string { return `m = df.duplicated()` }},
	{"drop_duplicates", func(int) string { return `df = df.drop_duplicates()` }},
	{"cut", func(int) string { return `df["xb"] = pd.cut(df["x"], 4)` }},
	{"qcut", func(int) string { return `df["xq"] = pd.qcut(df["x"], 4)` }},
	{"fillna", func(int) string { return `df = df.fillna(df.mean())` }},
	{"get_dummies", func(int) string { return `df = pd.get_dummies(df)` }},
	{"merge", func(int) string { return `df = df.merge(items, on="k")` }},
	{"groupby mean", func(int) string { return `g = df.groupby("k")["x"].mean()` }},
}

// scalingSources builds a seeded data.csv of the given row count — a float
// column with heavy ties and nulls, a low-cardinality string key with nulls,
// an int and a bool column — plus a small items.csv keyed like data.csv.
func scalingSources(t *testing.T, rows int, seed int64) map[string]*frame.Frame {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, rows)
	ks := make([]string, rows)
	is := make([]int64, rows)
	bs := make([]bool, rows)
	for i := range xs {
		xs[i] = math.Round(rng.Float64()*1000) / 10
		if rng.Intn(20) == 0 {
			xs[i] = math.NaN()
		}
		ks[i] = string(rune('a' + rng.Intn(5)))
		is[i] = int64(rng.Intn(100))
		bs[i] = rng.Intn(2) == 0
	}
	k := frame.NewStringSeries("k", ks)
	for i := range ks {
		if rng.Intn(30) == 0 {
			k.SetNull(i)
		}
	}
	data, err := frame.FromSeries(frame.NewFloatSeries("x", xs), k,
		frame.NewIntSeries("i", is), frame.NewBoolSeries("b", bs))
	if err != nil {
		t.Fatal(err)
	}
	items, err := frame.FromSeries(
		frame.NewStringSeries("k", []string{"a", "b", "c", "d", "e"}),
		frame.NewFloatSeries("w", []float64{1, 2, 3, 4, 5}))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*frame.Frame{"data.csv": data, "items.csv": items}
}

// TestOperatorScaling runs every operator at n and 4n rows and requires
// the 4n run to cost at most 2.5² times the n run: an n log n operator
// stays well under that, a quadratic one (16x) does not. GC is kept out of
// the timings (collected before each run, disabled during it), and each
// timing sums enough back-to-back runs to last a few milliseconds. Each
// size keeps the best of at least five interleaved reps, and of up to
// fifteen while the ratio is over the bound: noise on a busy machine only
// adds time, so more reps converge on the true ratio, and a quadratic
// operator stays over the bound however many reps run.
func TestOperatorScaling(t *testing.T) {
	const (
		n        = 2000
		minReps  = 5
		maxReps  = 15
		minTimed = 3 * time.Millisecond
		maxRatio = 2.5 * 2.5
	)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	small := scalingSources(t, n, 1)
	large := scalingSources(t, 4*n, 1)
	for _, op := range scalingOps {
		t.Run(strings.ReplaceAll(op.name, " ", "_"), func(t *testing.T) {
			parse := func(rows int) *script.Script {
				src := "import pandas as pd\ndf = pd.read_csv(\"data.csv\")\n" +
					"items = pd.read_csv(\"items.csv\")\n" + op.stmt(rows) + "\n"
				s, err := script.Parse(src)
				if err != nil {
					t.Fatalf("parse %q: %v", src, err)
				}
				return s
			}
			sSmall, sLarge := parse(n), parse(4*n)
			timeRuns := func(s *script.Script, src map[string]*frame.Frame, runs int) time.Duration {
				var total time.Duration
				for i := 0; i < runs; i++ {
					runtime.GC()
					start := time.Now()
					if _, err := Run(s, src, Options{Seed: 3}); err != nil {
						t.Fatalf("run: %v", err)
					}
					total += time.Since(start)
				}
				return total
			}
			timeRuns(sLarge, large, 1) // warm-up
			runs := int(minTimed/timeRuns(sSmall, small, 1)) + 1
			bestSmall, bestLarge := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
			ratio, reps := math.Inf(1), 0
			for ; reps < maxReps && (reps < minReps || ratio > maxRatio); reps++ {
				bestSmall = min(bestSmall, timeRuns(sSmall, small, runs))
				bestLarge = min(bestLarge, timeRuns(sLarge, large, runs))
				ratio = float64(bestLarge) / float64(bestSmall)
			}
			t.Logf("%s: %d rows %v, %d rows %v (%d runs, %d reps): %.2fx",
				op.name, n, bestSmall, 4*n, bestLarge, runs, reps, ratio)
			if ratio > maxRatio {
				t.Errorf("%s: 4x the rows cost %.1fx the time (%v -> %v), want at most %.2fx",
					op.name, ratio, bestSmall, bestLarge, maxRatio)
			}
		})
	}
}
