package interp

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"lucidscript/internal/frame"
	"lucidscript/internal/script"
)

func titanicSources(t *testing.T) map[string]*frame.Frame {
	t.Helper()
	f, err := frame.ReadCSVString(`Survived,Pclass,Sex,Age,Fare,Embarked
0,3,male,22,7.25,S
1,1,female,38,71.28,C
1,3,female,26,7.92,S
1,1,female,35,53.1,S
0,3,male,,8.05,
0,3,male,54,51.86,S
0,1,male,2,21.07,C
1,3,female,27,11.13,S
`)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*frame.Frame{"train.csv": f}
}

func run(t *testing.T, src string, sources map[string]*frame.Frame) *Result {
	t.Helper()
	s, err := script.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	res, err := Run(s, sources, Options{Seed: 7})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func mustFail(t *testing.T, src string, sources map[string]*frame.Frame, wantSub string) {
	t.Helper()
	s, err := script.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	_, err = Run(s, sources, Options{})
	if err == nil {
		t.Fatalf("Run(%q) should fail", src)
	}
	if wantSub != "" && !strings.Contains(err.Error(), wantSub) {
		t.Fatalf("error %q does not mention %q", err, wantSub)
	}
}

func TestReadCSVAndResult(t *testing.T) {
	res := run(t, `import pandas as pd
df = pd.read_csv("train.csv")
`, titanicSources(t))
	if res.Main == nil || res.Main.NumRows() != 8 {
		t.Fatalf("main frame wrong: %v", res.Main)
	}
}

func TestReadCSVByBaseName(t *testing.T) {
	res := run(t, `import pandas as pd
df = pd.read_csv("/data/titanic/train.csv")
`, titanicSources(t))
	if res.Main.NumRows() != 8 {
		t.Fatal("path fallback to base name failed")
	}
}

func TestFillnaMeanPipeline(t *testing.T) {
	res := run(t, `import pandas as pd
df = pd.read_csv("train.csv")
df = df.fillna(df.mean())
`, titanicSources(t))
	age, _ := res.Main.Column("Age")
	if age.NullCount() != 0 {
		t.Fatal("mean fill left nulls")
	}
	// String column Embarked untouched by mean fill.
	emb, _ := res.Main.Column("Embarked")
	if emb.NullCount() != 1 {
		t.Fatal("mean fill should not fill string column")
	}
}

func TestColumnFillnaAndAssignment(t *testing.T) {
	res := run(t, `import pandas as pd
df = pd.read_csv("train.csv")
df["Age"] = df["Age"].fillna(df["Age"].median())
df["Embarked"] = df["Embarked"].fillna("S")
`, titanicSources(t))
	age, _ := res.Main.Column("Age")
	if age.NullCount() != 0 {
		t.Fatal("median fill left nulls")
	}
	emb, _ := res.Main.Column("Embarked")
	if emb.NullCount() != 0 || emb.StringAt(4) != "S" {
		t.Fatalf("Embarked fill: %q nulls=%d", emb.StringAt(4), emb.NullCount())
	}
}

func TestMaskFilterAndBetween(t *testing.T) {
	res := run(t, `import pandas as pd
df = pd.read_csv("train.csv")
df = df[df["Age"].between(20, 40)]
`, titanicSources(t))
	if res.Main.NumRows() != 5 {
		t.Fatalf("rows = %d, want 5", res.Main.NumRows())
	}
	res2 := run(t, `import pandas as pd
df = pd.read_csv("train.csv")
df = df[df["Fare"] < 10]
df = df[df["Sex"] == "male"]
`, titanicSources(t))
	if res2.Main.NumRows() != 2 {
		t.Fatalf("rows = %d, want 2", res2.Main.NumRows())
	}
}

func TestCompoundMasks(t *testing.T) {
	res := run(t, `import pandas as pd
df = pd.read_csv("train.csv")
df = df[(df["Pclass"] == 1) | (df["Pclass"] == 2)]
`, titanicSources(t))
	if res.Main.NumRows() != 3 {
		t.Fatalf("rows = %d, want 3", res.Main.NumRows())
	}
	res2 := run(t, `import pandas as pd
df = pd.read_csv("train.csv")
df = df[(df["Sex"] == "female") & (df["Fare"] > 50)]
`, titanicSources(t))
	if res2.Main.NumRows() != 2 {
		t.Fatalf("rows = %d, want 2", res2.Main.NumRows())
	}
	res3 := run(t, `import pandas as pd
df = pd.read_csv("train.csv")
df = df[~(df["Fare"] > 50)]
`, titanicSources(t))
	if res3.Main.NumRows() != 5 {
		t.Fatalf("rows = %d, want 5", res3.Main.NumRows())
	}
}

func TestDropAndSelect(t *testing.T) {
	res := run(t, `import pandas as pd
df = pd.read_csv("train.csv")
X = df.drop("Survived", axis=1)
y = df["Survived"]
`, titanicSources(t))
	if res.X == nil || res.X.HasColumn("Survived") {
		t.Fatal("X should drop Survived")
	}
	if res.Y == nil || res.Y.Len() != 8 {
		t.Fatal("y missing")
	}
	res2 := run(t, `import pandas as pd
df = pd.read_csv("train.csv")
df = df.drop(["Fare", "Embarked"], axis=1)
`, titanicSources(t))
	if res2.Main.NumCols() != 4 {
		t.Fatalf("cols = %d", res2.Main.NumCols())
	}
	res3 := run(t, `import pandas as pd
df = pd.read_csv("train.csv")
df = df[["Age", "Fare"]]
`, titanicSources(t))
	if res3.Main.NumCols() != 2 {
		t.Fatal("column-list select failed")
	}
}

func TestGetDummies(t *testing.T) {
	res := run(t, `import pandas as pd
df = pd.read_csv("train.csv")
df = pd.get_dummies(df)
`, titanicSources(t))
	if !res.Main.HasColumn("Sex_male") || !res.Main.HasColumn("Embarked_S") {
		t.Fatalf("dummies missing: %v", res.Main.ColumnNames())
	}
}

func TestDeriveColumnsArith(t *testing.T) {
	res := run(t, `import pandas as pd
import numpy as np
df = pd.read_csv("train.csv")
df["FarePerClass"] = df["Fare"] / df["Pclass"]
df["LogFare"] = np.log1p(df["Fare"])
df["Old"] = np.where(df["Age"] > 30, 1, 0)
`, titanicSources(t))
	fpc, _ := res.Main.Column("FarePerClass")
	if math.Abs(fpc.Float(0)-7.25/3) > 1e-9 {
		t.Fatalf("FarePerClass = %v", fpc.Float(0))
	}
	lf, _ := res.Main.Column("LogFare")
	if math.Abs(lf.Float(0)-math.Log1p(7.25)) > 1e-9 {
		t.Fatalf("LogFare = %v", lf.Float(0))
	}
	old, _ := res.Main.Column("Old")
	if old.Float(1) != 1 || old.Float(0) != 0 {
		t.Fatal("np.where wrong")
	}
}

func TestMapAndStrOps(t *testing.T) {
	res := run(t, `import pandas as pd
df = pd.read_csv("train.csv")
df["Sex"] = df["Sex"].map({"male": 0, "female": 1})
df["Embarked"] = df["Embarked"].str.lower()
`, titanicSources(t))
	sex, _ := res.Main.Column("Sex")
	if !sex.IsNumeric() || sex.Float(0) != 0 || sex.Float(1) != 1 {
		t.Fatal("map failed")
	}
	emb, _ := res.Main.Column("Embarked")
	if emb.StringAt(0) != "s" {
		t.Fatalf("lower = %q", emb.StringAt(0))
	}
	if emb.NullCount() != 1 {
		t.Fatal("str.lower should preserve nulls")
	}
}

func TestDropna(t *testing.T) {
	res := run(t, `import pandas as pd
df = pd.read_csv("train.csv")
df = df.dropna()
`, titanicSources(t))
	if res.Main.NumRows() != 7 {
		t.Fatalf("rows = %d, want 7", res.Main.NumRows())
	}
}

func TestSampleIndexLocPattern(t *testing.T) {
	// The Figure 8 target-leakage pattern.
	res := run(t, `import pandas as pd
df = pd.read_csv("train.csv")
df["Survived_dup"] = df["Survived"]
update = df.sample(3).index
df.loc[update, "Survived_dup"] = 0
`, titanicSources(t))
	dup, _ := res.Main.Column("Survived_dup")
	orig, _ := res.Main.Column("Survived")
	diffs := 0
	for i := 0; i < dup.Len(); i++ {
		if dup.Float(i) != orig.Float(i) {
			diffs++
		}
	}
	// 3 sampled rows forced to 0; some may already be 0.
	if diffs > 3 {
		t.Fatalf("diffs = %d", diffs)
	}
	if dup.NullCount() != 0 {
		t.Fatal("dup column should be fully set")
	}
}

func TestLocCreatesMissingColumn(t *testing.T) {
	res := run(t, `import pandas as pd
df = pd.read_csv("train.csv")
update = df.sample(2).index
df.loc[update, "flag"] = 1
`, titanicSources(t))
	flag, _ := res.Main.Column("flag")
	if flag.NullCount() != 6 {
		t.Fatalf("flag nulls = %d, want 6", flag.NullCount())
	}
}

func TestLocMaskAssignment(t *testing.T) {
	res := run(t, `import pandas as pd
df = pd.read_csv("train.csv")
df.loc[df["Age"] > 50, "Age"] = 50
`, titanicSources(t))
	age, _ := res.Main.Column("Age")
	if age.Max() > 50 {
		t.Fatalf("cap failed: max = %v", age.Max())
	}
}

func TestSortValuesAndHead(t *testing.T) {
	res := run(t, `import pandas as pd
df = pd.read_csv("train.csv")
df = df.sort_values("Fare", ascending=False)
df = df.head(2)
`, titanicSources(t))
	fare, _ := res.Main.Column("Fare")
	if fare.Float(0) < fare.Float(1) || res.Main.NumRows() != 2 {
		t.Fatal("sort/head failed")
	}
}

func TestGroupByMean(t *testing.T) {
	res := run(t, `import pandas as pd
df = pd.read_csv("train.csv")
agg = df.groupby("Sex")["Fare"].mean()
`, titanicSources(t))
	v, ok := res.Env.Get("agg")
	if !ok {
		t.Fatal("agg missing")
	}
	adf := v.(*DF)
	if adf.F.NumRows() != 2 {
		t.Fatalf("groups = %d", adf.F.NumRows())
	}
}

func TestAstypeAndToNumeric(t *testing.T) {
	res := run(t, `import pandas as pd
df = pd.read_csv("train.csv")
df["Pclass"] = df["Pclass"].astype("str")
df["Pclass"] = pd.to_numeric(df["Pclass"])
df["Age"] = df["Age"].astype("float")
`, titanicSources(t))
	pc, _ := res.Main.Column("Pclass")
	if !pc.IsNumeric() {
		t.Fatal("round-trip astype failed")
	}
}

func TestCutBinning(t *testing.T) {
	res := run(t, `import pandas as pd
df = pd.read_csv("train.csv")
df["FareBin"] = pd.cut(df["Fare"], 4)
df["FareQ"] = pd.qcut(df["Fare"], 4)
`, titanicSources(t))
	fb, _ := res.Main.Column("FareBin")
	if fb.Kind() != frame.String || len(fb.Unique()) < 2 {
		t.Fatalf("cut produced %v", fb.Unique())
	}
	fq, _ := res.Main.Column("FareQ")
	if len(fq.Unique()) != 4 {
		t.Fatalf("qcut bins = %v", fq.Unique())
	}
}

// TestQcutTiesAndNaN pins qcut's labels where a run of equal values
// straddles a bin boundary: ties are ranked in row order, and nulls stay
// unlabeled.
func TestQcutTiesAndNaN(t *testing.T) {
	nan := math.NaN()
	labels := func(s *frame.Series) []string {
		out := make([]string, s.Len())
		for i := range out {
			out[i] = s.StringAt(i)
		}
		return out
	}
	got := labels(binEqualFreq(frame.NewFloatSeries("v", []float64{2, 1, nan, 2, 2, 1, 3, nan, 2}), 3))
	want := []string{"q0", "q0", "", "q1", "q1", "q0", "q2", "", "q1"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("qcut labels = %q, want %q", got, want)
	}

	// Long enough that an unstable sort would reorder the ties: each row's
	// bin must follow its rank by (value, row).
	vals := make([]float64, 200)
	for i := range vals {
		vals[i] = float64(i * 7 % 5)
		if i%11 == 0 {
			vals[i] = nan
		}
	}
	got = labels(binEqualFreq(frame.NewFloatSeries("v", vals), 4))
	valid := 0
	for _, v := range vals {
		if !math.IsNaN(v) {
			valid++
		}
	}
	per := (valid + 3) / 4
	rank := 0
	for v := 0.0; v < 5; v++ {
		for i, x := range vals {
			if x != v {
				continue
			}
			if want := fmt.Sprintf("q%d", rank/per); got[i] != want {
				t.Fatalf("row %d (value %v, rank %d): label %q, want %q", i, x, rank, got[i], want)
			}
			rank++
		}
	}
	for i, x := range vals {
		if math.IsNaN(x) && got[i] != "" {
			t.Fatalf("null row %d labeled %q", i, got[i])
		}
	}
}

func TestDropDuplicates(t *testing.T) {
	src := map[string]*frame.Frame{}
	f, _ := frame.ReadCSVString("a,b\n1,2\n1,2\n3,4\n")
	src["d.csv"] = f
	res := run(t, `import pandas as pd
df = pd.read_csv("d.csv")
df = df.drop_duplicates()
`, src)
	if res.Main.NumRows() != 2 {
		t.Fatalf("rows = %d", res.Main.NumRows())
	}
}

func TestSeriesAggregates(t *testing.T) {
	res := run(t, `import pandas as pd
df = pd.read_csv("train.csv")
m = df["Fare"].mean()
s = df["Fare"].sum()
n = df["Fare"].nunique()
c = df["Age"].count()
`, titanicSources(t))
	if v, _ := res.Env.Get("m"); v.(float64) <= 0 {
		t.Fatal("mean")
	}
	if v, _ := res.Env.Get("c"); v.(float64) != 7 {
		t.Fatalf("count = %v", v)
	}
}

func TestIsinAndIsnull(t *testing.T) {
	res := run(t, `import pandas as pd
df = pd.read_csv("train.csv")
df = df[df["Embarked"].isin(["S"])]
`, titanicSources(t))
	if res.Main.NumRows() != 5 {
		t.Fatalf("rows = %d, want 5", res.Main.NumRows())
	}
	res2 := run(t, `import pandas as pd
df = pd.read_csv("train.csv")
df = df[df["Age"].notnull()]
`, titanicSources(t))
	if res2.Main.NumRows() != 7 {
		t.Fatalf("rows = %d, want 7", res2.Main.NumRows())
	}
}

func TestExprStmtNoOp(t *testing.T) {
	res := run(t, `import pandas as pd
df = pd.read_csv("train.csv")
df["Survived"]
`, titanicSources(t))
	if res.Main.NumRows() != 8 {
		t.Fatal("no-op expression changed the frame")
	}
}

func TestSamplingOption(t *testing.T) {
	s := script.MustParse(`import pandas as pd
df = pd.read_csv("train.csv")
`)
	res, err := Run(s, titanicSources(t), Options{Seed: 3, MaxRows: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Main.NumRows() != 4 {
		t.Fatalf("sampled rows = %d", res.Main.NumRows())
	}
}

func TestDeterministicSample(t *testing.T) {
	src := `import pandas as pd
df = pd.read_csv("train.csv")
df = df.sample(4)
`
	a := run(t, src, titanicSources(t)).Main
	b := run(t, src, titanicSources(t)).Main
	for i := 0; i < a.NumRows(); i++ {
		if a.RowString(i) != b.RowString(i) {
			t.Fatal("sample not deterministic under fixed seed")
		}
	}
}

func TestExecutionErrors(t *testing.T) {
	srcs := titanicSources(t)
	mustFail(t, `df = pd.read_csv("train.csv")`, srcs, "not defined")
	mustFail(t, "import pandas as pd\ndf = pd.read_csv(\"nope.csv\")", srcs, "no such data file")
	mustFail(t, "import pandas as pd\ndf = pd.read_csv(\"train.csv\")\nx = df[\"Nope\"]", srcs, "no column")
	mustFail(t, "import pandas as pd\ndf = pd.read_csv(\"train.csv\")\ndf = df.drop(\"Nope\", axis=1)", srcs, "")
	mustFail(t, "import pandas as pd\ndf = pd.read_csv(\"train.csv\")\ndf = df.drop(\"Fare\")", srcs, "axis")
	mustFail(t, "import pandas as pd\ndf = pd.read_csv(\"train.csv\")\ndf = df.frobnicate()", srcs, "no method")
	mustFail(t, "import pandas as pd\ndf = pd.read_csv(\"train.csv\")\nx = df[\"Age\"] & df[\"Fare\"]", srcs, "needs masks")
	mustFail(t, "import pandas as pd\ndf = pd.read_csv(\"train.csv\")\nx = 1 / 0", srcs, "division by zero")
	mustFail(t, "import pandas as pd\ndf = pd.read_csv(\"train.csv\")\ndf[\"Embarked\"] = df[\"Age\"].str.lower()", srcs, "non-string")
	mustFail(t, "x = unknown_module.f()", srcs, "not defined")
}

func TestErrorMentionsLine(t *testing.T) {
	s := script.MustParse(`import pandas as pd
df = pd.read_csv("train.csv")
x = df["Nope"]
`)
	_, err := Run(s, titanicSources(t), Options{})
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("error should name line 3: %v", err)
	}
}

func TestCheckExecutes(t *testing.T) {
	good := script.MustParse("import pandas as pd\ndf = pd.read_csv(\"train.csv\")\n")
	if err := CheckExecutes(good, titanicSources(t), Options{}); err != nil {
		t.Fatal(err)
	}
	bad := script.MustParse("import pandas as pd\ndf = pd.read_csv(\"train.csv\")\nx = df[\"Nope\"]\n")
	if err := CheckExecutes(bad, titanicSources(t), Options{}); err == nil {
		t.Fatal("bad script should fail")
	}
}

func TestRenameColumns(t *testing.T) {
	res := run(t, `import pandas as pd
df = pd.read_csv("train.csv")
df = df.rename(columns={"Fare": "Price"})
`, titanicSources(t))
	if !res.Main.HasColumn("Price") || res.Main.HasColumn("Fare") {
		t.Fatal("rename failed")
	}
}

func TestIndexPreservedThroughFilter(t *testing.T) {
	res := run(t, `import pandas as pd
df = pd.read_csv("train.csv")
df = df[df["Pclass"] == 1]
idx = df.index
`, titanicSources(t))
	v, _ := res.Env.Get("idx")
	labels := v.(indexVal).labels
	want := []int{1, 3, 6}
	if len(labels) != 3 {
		t.Fatalf("labels = %v", labels)
	}
	for i := range want {
		if labels[i] != want[i] {
			t.Fatalf("labels = %v, want %v", labels, want)
		}
	}
}

func TestScalarComparisonsAndArith(t *testing.T) {
	res := run(t, `import pandas as pd
df = pd.read_csv("train.csv")
a = 2 + 3 * 4
b = 10 - df["Pclass"]
`, titanicSources(t))
	if v, _ := res.Env.Get("a"); v.(float64) != 14 {
		t.Fatalf("a = %v", v)
	}
	bs, _ := res.Env.Get("b")
	if bs.(*frame.Series).Float(0) != 7 {
		t.Fatal("reversed scalar-series subtraction")
	}
}

func TestMinMaxScalingViaArith(t *testing.T) {
	res := run(t, `import pandas as pd
df = pd.read_csv("train.csv")
df["Fare"] = (df["Fare"] - df["Fare"].min()) / (df["Fare"].max() - df["Fare"].min())
`, titanicSources(t))
	fare, _ := res.Main.Column("Fare")
	if fare.Min() < 0 || fare.Max() > 1+1e-9 {
		t.Fatalf("scaled range [%v, %v]", fare.Min(), fare.Max())
	}
}

func multiFileSources(t *testing.T) map[string]*frame.Frame {
	t.Helper()
	sales, err := frame.ReadCSVString(`item_id,item_price,item_cnt_day
1,100,2
2,250,1
3,80,5
1,110,3
9,999,1
`)
	if err != nil {
		t.Fatal(err)
	}
	items, err := frame.ReadCSVString(`item_id,item_category_id
1,10
2,11
3,10
`)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*frame.Frame{"sales.csv": sales, "items.csv": items}
}

func TestMergeMethod(t *testing.T) {
	res := run(t, `import pandas as pd
df = pd.read_csv("sales.csv")
items = pd.read_csv("items.csv")
df = df.merge(items, on="item_id")
`, multiFileSources(t))
	if res.Main.NumRows() != 4 {
		t.Fatalf("inner merge rows = %d, want 4", res.Main.NumRows())
	}
	if !res.Main.HasColumn("item_category_id") {
		t.Fatal("merge lost right column")
	}
}

func TestMergeFunctionAndHowLeft(t *testing.T) {
	res := run(t, `import pandas as pd
df = pd.read_csv("sales.csv")
items = pd.read_csv("items.csv")
df = pd.merge(df, items, on="item_id", how="left")
`, multiFileSources(t))
	if res.Main.NumRows() != 5 {
		t.Fatalf("left merge rows = %d, want 5", res.Main.NumRows())
	}
	cat, _ := res.Main.Column("item_category_id")
	if cat.NullCount() != 1 {
		t.Fatalf("unmatched row nulls = %d, want 1", cat.NullCount())
	}
}

func TestMergeErrors(t *testing.T) {
	srcs := multiFileSources(t)
	mustFail(t, `import pandas as pd
df = pd.read_csv("sales.csv")
items = pd.read_csv("items.csv")
df = df.merge(items)
`, srcs, "on=")
	mustFail(t, `import pandas as pd
df = pd.read_csv("sales.csv")
items = pd.read_csv("items.csv")
df = df.merge(items, on="nope")
`, srcs, "")
	mustFail(t, `import pandas as pd
df = pd.read_csv("sales.csv")
items = pd.read_csv("items.csv")
df = df.merge(items, on="item_id", how="outer")
`, srcs, "not supported")
}

func TestConcatFrames(t *testing.T) {
	res := run(t, `import pandas as pd
df = pd.read_csv("sales.csv")
df2 = pd.read_csv("sales.csv")
df = pd.concat([df, df2])
`, multiFileSources(t))
	if res.Main.NumRows() != 10 {
		t.Fatalf("concat rows = %d, want 10", res.Main.NumRows())
	}
	mustFail(t, `import pandas as pd
df = pd.read_csv("sales.csv")
df = pd.concat(df)
`, multiFileSources(t), "needs a list")
}
