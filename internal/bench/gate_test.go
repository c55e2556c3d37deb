package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func gateFixture() (current, baseline []Record) {
	current = []Record{
		MSRecord("batch", "a", "sequential_ms", 100),
		MSRecord("batch", "a", "batch_ms", 50),
		MSRecord("batch", "b", "sequential_ms", 310),
		MSRecord("batch", "b", "batch_ms", 160),
		MSRecord("serve", "a", "direct_ms", 80),
		MSRecord("serve", "a", "served_ms", 90),
	}
	baseline = []Record{
		MSRecord("batch", "a", "sequential_ms", 100),
		MSRecord("batch", "a", "batch_ms", 50),
		MSRecord("batch", "b", "sequential_ms", 100),
		MSRecord("batch", "b", "batch_ms", 100),
		MSRecord("serve", "a", "direct_ms", 80),
		MSRecord("serve", "a", "served_ms", 85),
	}
	return current, baseline
}

func findingFor(t *testing.T, fs []GateFinding, exp, kase, metric string) GateFinding {
	t.Helper()
	for _, f := range fs {
		if f.Experiment == exp && f.Case == kase && f.Metric == metric {
			return f
		}
	}
	t.Fatalf("no finding for %s/%s %s", exp, kase, metric)
	return GateFinding{}
}

func TestGateLevels(t *testing.T) {
	current, baseline := gateFixture()
	fs := Gate(current, baseline)
	if len(fs) != len(current) {
		t.Fatalf("findings = %d, want one per current record (%d)", len(fs), len(current))
	}

	// a: unchanged → ok.
	if f := findingFor(t, fs, "batch", "a", "batch_ms"); f.Level != GateOK || f.Ratio != 1 {
		t.Fatalf("batch/a should be ok at 1.00x, got %+v", f)
	}
	// b sequential: 310 vs 100 = 3.1x → fail; b batch: 160 vs 100 = 1.6x → warn.
	if f := findingFor(t, fs, "batch", "b", "sequential_ms"); f.Level != GateFail {
		t.Fatalf("batch/b sequential should fail, got %+v", f)
	}
	if f := findingFor(t, fs, "batch", "b", "batch_ms"); f.Level != GateWarn {
		t.Fatalf("batch/b batch should warn, got %+v", f)
	}
	// serve a: 90 vs 85 → ok.
	if f := findingFor(t, fs, "serve", "a", "served_ms"); f.Level != GateOK {
		t.Fatalf("serve/a should be ok, got %+v", f)
	}

	fails, warns, line := GateSummary(fs)
	if fails != 1 || warns != 1 {
		t.Fatalf("summary fails=%d warns=%d", fails, warns)
	}
	if !strings.Contains(line, "REGRESSION") {
		t.Fatalf("summary line should flag regression: %q", line)
	}
	if tbl := GateTable(fs); len(tbl.Rows) != len(fs) {
		t.Fatalf("table rows = %d, want %d", len(tbl.Rows), len(fs))
	}

	// The thresholds are inclusive: exactly 1.5x is ok, exactly 3.0x warns.
	edge := Gate(
		[]Record{MSRecord("x", "c", "ms", 150), MSRecord("x", "d", "ms", 300)},
		[]Record{MSRecord("x", "c", "ms", 100), MSRecord("x", "d", "ms", 100)})
	if edge[0].Level != GateOK || edge[1].Level != GateWarn {
		t.Fatalf("threshold edges: 1.5x → %s, 3.0x → %s", edge[0].Level, edge[1].Level)
	}
}

func TestGateNonIdenticalFails(t *testing.T) {
	current, baseline := gateFixture()
	current[0].Identical = false
	fs := Gate(current, baseline)
	if f := findingFor(t, fs, "batch", "a", "sequential_ms"); f.Level != GateFail || f.Note == "" {
		t.Fatalf("non-identical output should fail with a note, got %+v", f)
	}
}

func TestGateMissingBaselineWarns(t *testing.T) {
	current, baseline := gateFixture()
	current = append(current, MSRecord("serve", "new", "served_ms", 10))
	fs := Gate(current, baseline)
	f := findingFor(t, fs, "serve", "new", "served_ms")
	if f.Level != GateWarn || f.Note != "no baseline record" {
		t.Fatalf("missing baseline should warn with a note, got %+v", f)
	}
}

func TestGateCurateContract(t *testing.T) {
	run := curateRun{
		Corpus: "gen-10k", Scripts: 10000,
		ColdCurateMS: 1000, WarmLoadMS: 10, FullLoadMS: 200, ApplyMS: 20, RebuildMS: 1000,
		WarmSpeedup: 100, ApplySpeedup: 50, Identical: true,
	}
	base := curateRun{Corpus: "gen-10k", ColdCurateMS: 1000, WarmLoadMS: 10, FullLoadMS: 200, ApplyMS: 20}.records()

	fs := Gate(run.records(), base)
	if fails, warns, _ := GateSummary(fs); fails != 0 || warns != 0 {
		t.Fatalf("healthy curate run should pass cleanly, got %d fails %d warns: %+v", fails, warns, fs)
	}
	if f := findingFor(t, fs, "curate", "gen-10k", "warm_load_ms"); f.Level != GateOK {
		t.Fatalf("warm_load_ms should be ok, got %+v", f)
	}

	// Collapsed speedups fail with no baseline at all, whatever the wall
	// clocks say, and the table reports them in their own unit.
	run.WarmSpeedup, run.ApplySpeedup = 2, 3
	fs = Gate(run.records(), nil)
	for _, metric := range []string{"warm_speedup", "apply_speedup"} {
		if f := findingFor(t, fs, "curate", "gen-10k", metric); f.Level != GateFail {
			t.Fatalf("%s should fail below its floor, got %+v", metric, f)
		}
	}
	rows := map[string][]string{}
	for _, row := range GateTable(fs).Rows {
		rows[row[2]] = row
	}
	for metric, want := range map[string][2]string{
		"warm_speedup":  {"5.0x", "2.0x"},
		"apply_speedup": {"10.0x", "3.0x"},
	} {
		if row := rows[metric]; row[3] != want[0] || row[4] != want[1] {
			t.Fatalf("%s row %v, want floor %s and current %s", metric, row, want[0], want[1])
		}
	}

	// A divergent apply fails every record of the case.
	run.WarmSpeedup, run.ApplySpeedup, run.Identical = 100, 50, false
	for _, f := range Gate(run.records(), base) {
		if f.Level != GateFail {
			t.Fatalf("%s of a non-identical run should fail, got %+v", f.Metric, f)
		}
	}

	// A corpus with no baseline record warns on its wall clocks instead of
	// comparing, while its floors still gate.
	run.Identical = true
	fs = Gate(run.records(), nil)
	if f := findingFor(t, fs, "curate", "gen-10k", "warm_load_ms"); f.Level != GateWarn || f.Note == "" {
		t.Fatalf("missing curate baseline should warn with a note, got %+v", f)
	}
	if f := findingFor(t, fs, "curate", "gen-10k", "apply_speedup"); f.Level != GateOK {
		t.Fatalf("a healthy floor should pass without a baseline, got %+v", f)
	}
}

func TestBaselineRoundTrip(t *testing.T) {
	dir := t.TempDir()
	current, _ := gateFixture()
	current = append(current, curateRun{Corpus: "gen-10k", WarmSpeedup: 7, Identical: true}.records()...)

	path := filepath.Join(dir, "ledger.json")
	if err := WriteLedger(path, current); err != nil {
		t.Fatal(err)
	}
	got, err := LoadLedger(path)
	if err != nil || len(got) != len(current) {
		t.Fatalf("ledger round trip: %v %+v", err, got)
	}
	for i := range got {
		if got[i] != current[i] {
			t.Fatalf("record %d: got %+v, want %+v", i, got[i], current[i])
		}
	}

	if _, err := LoadLedger(filepath.Join(dir, "nope.json")); err == nil {
		t.Fatal("missing file should error")
	}
	// A file in any other shape is rejected, not gated as empty records.
	old := filepath.Join(dir, "old.json")
	if err := os.WriteFile(old, []byte(`[{"dataset":"a","batch_ms":1,"identical":true}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadLedger(old); err == nil {
		t.Fatal("a non-ledger file should fail to load")
	}
}

// TestCommittedLedgerSelfGates pins the committed baseline: it loads in
// the writer's exact format, gates against itself with no warn or fail,
// and still carries the registry's two speedup floors, so a refresh cannot
// silently drop the contract.
func TestCommittedLedgerSelfGates(t *testing.T) {
	const path = "../../BENCH_ledger.json"
	ledger, err := LoadLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	fs := Gate(ledger, ledger)
	if fails, warns, line := GateSummary(fs); fails != 0 || warns != 0 {
		t.Fatalf("committed ledger does not self-gate cleanly: %s", line)
	}
	floors := map[string]float64{}
	for _, r := range ledger {
		if r.Floor > 0 {
			floors[r.Experiment+"/"+r.Case+"/"+r.Metric] = r.Floor
		}
	}
	want := map[string]float64{
		"curate/gen-10k/warm_speedup":  warmSpeedupFloor,
		"curate/gen-10k/apply_speedup": applySpeedupFloor,
	}
	if len(floors) != len(want) {
		t.Fatalf("floor records %v, want %v", floors, want)
	}
	for k, v := range want {
		if floors[k] != v {
			t.Fatalf("floor %s = %v, want %v", k, floors[k], v)
		}
	}

	rewritten := filepath.Join(t.TempDir(), "ledger.json")
	if err := WriteLedger(rewritten, ledger); err != nil {
		t.Fatal(err)
	}
	a, _ := os.ReadFile(path)
	b, _ := os.ReadFile(rewritten)
	if !bytes.Equal(a, b) {
		t.Fatal("committed ledger is not in WriteLedger's format; refresh it with lsbench -json")
	}
}
