package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Record is one entry of the perf ledger: a single measured value of one
// experiment case. The same flat []Record is what `lsbench -json` writes,
// what the committed BENCH_ledger.json baseline holds, and what Gate
// compares, so refreshing the baseline is rerunning the report.
type Record struct {
	Experiment string  `json:"experiment"`
	Case       string  `json:"case"`
	Metric     string  `json:"metric"`
	Unit       string  `json:"unit"`
	Value      float64 `json:"value"`
	// Floor, when positive, is the lowest Value the gate accepts. Floored
	// records are machine-independent contracts (speedup ratios), so they
	// gate without a baseline; every other record is a lower-is-better
	// wall clock gated against its baseline record.
	Floor float64 `json:"floor,omitempty"`
	// Identical reports that the case's outputs matched their reference
	// byte for byte; the gate fails any record without it.
	Identical bool `json:"identical"`
}

// MSRecord is a wall-clock record in milliseconds of a case whose outputs
// matched their reference.
func MSRecord(experiment, kase, metric string, ms float64) Record {
	return Record{Experiment: experiment, Case: kase, Metric: metric, Unit: "ms", Value: ms, Identical: true}
}

func (r Record) key() [3]string { return [3]string{r.Experiment, r.Case, r.Metric} }

// Wall-clock comparisons across machines are noisy, so the gate has two
// tiers: current/baseline ratios above warnRatio are reported but
// tolerated, ratios above failRatio flunk the gate.
const (
	warnRatio = 1.5
	failRatio = 3.0
)

// Gate severity levels, ordered.
const (
	GateOK   = "ok"
	GateWarn = "warn"
	GateFail = "fail"
)

// GateFinding is the verdict on one current record. Baseline is the
// joined baseline value, or the floor for a floored record.
type GateFinding struct {
	Record
	Baseline float64
	Ratio    float64
	Level    string
	Note     string
}

// Gate returns one finding per current record. A non-identical record
// fails; a floored record fails below its floor; any other record is
// joined to the baseline on (experiment, case, metric) — warning when it
// has no baseline record — and its current/baseline ratio warns above
// warnRatio and fails above failRatio.
func Gate(current, baseline []Record) []GateFinding {
	base := make(map[[3]string]float64, len(baseline))
	for _, b := range baseline {
		base[b.key()] = b.Value
	}
	findings := make([]GateFinding, 0, len(current))
	for _, cur := range current {
		f := GateFinding{Record: cur, Level: GateOK}
		b, ok := base[cur.key()]
		switch {
		case !cur.Identical:
			f.Level, f.Note = GateFail, "output not byte-identical to its reference"
		case cur.Floor > 0:
			f.Baseline, f.Note = cur.Floor, "floor"
			if cur.Value < cur.Floor {
				f.Level, f.Note = GateFail, "below floor"
			}
		case !ok:
			f.Level, f.Note = GateWarn, "no baseline record"
		default:
			f.Baseline = b
			if b > 0 {
				f.Ratio = cur.Value / b
			}
			if f.Ratio > failRatio {
				f.Level = GateFail
			} else if f.Ratio > warnRatio {
				f.Level = GateWarn
			}
		}
		findings = append(findings, f)
	}
	return findings
}

// FormatValue renders a record value in its unit.
func FormatValue(v float64, unit string) string {
	return strconv.FormatFloat(v, 'f', 1, 64) + unit
}

// GateTable renders the findings as a result table.
func GateTable(findings []GateFinding) *Table {
	t := &Table{
		Title:  "Perf-regression gate (current run vs committed ledger)",
		Header: []string{"experiment", "case", "metric", "baseline", "current", "ratio", "level"},
	}
	for _, f := range findings {
		baseline, ratio := "-", "-"
		if f.Baseline > 0 {
			baseline = FormatValue(f.Baseline, f.Unit)
		}
		if f.Ratio > 0 {
			ratio = fmt.Sprintf("%.2fx", f.Ratio)
		}
		level := f.Level
		if f.Note != "" {
			level += " (" + f.Note + ")"
		}
		t.Rows = append(t.Rows, []string{
			f.Experiment, f.Case, f.Metric, baseline, FormatValue(f.Value, f.Unit), ratio, level,
		})
	}
	return t
}

// GateSummary counts findings by level and renders a one-line verdict.
func GateSummary(findings []GateFinding) (fails, warns int, line string) {
	for _, f := range findings {
		switch f.Level {
		case GateFail:
			fails++
		case GateWarn:
			warns++
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "gate: %d comparisons, %d warn, %d fail", len(findings), warns, fails)
	if fails > 0 {
		b.WriteString(" — REGRESSION")
	} else {
		b.WriteString(" — pass")
	}
	return fails, warns, b.String()
}

// LoadLedger reads a ledger file: an `lsbench -json` report or the
// committed BENCH_ledger.json. Unknown fields are rejected, so a file in
// any other shape fails loudly instead of gating as empty records.
func LoadLedger(path string) ([]Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var recs []Record
	if err := dec.Decode(&recs); err != nil {
		return nil, fmt.Errorf("bench: parsing ledger %s: %w", path, err)
	}
	return recs, nil
}

// WriteLedger writes records to path as indented, newline-terminated JSON,
// the committed baseline's formatting, so refreshes produce minimal diffs.
func WriteLedger(path string, recs []Record) error {
	data, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("bench: writing %s: %w", path, err)
	}
	return nil
}
