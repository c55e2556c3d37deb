package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n       int
		wantPct float64
		wantVal float64
	}{
		{200, 95, 190},  // exactly ten beyond p95
		{1000, 95, 950}, // plenty: the asked-for percentile
		{150, 93.3, 140},
		{26, 61.5, 16},
		{12, 50, 6}, // too few for any tail: never below the median
	}
	for _, c := range cases {
		v, pct, n := tail(seq(c.n), 95)
		if n != c.n || pct != c.wantPct || v != c.wantVal {
			t.Errorf("tail(1..%d) = %v at p%v of %d, want %v at p%v", c.n, v, pct, n, c.wantVal, c.wantPct)
		}
		beyond := 0
		for _, x := range seq(c.n) {
			if x > v {
				beyond++
			}
		}
		if c.n >= 20 && beyond < minBeyond {
			t.Errorf("n=%d: only %d samples beyond the tail", c.n, beyond)
		}
	}
	if v, pct, n := tail(nil, 95); v != 0 || pct != 0 || n != 0 {
		t.Errorf("tail(nil) = %v %v %v", v, pct, n)
	}
}

func TestScheduleAndOpenLoopAccounting(t *testing.T) {
	due, stage := schedule([]step{{Rate: 10, Dur: time.Second}, {Rate: 20, Dur: 500 * time.Millisecond}})
	if len(due) != 20 || stage[9] != 0 || stage[10] != 1 {
		t.Fatalf("schedule: %d jobs, stages %v", len(due), stage)
	}
	if due[1] != 100*time.Millisecond || due[10] != time.Second || due[11] != time.Second+50*time.Millisecond {
		t.Errorf("due times %v %v %v", due[1], due[10], due[11])
	}
	// A generator stall of 300ms delays the send: latency still counts
	// from the due time, and the lateness is reported.
	lat, late := openLoopTimes(time.Second, 1300*time.Millisecond, 1350*time.Millisecond)
	if lat != 350*time.Millisecond || late != 300*time.Millisecond {
		t.Errorf("stalled job: latency %v late %v", lat, late)
	}
	// A job sent early is not "negative late".
	if _, late := openLoopTimes(time.Second, time.Second-time.Millisecond, 2*time.Second); late != 0 {
		t.Errorf("early send reported late %v", late)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "pass", Start: 0, End: 100 * ms, Parent: -1},
		// Two concurrent children overlapping on [20,40]: their union is
		// [10,50], and with the clipped [90,100] below the parent's self
		// time is 100-40-10 = 50.
		{Name: "batch", Start: 10 * ms, End: 40 * ms, Parent: 0},
		{Name: "batch", Start: 20 * ms, End: 50 * ms, Parent: 0},
		// A child running past its parent's end is clipped.
		{Name: "hash", Start: 90 * ms, End: 120 * ms, Parent: 0},
		// A grandchild is charged to its own parent only.
		{Name: "read", Start: 15 * ms, End: 25 * ms, Parent: 1},
	}
	want := []time.Duration{50 * ms, 20 * ms, 30 * ms, 30 * ms, 10 * ms}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("%s span %d: self time %v, want %v", spans[i].Name, i, got, want[i])
		}
	}
}

func TestMaxRateRule(t *testing.T) {
	fast := make([]float64, 200)
	for i := range fast {
		fast[i] = 40
	}
	slowTail := append([]float64(nil), fast...)
	for i := 180; i < 200; i++ {
		slowTail[i] = 400 // 10% of jobs over the limit: p95 misses it
	}
	failed := append([]float64(nil), fast...)
	for i := 185; i < 200; i++ {
		failed[i] = math.Inf(1) // failed jobs miss any limit
	}
	cases := []struct {
		name  string
		steps []stepOutcome
		want  int
	}{
		{"all pass", []stepOutcome{{Rate: 10, LatenciesMS: fast}, {Rate: 20, LatenciesMS: fast}}, 20},
		{"tail over limit", []stepOutcome{{Rate: 10, LatenciesMS: fast}, {Rate: 20, LatenciesMS: slowTail}}, 10},
		{"failures count as misses", []stepOutcome{{Rate: 10, LatenciesMS: fast}, {Rate: 20, LatenciesMS: failed}}, 10},
		{"backlog grows", []stepOutcome{{Rate: 10, LatenciesMS: fast}, {Rate: 20, LatenciesMS: fast, BacklogStart: 1, BacklogEnd: 20}}, 10},
		{"backlog within slack", []stepOutcome{{Rate: 20, LatenciesMS: fast, BacklogStart: 1, BacklogEnd: 6}}, 20},
		{"none", []stepOutcome{{Rate: 10, LatenciesMS: slowTail}}, 0},
	}
	for _, c := range cases {
		if got := maxRate(c.steps); got != c.want {
			t.Errorf("%s: maxRate = %d, want %d", c.name, got, c.want)
		}
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, n := range append(append([]string(nil), e2eNames...), layerNames...) {
		if !metricName.MatchString(n) || len(n) > 64 {
			t.Errorf("metric name %q does not match %v", n, metricName)
		}
		if seen[n] {
			t.Errorf("metric %q listed twice", n)
		}
		seen[n] = true
	}
	for _, n := range e2eNames {
		if e2eUnits[n] == "" {
			t.Errorf("end-to-end metric %q has no unit", n)
		}
	}
	for _, n := range layerNames {
		if layerUnits[n] == "" {
			t.Errorf("layer metric %q has no unit", n)
		}
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metrics the
// runner prints in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type m struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []m `json:"end_to_end"`
		PerLayer  []m `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
	check := func(kind string, listed []m, names []string, units map[string]string) {
		if len(listed) != len(names) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the runner prints %d", kind, len(listed), len(names))
		}
		for i, x := range listed {
			if i < len(names) && (x.Name != names[i] || x.Unit != units[names[i]]) {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the runner %s [%s]", kind, i, x.Name, x.Unit, names[i], units[names[i]])
			}
		}
	}
	check("end_to_end", b.EndToEnd, e2eNames, e2eUnits)
	check("per_layer", b.PerLayer, layerNames, layerUnits)
}
