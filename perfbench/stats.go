package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile: with fewer, one outlier decides the value.
const minBeyond = 10

// rank returns the nearest-rank index of percentile q (0..100) in n
// sorted samples.
func rank(q float64, n int) int {
	i := int(math.Ceil(q/100*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i > n-1 {
		i = n - 1
	}
	return i
}

// percentile returns the nearest-rank q-th percentile of xs (0 when xs is
// empty). xs is not modified.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	return s[rank(q, len(s))]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tail applies the reporting rule for latency tails: the highest
// percentile at or below want that has at least minBeyond samples beyond
// it, never below the median. It returns the value, the percentile used
// and the sample count, so a report can say what it measured.
func tail(xs []float64, want float64) (value, pct float64, n int) {
	n = len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	pct = want
	if limit := 100 * float64(n-minBeyond) / float64(n); limit < pct {
		pct = math.Floor(limit*10) / 10
	}
	if pct < 50 {
		pct = 50
	}
	return percentile(xs, pct), pct, n
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// span is one timed call recorded by the benchmark around a call into a
// layer. Parent is the index of the enclosing span, -1 at the root; Job
// ties the spans of one job together (-1 when the span serves no job).
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"`
	Job    int           `json:"job"`
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Children may overlap one another
// (concurrent work under one parent); the covered part is the union of
// their intervals clipped to the parent.
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = (s.End - s.Start) - covered(s, kids[i])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's interval.
func covered(parent span, children []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, c := range children {
		a, b := c.Start, c.End
		if a < parent.Start {
			a = parent.Start
		}
		if b > parent.End {
			b = parent.End
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var curA, curB time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			if v.b > curB {
				curB = v.b
			}
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// step is one fixed-rate stage of the open-loop load.
type step struct {
	Rate int           // jobs per second
	Dur  time.Duration // how long the stage sends
}

// schedule returns the due time of every job, as offsets from the start of
// the load: the stages run back to back, and within a stage job k is due
// at k/rate.
func schedule(steps []step) (due []time.Duration, stepOf []int) {
	var base time.Duration
	for si, st := range steps {
		n := int(math.Round(st.Dur.Seconds() * float64(st.Rate)))
		for k := 0; k < n; k++ {
			due = append(due, base+time.Duration(float64(k)*float64(time.Second)/float64(st.Rate)))
			stepOf = append(stepOf, si)
		}
		base += st.Dur
	}
	return due, stepOf
}

// openLoopTimes turns one job's due, sent and done instants (offsets from
// the start of the load) into the numbers the report uses. Latency runs
// from the due time, not the send time, so a generator stall still
// charges the jobs that waited behind it; lateness is how far the
// generator ran behind its schedule.
func openLoopTimes(due, sent, done time.Duration) (latency, late time.Duration) {
	late = sent - due
	if late < 0 {
		late = 0
	}
	return done - due, late
}

// stepOutcome is what the capacity rule needs to know about one stage.
type stepOutcome struct {
	Rate int
	// LatenciesMS holds one value per job of the stage; a job that failed
	// or was rejected is recorded as +Inf, so it always misses the limit.
	LatenciesMS []float64
	// BacklogStart and BacklogEnd count jobs sent but not finished when
	// the stage began and when it ended.
	BacklogStart, BacklogEnd int
}

// latencyLimitMS is the tail-latency limit a stage must meet to count
// toward served_max_rate.
const latencyLimitMS = 250

// backlogGrew reports whether a stage ended with more unfinished jobs than
// it started with, beyond what the stage's own rate keeps in flight at the
// latency limit.
func backlogGrew(o stepOutcome) bool {
	slack := int(math.Ceil(float64(o.Rate) * latencyLimitMS / 1000))
	return o.BacklogEnd > o.BacklogStart+slack
}

// maxRate returns the highest stage rate whose p95 tail (by the tail rule)
// is within latencyLimitMS and whose backlog did not grow; 0 when no
// stage qualifies.
func maxRate(steps []stepOutcome) int {
	best := 0
	for _, o := range steps {
		if len(o.LatenciesMS) == 0 || backlogGrew(o) {
			continue
		}
		if v, _, _ := tail(o.LatenciesMS, 95); v <= latencyLimitMS && o.Rate > best {
			best = o.Rate
		}
	}
	return best
}
