// Package entropy implements the paper's standardization measure: the
// relative entropy (KL divergence) between a script's data-preparation-step
// distribution P(x) and the corpus distribution Q(x), both defined over the
// data-flow edge vocabulary of the DAG representation (Definition 4.1).
//
// The paper's RE is infinite when the script contains an edge with Q(x)=0;
// we apply additive ε-smoothing over the union sample space so RE stays
// finite while preserving the paper's orderings (see DESIGN.md).
package entropy

import (
	"math"
	"slices"
	"sort"
	"strings"

	"lucidscript/internal/dag"
)

// Epsilon is the additive smoothing pseudo-count applied to Q(x).
const Epsilon = 0.5

// Vocab holds the search-space statistics curated offline from a corpus
// (Section 5.1): atom and edge vocabularies with counts, plus the relative
// position of each line atom inside its source scripts (used to place add
// transformations).
type Vocab struct {
	// EdgeCounts maps edge keys to occurrence counts across the corpus.
	EdgeCounts map[string]int
	// TotalEdges is the sum over EdgeCounts.
	TotalEdges int
	// LineCounts maps line-atom keys to occurrence counts.
	LineCounts map[string]int
	// UnigramCounts maps 1-gram atom keys to occurrence counts.
	UnigramCounts map[string]int
	// Lines maps a line-atom key to a representative LineInfo, usable as an
	// insertable statement (all corpus scripts are lemmatized, so the atom is
	// directly transplantable).
	Lines map[string]dag.LineInfo
	// MeanPos maps a line-atom key to its mean relative position in [0,1]
	// across the corpus scripts that contain it.
	MeanPos map[string]float64
	// NumScripts is the corpus size.
	NumScripts int

	idx *edgeIndex
}

// BuildVocab curates the search space from corpus DAGs with every script
// weighted equally.
func BuildVocab(graphs []*dag.Graph) *Vocab {
	return BuildVocabWeighted(graphs, nil)
}

// ScriptStats is the per-script contribution to the corpus distributions:
// the script's atom-key sequences plus its corpus weight. It is everything
// the vocabulary fold needs, decoupled from the DAG it came from, so a
// persistent registry can cache one ScriptStats per corpus member and
// re-fold after membership changes without re-lemmatizing anything.
type ScriptStats struct {
	// Weight is the script's corpus weight; non-positive folds as 1.
	Weight int
	// LineKeys are the script's line-atom keys in statement order (the
	// order matters: relative atom positions feed MeanPos).
	LineKeys []string
	// EdgeKeys are the script's data-flow edge keys (a multiset).
	EdgeKeys []string
	// UnigramKeys are the script's 1-gram atom keys.
	UnigramKeys []string
}

// StatsOf extracts one script's fold contribution from its DAG.
func StatsOf(g *dag.Graph, weight int) ScriptStats {
	st := ScriptStats{
		Weight:      weight,
		LineKeys:    make([]string, len(g.Lines)),
		EdgeKeys:    make([]string, len(g.Edges)),
		UnigramKeys: g.Unigrams,
	}
	for i, li := range g.Lines {
		st.LineKeys[i] = li.Key
	}
	for i, e := range g.Edges {
		st.EdgeKeys[i] = e.Key()
	}
	return st
}

// BuildVocabWeighted curates the search space with per-script integer
// weights (Section 8 suggests weighting scripts by expert authorship or
// Kaggle vote counts). A weight w makes the script count as w copies in
// every distribution; nil weights or non-positive entries default to 1.
func BuildVocabWeighted(graphs []*dag.Graph, weights []int) *Vocab {
	stats := make([]ScriptStats, len(graphs))
	atoms := map[string]dag.LineInfo{}
	for gi, g := range graphs {
		w := 1
		if gi < len(weights) && weights[gi] > 0 {
			w = weights[gi]
		}
		stats[gi] = StatsOf(g, w)
		for _, li := range g.Lines {
			if _, ok := atoms[li.Key]; !ok {
				atoms[li.Key] = li
			}
		}
	}
	return BuildVocabFromStats(stats, atoms)
}

// BuildVocabFromStats folds per-script stats into a fresh Vocab. It is the
// single fold both curation paths share: BuildVocabWeighted delegates here,
// and the corpus registry re-folds its cached stats here after incremental
// membership changes — so the incremental result is byte-identical to a
// from-scratch curation of the same scripts in the same order (the
// floating-point MeanPos accumulation runs the exact same operation
// sequence). atoms supplies the representative LineInfo per line-atom key;
// an atom key is its canonical lemmatized source, so the representative is
// the same whichever script contributed it.
func BuildVocabFromStats(stats []ScriptStats, atoms map[string]dag.LineInfo) *Vocab {
	v := &Vocab{
		EdgeCounts:    map[string]int{},
		LineCounts:    map[string]int{},
		UnigramCounts: map[string]int{},
		Lines:         map[string]dag.LineInfo{},
		MeanPos:       map[string]float64{},
		NumScripts:    0,
	}
	posSum := map[string]float64{}
	posN := map[string]int{}
	for _, st := range stats {
		w := st.Weight
		if w <= 0 {
			w = 1
		}
		v.NumScripts += w
		for _, ek := range st.EdgeKeys {
			v.EdgeCounts[ek] += w
			v.TotalEdges += w
		}
		n := len(st.LineKeys)
		for i, lk := range st.LineKeys {
			v.LineCounts[lk] += w
			if _, ok := v.Lines[lk]; !ok {
				v.Lines[lk] = atoms[lk]
			}
			if n > 1 {
				posSum[lk] += float64(w) * float64(i) / float64(n-1)
			}
			posN[lk] += w
		}
		for _, u := range st.UnigramKeys {
			v.UnigramCounts[u] += w
		}
	}
	for k, n := range posN {
		v.MeanPos[k] = posSum[k] / float64(n)
	}
	v.buildIndex()
	return v
}

// NumUniqueEdges returns |V_E'|, the edge vocabulary size.
func (v *Vocab) NumUniqueEdges() int { return len(v.EdgeCounts) }

// NumUniqueLines returns the number of distinct line (n-gram) atoms.
func (v *Vocab) NumUniqueLines() int { return len(v.LineCounts) }

// NumUniqueUnigrams returns the number of distinct 1-gram atoms.
func (v *Vocab) NumUniqueUnigrams() int { return len(v.UnigramCounts) }

// SortedLineKeys returns the line-atom keys ordered by descending corpus
// count, ties broken lexicographically, for deterministic enumeration. The
// order is computed once when the Vocab is built; the returned slice is
// shared and must not be modified.
func (v *Vocab) SortedLineKeys() []string { return v.idx.lineKeys }

// EdgeRank returns the rank of the corpus edge e in ascending edge-key
// order, and whether e is a corpus edge at all. The rank is the edge's
// dimension in a dense vector over the corpus edge vocabulary.
func (v *Vocab) EdgeRank(e dag.Edge) (int, bool) {
	r, ok := v.idx.rank[e]
	return int(r), ok
}

// RE computes the smoothed relative entropy of a script DAG w.r.t. the
// corpus (Definition 4.1).
func (v *Vocab) RE(g *dag.Graph) float64 { return v.RELines(g.Lines) }

// RELines computes the smoothed relative entropy of a line-atom sequence
// against the corpus distribution, deriving its edges first. This is the
// scoring primitive of the search.
//
// Its cost depends only on the script: corpus edges are looked up in the
// Vocab's index, and the union sample space (corpus edges plus script
// edges) is counted rather than materialized. Terms are summed in ascending
// order of the edge key From + " -> " + To, so the floating-point result is
// reproducible, and two edges with equal keys form one term. An empty edge
// list yields the maximum possible RE over the corpus edges (a script with
// no steps is maximally non-standard relative to any corpus with steps; the
// paper leaves this case undefined).
func (v *Vocab) RELines(lines []dag.LineInfo) float64 {
	edges := dag.EdgesOf(lines)
	if len(edges) == 0 {
		return v.idx.emptyRE
	}
	terms := make([]reTerm, len(edges))
	for i, e := range edges {
		if r, ok := v.idx.rank[e]; ok {
			terms[i] = reTerm{key: edgeKey{v.idx.keys[r], "", ""}, rank: int(r), n: 1}
		} else {
			terms[i] = reTerm{key: edgeKey{e.From, edgeSep, e.To}, rank: -1, n: 1}
		}
	}
	slices.SortFunc(terms, compareTerms)
	// Merge equal keys; count the script edges the corpus lacks, which
	// enlarge the union space.
	m, absent := 0, 0
	for i := range terms {
		if m > 0 && compareTerms(terms[m-1], terms[i]) == 0 {
			terms[m-1].n++
			continue
		}
		if terms[i].rank < 0 {
			absent++
		}
		terms[m] = terms[i]
		m++
	}
	qTotal := float64(v.TotalEdges) + Epsilon*float64(len(v.idx.keys)+absent)
	pTotal := float64(len(edges))
	re := 0.0
	for _, t := range terms[:m] {
		count := 0
		if t.rank >= 0 {
			count = v.idx.counts[t.rank]
		}
		px := float64(t.n) / pTotal
		qx := (float64(count) + Epsilon) / qTotal
		re += px * math.Log(px/qx)
	}
	return re
}

// edgeIndex is a Vocab's read-only scoring index, built once with the
// Vocab so that ranking a candidate costs time in the candidate's own
// edges, not in the corpus size.
type edgeIndex struct {
	// keys are the corpus edge keys in ascending order; a key's position
	// is its rank.
	keys []string
	// counts[r] is EdgeCounts[keys[r]].
	counts []int
	// rank maps every (From, To) split of a corpus edge key to the key's
	// rank. A key containing " -> " inside an atom has several splits, so
	// any edge whose rendered key is a corpus key is found without
	// rendering it.
	rank map[dag.Edge]int32
	// lineKeys is the SortedLineKeys order.
	lineKeys []string
	// emptyRE is the RE of a script without edges: a uniform P over the
	// corpus edges.
	emptyRE float64
}

// buildIndex derives the scoring index from the Vocab's counts. Every
// constructor calls it last; the counts must not change afterwards.
func (v *Vocab) buildIndex() {
	idx := &edgeIndex{
		keys: make([]string, 0, len(v.EdgeCounts)),
		rank: make(map[dag.Edge]int32, len(v.EdgeCounts)),
	}
	for k := range v.EdgeCounts {
		idx.keys = append(idx.keys, k)
	}
	sort.Strings(idx.keys)
	idx.counts = make([]int, len(idx.keys))
	for r, k := range idx.keys {
		idx.counts[r] = v.EdgeCounts[k]
		for i := 0; ; i++ {
			j := strings.Index(k[i:], edgeSep)
			if j < 0 {
				break
			}
			i += j
			idx.rank[dag.Edge{From: k[:i], To: k[i+len(edgeSep):]}] = int32(r)
		}
	}
	if n := float64(len(idx.keys)); n > 0 {
		qTotal := float64(v.TotalEdges) + Epsilon*n
		for _, c := range idx.counts {
			px := 1.0 / n
			qx := (float64(c) + Epsilon) / qTotal
			idx.emptyRE += px * math.Log(px/qx)
		}
	}
	idx.lineKeys = make([]string, 0, len(v.LineCounts))
	for k := range v.LineCounts {
		idx.lineKeys = append(idx.lineKeys, k)
	}
	sort.Slice(idx.lineKeys, func(i, j int) bool {
		a, b := idx.lineKeys[i], idx.lineKeys[j]
		if v.LineCounts[a] != v.LineCounts[b] {
			return v.LineCounts[a] > v.LineCounts[b]
		}
		return a < b
	})
	v.idx = idx
}

// edgeSep joins an edge's atoms in its key (see dag.Edge.Key).
const edgeSep = " -> "

// edgeKey is an edge key held as the concatenation of its parts, so a
// script edge can be ordered against corpus keys without rendering it.
type edgeKey [3]string

// compareEdgeKeys orders two keys as strings.Compare orders their
// concatenations.
func compareEdgeKeys(x, y edgeKey) int {
	xi, yi := 0, 0
	a, b := x[0], y[0]
	for {
		for a == "" && xi < len(x)-1 {
			xi++
			a = x[xi]
		}
		for b == "" && yi < len(y)-1 {
			yi++
			b = y[yi]
		}
		if a == "" || b == "" {
			switch {
			case a != "":
				return 1
			case b != "":
				return -1
			}
			return 0
		}
		n := min(len(a), len(b))
		if c := strings.Compare(a[:n], b[:n]); c != 0 {
			return c
		}
		a, b = a[n:], b[n:]
	}
}

// reTerm is one distinct edge key of a scored script: its rank among the
// corpus edges (-1 when the corpus lacks it) and its multiplicity.
type reTerm struct {
	key  edgeKey
	rank int
	n    int
}

func compareTerms(a, b reTerm) int {
	if a.rank >= 0 && b.rank >= 0 {
		return a.rank - b.rank
	}
	return compareEdgeKeys(a.key, b.key)
}

// Improvement returns the paper's "% improvement" of a modified script over
// the original: (RE(s_u) - RE(ŝ_u)) / RE(s_u) × 100.
func Improvement(reOrig, reNew float64) float64 {
	if reOrig == 0 {
		return 0
	}
	return (reOrig - reNew) / reOrig * 100
}
