package entropy

import (
	"encoding/json"
	"fmt"
	"io"

	"lucidscript/internal/dag"
	"lucidscript/internal/script"
)

// vocabDTO is the on-disk form of a curated search space. Line atoms are
// stored as canonical source text and re-parsed on load, so the format is
// stable across internal AST changes.
type vocabDTO struct {
	Version       int                `json:"version"`
	NumScripts    int                `json:"num_scripts"`
	TotalEdges    int                `json:"total_edges"`
	EdgeCounts    map[string]int     `json:"edge_counts"`
	LineCounts    map[string]int     `json:"line_counts"`
	UnigramCounts map[string]int     `json:"unigram_counts"`
	MeanPos       map[string]float64 `json:"mean_pos"`
	// Lines hold the insertable atom sources keyed by atom key; the key is
	// itself the canonical source, but is kept explicit for forward
	// compatibility with richer atom identities.
	Lines map[string]string `json:"lines"`
}

const vocabFormatVersion = 1

// Encode writes the curated search space as JSON, so the offline phase
// (Section 5.1) can run once and be reused across sessions and processes.
func (v *Vocab) Encode(w io.Writer) error {
	dto := vocabDTO{
		Version:       vocabFormatVersion,
		NumScripts:    v.NumScripts,
		TotalEdges:    v.TotalEdges,
		EdgeCounts:    v.EdgeCounts,
		LineCounts:    v.LineCounts,
		UnigramCounts: v.UnigramCounts,
		MeanPos:       v.MeanPos,
		Lines:         map[string]string{},
	}
	for key, li := range v.Lines {
		dto.Lines[key] = li.Stmt.Source()
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(dto)
}

// DecodeVocab reads a search space written by Encode, re-parsing the
// stored atoms.
func DecodeVocab(r io.Reader) (*Vocab, error) {
	var dto vocabDTO
	if err := json.NewDecoder(r).Decode(&dto); err != nil {
		return nil, fmt.Errorf("entropy: decoding search space: %w", err)
	}
	if dto.Version != vocabFormatVersion {
		return nil, fmt.Errorf("entropy: unsupported search-space version %d", dto.Version)
	}
	v := &Vocab{
		NumScripts:    dto.NumScripts,
		TotalEdges:    dto.TotalEdges,
		EdgeCounts:    orEmpty(dto.EdgeCounts),
		LineCounts:    orEmpty(dto.LineCounts),
		UnigramCounts: orEmpty(dto.UnigramCounts),
		MeanPos:       dto.MeanPos,
		Lines:         map[string]dag.LineInfo{},
	}
	if v.MeanPos == nil {
		v.MeanPos = map[string]float64{}
	}
	for key, src := range dto.Lines {
		st, err := script.ParseStmt(src)
		if err != nil {
			return nil, fmt.Errorf("entropy: stored atom %q does not parse: %w", src, err)
		}
		li := dag.NewLineInfo(st)
		if li.Key != key {
			return nil, fmt.Errorf("entropy: stored atom key mismatch: %q vs %q", li.Key, key)
		}
		v.Lines[key] = li
	}
	v.buildIndex()
	return v, nil
}

func orEmpty(m map[string]int) map[string]int {
	if m == nil {
		return map[string]int{}
	}
	return m
}
