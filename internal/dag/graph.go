package dag

import (
	"strings"

	"lucidscript/internal/script"
)

// LineInfo is a line-level (n-gram) atom: one lemmatized statement together
// with its canonical key and the variables it reads and writes.
type LineInfo struct {
	Key    string // canonical lemmatized source — the atom identity
	Stmt   script.Stmt
	Reads  []string
	Writes []string
}

// Edge is a data-flow edge between two line atoms: To reads a variable that
// From was the most recent writer of.
type Edge struct {
	From, To string // atom keys
}

// Key renders the edge as a single vocabulary key.
func (e Edge) Key() string { return e.From + " -> " + e.To }

// Graph is the DAG representation of one script.
type Graph struct {
	// Script is the lemmatized script the graph was built from.
	Script *script.Script
	// Lines holds one line atom per statement, in order.
	Lines []LineInfo
	// Edges holds the data-flow edges (a multiset).
	Edges []Edge
	// Unigrams holds all operation-invocation (1-gram) atom keys, flattened
	// across statements.
	Unigrams []string
}

// Build lemmatizes the script and constructs its DAG.
func Build(s *script.Script) *Graph {
	lem := Lemmatize(s)
	g := &Graph{Script: lem}
	for _, st := range lem.Stmts {
		g.Lines = append(g.Lines, NewLineInfo(st))
		g.Unigrams = append(g.Unigrams, UnigramAtoms(st)...)
	}
	g.Edges = EdgesOf(g.Lines)
	return g
}

// NewLineInfo builds the line atom for a single (already lemmatized) statement.
func NewLineInfo(st script.Stmt) LineInfo {
	r, w := readsWrites(st)
	return LineInfo{Key: st.Source(), Stmt: st, Reads: r, Writes: w}
}

// EdgesOf derives the data-flow edges of an ordered line-atom sequence:
// for every variable a line reads, an edge is added from the nearest earlier
// line that writes that variable. This is the paper's E′, the sample space
// of the standardness measure.
func EdgesOf(lines []LineInfo) []Edge {
	lastWriter := map[string]int{}
	var edges []Edge
	// seen holds the writers already linked to the current line; it is
	// bounded by one statement's reads, so a reused slice replaces a
	// per-line map.
	var seen []int
	for i, li := range lines {
		seen = seen[:0]
	reads:
		for _, r := range li.Reads {
			w, ok := lastWriter[r]
			if !ok {
				continue
			}
			for _, s := range seen {
				if s == w {
					continue reads
				}
			}
			seen = append(seen, w)
			edges = append(edges, Edge{From: lines[w].Key, To: li.Key})
		}
		for _, w := range li.Writes {
			lastWriter[w] = i
		}
	}
	return edges
}

// EdgeKeysOf renders EdgesOf as vocabulary keys.
func EdgeKeysOf(lines []LineInfo) []string {
	edges := EdgesOf(lines)
	keys := make([]string, len(edges))
	for i, e := range edges {
		keys[i] = e.Key()
	}
	return keys
}

// ToScript reassembles a script from a line-atom sequence.
func ToScript(lines []LineInfo) *script.Script {
	s := &script.Script{}
	for _, li := range lines {
		s.Stmts = append(s.Stmts, li.Stmt)
	}
	return s
}

// UnigramAtoms extracts the operation-invocation (1-gram) atoms of a
// statement: every call and subscript, rendered with nested invocations
// abstracted to "_" so an atom is exactly one invocation node plus its
// non-invocation parents (Definition 3.1).
func UnigramAtoms(st script.Stmt) []string {
	var atoms []string
	collect := func(e script.Expr) {
		switch v := e.(type) {
		case *script.CallExpr:
			atoms = append(atoms, renderInvocation(v))
		case *script.IndexExpr:
			atoms = append(atoms, renderSubscript(v))
		}
	}
	script.WalkStmt(st, collect)
	return atoms
}

// abstractOperand renders a call/subscript argument, replacing nested
// invocations with "_".
func abstractOperand(e script.Expr) string {
	switch v := e.(type) {
	case *script.CallExpr, *script.IndexExpr:
		return "_"
	case *script.BinaryExpr:
		return abstractOperand(v.X) + " " + v.Op + " " + abstractOperand(v.Y)
	case *script.UnaryExpr:
		return v.Op + abstractOperand(v.X)
	case *script.AttrExpr:
		return abstractOperand(v.X) + "." + v.Attr
	case *script.ListExpr:
		parts := make([]string, len(v.Elems))
		for i, el := range v.Elems {
			parts[i] = abstractOperand(el)
		}
		return "[" + strings.Join(parts, ", ") + "]"
	default:
		return e.Source()
	}
}

func renderInvocation(c *script.CallExpr) string {
	var b strings.Builder
	b.WriteString(abstractOperand2(c.Fn))
	b.WriteByte('(')
	parts := make([]string, 0, len(c.Args)+len(c.Kwargs))
	for _, a := range c.Args {
		parts = append(parts, abstractOperand(a))
	}
	for _, k := range c.Kwargs {
		parts = append(parts, k.Name+"="+abstractOperand(k.Value))
	}
	b.WriteString(strings.Join(parts, ", "))
	b.WriteByte(')')
	return b.String()
}

func renderSubscript(ix *script.IndexExpr) string {
	return abstractOperand2(ix.X) + "[" + abstractOperand(ix.Index) + "]"
}

// abstractOperand2 renders the function/receiver part of an invocation:
// attribute chains are kept, but a nested invocation receiver is abstracted.
func abstractOperand2(e script.Expr) string {
	switch v := e.(type) {
	case *script.AttrExpr:
		return abstractOperand2(v.X) + "." + v.Attr
	case *script.CallExpr, *script.IndexExpr:
		return "_"
	default:
		return e.Source()
	}
}
