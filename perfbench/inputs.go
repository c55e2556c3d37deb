package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"lucidscript"
	"lucidscript/internal/corpusgen"
)

// competition is one generated input set as the program sees it: CSV files
// on disk and script sources as text. Generation happens before any timed
// region; set-up then reads and parses these like a user's files.
type competition struct {
	Name    string
	Target  string
	Files   []string // CSV paths, main file first
	Corpus  []string // corpus script sources, in generation order
	MainRow int      // rows of the main data file
}

// genSeed fixes the generated corpora and datasets, so every run measures
// the same work: corpusgen's data and script mix move the cost of a pass
// by up to 2x from one generation seed to the next, far more than any
// bound could absorb. The run seed varies what a user of the same data
// varies: the order batch jobs arrive in and which scripts the served
// clients submit (see README.md).
const genSeed = 1

// generate writes the competition's dataset under dir and returns it with
// its corpus sources.
func generate(name string, rowScale float64, dir string) (*competition, error) {
	comp, err := corpusgen.Get(name)
	if err != nil {
		return nil, err
	}
	g, err := comp.Generate(corpusgen.GenOptions{Seed: genSeed, RowScale: rowScale})
	if err != nil {
		return nil, err
	}
	cdir := filepath.Join(dir, name)
	if err := os.MkdirAll(cdir, 0o755); err != nil {
		return nil, err
	}
	c := &competition{Name: name, Target: comp.Target}
	names := make([]string, 0, len(g.Sources))
	for file := range g.Sources {
		if file != comp.File {
			names = append(names, file)
		}
	}
	sort.Strings(names)
	names = append([]string{comp.File}, names...)
	for _, file := range names {
		path := filepath.Join(cdir, file)
		if err := g.Sources[file].WriteCSVFile(path); err != nil {
			return nil, fmt.Errorf("writing %s: %w", path, err)
		}
		c.Files = append(c.Files, path)
	}
	c.MainRow = g.Sources[comp.File].NumRows()
	for _, gs := range g.Scripts {
		c.Corpus = append(c.Corpus, gs.Script.Source())
	}
	return c, nil
}

// loaded is a competition after set-up: its frames and parsed corpus.
type loaded struct {
	Sources map[string]*lucidscript.Frame
	Corpus  []*lucidscript.Script
	Rows    int // rows read across every file
}

// load reads the competition's CSV files and parses its corpus, recording
// one span per call when rec is non-nil.
func (c *competition) load(rec *recorder, parent int) (*loaded, error) {
	l := &loaded{Sources: map[string]*lucidscript.Frame{}}
	for _, path := range c.Files {
		sp := rec.begin("frame.ReadCSVFile", parent, -1)
		f, err := lucidscript.ReadCSVFile(path)
		rec.end(sp)
		if err != nil {
			return nil, err
		}
		l.Sources[filepath.Base(path)] = f
		l.Rows += f.NumRows()
	}
	for i, src := range c.Corpus {
		sp := rec.begin("script.ParseScript", parent, -1)
		sc, err := lucidscript.ParseScript(src)
		rec.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s corpus script %d: %w", c.Name, i, err)
		}
		l.Corpus = append(l.Corpus, sc)
	}
	return l, nil
}
