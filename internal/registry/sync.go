package registry

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// ReadDir reads every *.ls and *.py file in dir as a corpus member keyed
// by file name, sorted by name so curation order is stable. The sources
// are not parsed here: Create and Apply reject an unparseable member,
// while callers that curate in-process choose their own policy. A
// directory holding no scripts is an error.
func ReadDir(dir string) ([]Script, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && (strings.HasSuffix(e.Name(), ".ls") || strings.HasSuffix(e.Name(), ".py")) {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no *.ls or *.py scripts in %s", dir)
	}
	sort.Strings(names)
	members := make([]Script, len(names))
	for i, n := range names {
		b, err := os.ReadFile(filepath.Join(dir, n))
		if err != nil {
			return nil, err
		}
		members[i] = Script{ID: n, Source: string(b)}
	}
	return members, nil
}

// SyncReport says what Sync did, for the caller to log.
type SyncReport struct {
	// Created is set when Sync seeded an uninitialized registry.
	Created bool
	// Added and Removed count the members a reconcile added and
	// tombstoned; an edited script counts once in each. Both stay zero on
	// create, on a warm load, and when the directory already matches.
	Added, Removed int
}

// Sync opens the registry at regDir and brings it in line with corpusDir:
//
//   - an uninitialized registry is created from corpusDir (an error when
//     corpusDir is empty);
//   - with an empty corpusDir an initialized registry is warm-loaded as-is;
//   - otherwise the directory is diffed against the live membership, and
//     new, vanished and edited scripts are applied incrementally and
//     published as one new version. An unchanged directory publishes
//     nothing.
//
// Changed members are tombstoned and re-appended, so they follow the
// unchanged ones in curation order; the result is byte-identical to Create
// over the membership in that order.
func Sync(regDir, corpusDir string) (*Registry, SyncReport, error) {
	if !IsInitialized(regDir) {
		if corpusDir == "" {
			return nil, SyncReport{}, fmt.Errorf("%w in %s; a corpus directory is needed to seed it", ErrNoCorpus, regDir)
		}
		members, err := ReadDir(corpusDir)
		if err != nil {
			return nil, SyncReport{}, err
		}
		reg, err := Create(regDir, members)
		if err != nil {
			return nil, SyncReport{}, err
		}
		return reg, SyncReport{Created: true}, nil
	}
	reg, err := Open(regDir)
	if err != nil || corpusDir == "" {
		return reg, SyncReport{}, err
	}
	want, err := ReadDir(corpusDir)
	if err != nil {
		return nil, SyncReport{}, err
	}
	have, err := reg.Members()
	if err != nil {
		return nil, SyncReport{}, err
	}
	add, remove := diffMembers(have, want)
	rep := SyncReport{Added: len(add), Removed: len(remove)}
	if len(add) == 0 && len(remove) == 0 {
		return reg, rep, nil
	}
	// Apply validates adds against the pre-remove membership, so an edited
	// script (in both lists) is tombstoned first, then re-added.
	if err := reg.Apply(nil, remove); err != nil {
		return nil, SyncReport{}, err
	}
	if err := reg.Apply(add, nil); err != nil {
		return nil, SyncReport{}, err
	}
	if _, err := reg.Publish(); err != nil {
		return nil, SyncReport{}, err
	}
	return reg, rep, nil
}

// diffMembers returns the members to add (new or edited in want) and to
// remove (vanished from want, or the stale copy of an edited one).
func diffMembers(have, want []Script) (add, remove []Script) {
	haveByID := make(map[string]Script, len(have))
	for _, m := range have {
		haveByID[m.ID] = m
	}
	for _, m := range want {
		prev, ok := haveByID[m.ID]
		delete(haveByID, m.ID)
		switch {
		case !ok:
			add = append(add, m)
		// The registry stores non-positive weights as 1; compare the same
		// way so an unchanged directory diffs clean.
		case prev.Source != m.Source || prev.Weight != max(m.Weight, 1):
			remove = append(remove, prev)
			add = append(add, m)
		}
	}
	// Whatever want never matched has vanished; keep curation order.
	for _, m := range have {
		if _, vanished := haveByID[m.ID]; vanished {
			remove = append(remove, m)
		}
	}
	return add, remove
}
