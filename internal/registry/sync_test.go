package registry

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// writeCorpusFile writes one corpus-directory file.
func writeCorpusFile(t *testing.T, dir, name, src string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
}

// mustReadDir is ReadDir with the error folded into the test.
func mustReadDir(t *testing.T, dir string) []Script {
	t.Helper()
	members, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return members
}

func TestReadDir(t *testing.T) {
	dir := t.TempDir()
	if _, err := ReadDir(dir); err == nil {
		t.Fatal("a directory without scripts should be an error")
	}
	writeCorpusFile(t, dir, "b.py", testSource(1))
	writeCorpusFile(t, dir, "a.ls", testSource(0))
	writeCorpusFile(t, dir, "notes.txt", "not a script")
	if err := os.Mkdir(filepath.Join(dir, "sub.ls"), 0o755); err != nil {
		t.Fatal(err)
	}
	got := mustReadDir(t, dir)
	want := []Script{{ID: "a.ls", Source: testSource(0)}, {ID: "b.py", Source: testSource(1)}}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("ReadDir = %+v, want %+v", got, want)
	}
	if _, err := ReadDir(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("a missing directory should be an error")
	}
}

// TestSync walks one registry through create, warm load, a no-op sync and
// one sync per kind of directory change. Every publishing step adds one
// version whose state is byte-identical to a fresh Create over the
// directory's scripts in Sync's documented order: unchanged members in
// their previous order, then changed ones.
func TestSync(t *testing.T) {
	regDir := filepath.Join(t.TempDir(), "reg")
	corpus := t.TempDir()

	if _, _, err := Sync(regDir, ""); !errors.Is(err, ErrNoCorpus) {
		t.Fatalf("Sync of an empty registry without a corpus: err = %v, want ErrNoCorpus", err)
	}

	for i := 0; i < 5; i++ {
		writeCorpusFile(t, corpus, "s"+string(rune('0'+i))+".ls", testSource(i))
	}
	check := func(step string, reg *Registry, rep, wantRep SyncReport, wantVersion int64, order []Script) {
		t.Helper()
		if rep != wantRep {
			t.Fatalf("%s: report %+v, want %+v", step, rep, wantRep)
		}
		if reg.Version() != wantVersion {
			t.Fatalf("%s: version %d, want %d", step, reg.Version(), wantVersion)
		}
		if !bytes.Equal(mustStateBytes(t, reg), mustStateBytes(t, oracleCreate(t, order))) {
			t.Fatalf("%s: state differs from Create over %d scripts", step, len(order))
		}
		// What was published is what a warm load sees.
		warm, wrep, err := Sync(regDir, "")
		if err != nil {
			t.Fatal(err)
		}
		if wrep != (SyncReport{}) || warm.Version() != wantVersion ||
			!bytes.Equal(mustStateBytes(t, warm), mustStateBytes(t, reg)) {
			t.Fatalf("%s: warm load (%+v, v%d) does not match the synced registry", step, wrep, warm.Version())
		}
	}

	reg, rep, err := Sync(regDir, corpus)
	if err != nil {
		t.Fatal(err)
	}
	check("create", reg, rep, SyncReport{Created: true}, 1, mustReadDir(t, corpus))

	reg, rep, err = Sync(regDir, corpus)
	if err != nil {
		t.Fatal(err)
	}
	check("unchanged", reg, rep, SyncReport{}, 1, mustReadDir(t, corpus))
	if versions, _ := listVersions(regDir); len(versions) != 1 {
		t.Fatalf("unchanged directory published: versions %v", versions)
	}

	writeCorpusFile(t, corpus, "s9.ls", testSource(9))
	reg, rep, err = Sync(regDir, corpus)
	if err != nil {
		t.Fatal(err)
	}
	check("add", reg, rep, SyncReport{Added: 1}, 2, mustReadDir(t, corpus))

	if err := os.Remove(filepath.Join(corpus, "s2.ls")); err != nil {
		t.Fatal(err)
	}
	reg, rep, err = Sync(regDir, corpus)
	if err != nil {
		t.Fatal(err)
	}
	check("remove", reg, rep, SyncReport{Removed: 1}, 3, mustReadDir(t, corpus))

	writeCorpusFile(t, corpus, "s9.ls", testSource(10))
	reg, rep, err = Sync(regDir, corpus)
	if err != nil {
		t.Fatal(err)
	}
	check("edit last", reg, rep, SyncReport{Added: 1, Removed: 1}, 4, mustReadDir(t, corpus))

	// An edited member that does not sort last moves to the end of the
	// curation order.
	writeCorpusFile(t, corpus, "s1.ls", testSource(11))
	reg, rep, err = Sync(regDir, corpus)
	if err != nil {
		t.Fatal(err)
	}
	dir := mustReadDir(t, corpus) // s0 s1 s3 s4 s9
	order := []Script{dir[0], dir[2], dir[3], dir[4], dir[1]}
	check("edit middle", reg, rep, SyncReport{Added: 1, Removed: 1}, 5, order)
}

func TestSyncRejectsBadScript(t *testing.T) {
	regDir := filepath.Join(t.TempDir(), "reg")
	corpus := t.TempDir()
	writeCorpusFile(t, corpus, "a.ls", testSource(0))
	if _, _, err := Sync(regDir, corpus); err != nil {
		t.Fatal(err)
	}
	writeCorpusFile(t, corpus, "b.ls", "df = (\n")
	if _, _, err := Sync(regDir, corpus); !errors.Is(err, ErrBadScript) {
		t.Fatalf("err = %v, want ErrBadScript", err)
	}
	// The failed sync published nothing.
	reg, _, err := Sync(regDir, "")
	if err != nil {
		t.Fatal(err)
	}
	if reg.Version() != 1 || reg.NumScripts() != 1 {
		t.Fatalf("after a failed sync: v%d with %d scripts, want v1 with 1", reg.Version(), reg.NumScripts())
	}
}
