package store

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"questpro/internal/faults"
)

func open(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestSaveLoadRoundTrip(t *testing.T) {
	s := open(t)
	payload := []byte(`{"schema":1,"id":"abc"}`)
	if err := s.Save("abc", payload); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := s.Load("abc")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if string(got) != string(payload) {
		t.Fatalf("Load = %q, want %q", got, payload)
	}
	// Overwrite replaces atomically.
	if err := s.Save("abc", []byte("v2")); err != nil {
		t.Fatalf("Save v2: %v", err)
	}
	if got, _ := s.Load("abc"); string(got) != "v2" {
		t.Fatalf("Load after overwrite = %q", got)
	}
}

func TestLoadMissing(t *testing.T) {
	s := open(t)
	if _, err := s.Load("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Load missing = %v, want ErrNotFound", err)
	}
}

func TestInvalidIDRejected(t *testing.T) {
	s := open(t)
	for _, id := range []string{"", "../x", "a/b", `a\b`, ".hidden"} {
		if err := s.Save(id, []byte("x")); err == nil {
			t.Errorf("Save(%q) accepted a path-escaping id", id)
		}
	}
}

// quarantineCount returns how many files sit in the quarantine directory.
func quarantineCount(t *testing.T, s *Store) int {
	t.Helper()
	ents, err := os.ReadDir(filepath.Join(s.Dir(), quarantineDir))
	if err != nil {
		t.Fatalf("reading quarantine: %v", err)
	}
	return len(ents)
}

// saveSession writes a full file set for id: ontology, snapshot, journal.
func saveSession(t *testing.T, s *Store, id string) {
	t.Helper()
	if _, err := s.SaveOntology(id, []byte("ontology of "+id)); err != nil {
		t.Fatalf("SaveOntology: %v", err)
	}
	if err := s.Save(id, []byte("payload")); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if err := s.AppendWAL(id, []byte("record")); err != nil {
		t.Fatalf("AppendWAL: %v", err)
	}
}

// assertNoFilesFor fails if any file of the session is left in the store
// directory.
func assertNoFilesFor(t *testing.T, s *Store, id string) {
	t.Helper()
	ents, err := os.ReadDir(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasPrefix(e.Name(), id+".") {
			t.Fatalf("file %s of session %s left in the data dir", e.Name(), id)
		}
	}
}

func TestCorruptSnapshotQuarantined(t *testing.T) {
	s := open(t)
	saveSession(t, s, "abc")
	// Flip a payload byte on disk: the CRC must catch it.
	path := filepath.Join(s.Dir(), "abc"+snapSuffix)
	data, _ := os.ReadFile(path)
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := s.Load("abc")
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Load corrupt = %v, want ErrCorrupt", err)
	}
	// The whole session moves: snapshot, journal and ontology.
	assertNoFilesFor(t, s, "abc")
	if n := quarantineCount(t, s); n != 3 {
		t.Fatalf("quarantine holds %d files, want 3", n)
	}
	// A second load sees a clean not-found, not a crash loop.
	if _, err := s.Load("abc"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Load after quarantine = %v, want ErrNotFound", err)
	}
}

func TestTruncatedSnapshotQuarantined(t *testing.T) {
	s := open(t)
	if err := s.Save("abc", []byte("a longer payload that will be cut")); err != nil {
		t.Fatalf("Save: %v", err)
	}
	path := filepath.Join(s.Dir(), "abc"+snapSuffix)
	data, _ := os.ReadFile(path)
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load("abc"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Load truncated = %v, want ErrCorrupt", err)
	}
	if n := quarantineCount(t, s); n != 1 {
		t.Fatalf("quarantine holds %d files, want 1", n)
	}
}

func TestWALAppendLoadReset(t *testing.T) {
	s := open(t)
	for _, rec := range []string{"one", "two", "three"} {
		if err := s.AppendWAL("abc", []byte(rec)); err != nil {
			t.Fatalf("AppendWAL(%q): %v", rec, err)
		}
	}
	recs, torn, err := s.LoadWAL("abc")
	if err != nil || torn {
		t.Fatalf("LoadWAL: torn=%v err=%v", torn, err)
	}
	if len(recs) != 3 || string(recs[0]) != "one" || string(recs[2]) != "three" {
		t.Fatalf("LoadWAL = %q", recs)
	}
	if err := s.ResetWAL("abc"); err != nil {
		t.Fatalf("ResetWAL: %v", err)
	}
	recs, _, _ = s.LoadWAL("abc")
	if len(recs) != 0 {
		t.Fatalf("LoadWAL after reset = %q, want empty", recs)
	}
	// The journal handle survives a reset: appends keep working.
	if err := s.AppendWAL("abc", []byte("four")); err != nil {
		t.Fatalf("AppendWAL after reset: %v", err)
	}
	recs, _, _ = s.LoadWAL("abc")
	if len(recs) != 1 || string(recs[0]) != "four" {
		t.Fatalf("LoadWAL = %q, want [four]", recs)
	}
}

func TestWALTornTailDropped(t *testing.T) {
	s := open(t)
	if err := s.AppendWAL("abc", []byte("good")); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: garbage bytes after the intact record.
	f, err := os.OpenFile(filepath.Join(s.Dir(), "abc"+walSuffix), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x10, 0x00}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	recs, torn, err := s.LoadWAL("abc")
	if err != nil {
		t.Fatalf("LoadWAL: %v", err)
	}
	if !torn {
		t.Fatal("torn tail not reported")
	}
	if len(recs) != 1 || string(recs[0]) != "good" {
		t.Fatalf("intact prefix = %q, want [good]", recs)
	}
	if n := quarantineCount(t, s); n != 1 {
		t.Fatalf("quarantine holds %d files, want 1 (the torn journal)", n)
	}
}

func TestDeleteRemovesSnapshotAndJournal(t *testing.T) {
	s := open(t)
	saveSession(t, s, "abc")
	if err := s.Delete("abc"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	assertNoFilesFor(t, s, "abc")
	// Deleting a never-stored id is a no-op, not an error.
	if err := s.Delete("ghost"); err != nil {
		t.Fatalf("Delete missing: %v", err)
	}
}

func TestList(t *testing.T) {
	s := open(t)
	for _, id := range []string{"bb", "aa", "cc"} {
		if err := s.Save(id, []byte(id)); err != nil {
			t.Fatal(err)
		}
	}
	// Journals, ontologies and temp files must not show up as sessions.
	if err := s.AppendWAL("zz", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SaveOntology("yy", []byte("x")); err != nil {
		t.Fatal(err)
	}
	ids, err := s.List()
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	if len(ids) != 3 || ids[0] != "aa" || ids[1] != "bb" || ids[2] != "cc" {
		t.Fatalf("List = %v, want [aa bb cc]", ids)
	}
}

func TestFaultInjectionFires(t *testing.T) {
	s := open(t)
	in := faults.NewInjector(1, faults.Rule{Point: faults.SessionSnapshot, FirstN: 3})
	restore := faults.Activate(in)
	defer restore()
	if err := s.Save("abc", []byte("x")); err == nil {
		t.Fatal("Save with injected fault succeeded")
	}
	if _, err := s.Load("abc"); err == nil || errors.Is(err, ErrNotFound) {
		t.Fatalf("Load with injected fault = %v, want injected error", err)
	}
	if err := s.AppendWAL("abc", []byte("x")); err == nil {
		t.Fatal("AppendWAL with injected fault succeeded")
	}
	if got := in.Fired(faults.SessionSnapshot); got != 3 {
		t.Fatalf("Fired = %d, want 3", got)
	}
}

func TestOntologySaveLoad(t *testing.T) {
	s := open(t)
	payload := []byte(`{"nodes":[{"v":"a"}],"edges":[]}`)
	sum, err := s.SaveOntology("abc", payload)
	if err != nil {
		t.Fatalf("SaveOntology: %v", err)
	}
	if err := s.Save("abc", []byte("snapshot")); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if w := s.Writes(); w != (Writes{Ontologies: 1, Snapshots: 1}) {
		t.Fatalf("Writes = %+v, want one of each", w)
	}
	got, err := s.LoadOntology("abc", len(payload), sum)
	if err != nil {
		t.Fatalf("LoadOntology: %v", err)
	}
	if string(got) != string(payload) {
		t.Fatalf("LoadOntology = %q, want %q", got, payload)
	}

	// A frame that is intact but not the one the snapshot recorded is as
	// fatal as a corrupt one: the whole session is quarantined.
	if _, err := s.LoadOntology("abc", len(payload), sum+1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("LoadOntology with a foreign CRC = %v, want ErrCorrupt", err)
	}
	assertNoFilesFor(t, s, "abc")
	if n := quarantineCount(t, s); n != 2 {
		t.Fatalf("quarantine holds %d files, want 2 (snapshot and ontology)", n)
	}

	// A snapshot whose ontology is gone cannot be restored either.
	if err := s.Save("def", []byte("snapshot")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadOntology("def", len(payload), sum); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("LoadOntology of a missing file = %v, want ErrCorrupt", err)
	}
	assertNoFilesFor(t, s, "def")
}

// TestSweepRemovesUnclaimedFiles builds a data dir by hand: one complete
// session, the ontology of a create that crashed before its first
// snapshot, a journal an older build left behind on quarantine, and the
// temp files of two cut-short writes. Sweep removes everything no snapshot
// claims and leaves the complete session alone.
func TestSweepRemovesUnclaimedFiles(t *testing.T) {
	s := open(t)
	saveSession(t, s, "aa")
	for _, name := range []string{"bb.onto", "cc.wal", "aa.snap.tmp", "dd.onto.tmp"} {
		if err := os.WriteFile(filepath.Join(s.Dir(), name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	swept, err := s.Sweep()
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	if want := []string{"aa.snap.tmp", "bb.onto", "cc.wal", "dd.onto.tmp"}; strings.Join(swept, " ") != strings.Join(want, " ") {
		t.Fatalf("Sweep removed %v, want %v", swept, want)
	}
	ents, err := os.ReadDir(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	var left []string
	for _, e := range ents {
		left = append(left, e.Name())
	}
	if want := "aa.onto aa.snap aa.wal quarantine"; strings.Join(left, " ") != want {
		t.Fatalf("data dir after Sweep = %v, want %s", left, want)
	}
	if ids, err := s.List(); err != nil || len(ids) != 1 || ids[0] != "aa" {
		t.Fatalf("List = %v, %v; want [aa]", ids, err)
	}
	if swept, err := s.Sweep(); err != nil || swept != nil {
		t.Fatalf("second Sweep = %v, %v; want nothing to do", swept, err)
	}
}
