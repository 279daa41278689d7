package service

// In-package tests of the durability layer (persist.go + snapshot.go over
// internal/store): restore fidelity across a registry restart, WAL replay,
// quarantine on restore, idle-clock preservation, eviction GC, and the
// Close-time flush of sessions left dirty by injected persist failures.
// The kill -9 variant of the same scenario lives in cmd/questprod's crash
// harness; here the "crash" is a graceful Close so the tests stay hermetic
// and fast.

import (
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"questpro/internal/core"
	"questpro/internal/experiments"
	"questpro/internal/faults"
	"questpro/internal/paperfix"
	"questpro/internal/provenance"
	"questpro/internal/store"
	"questpro/internal/workload/sampling"
)

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	return st
}

// assertNoFilesFor fails if any file of the session is left in the data
// dir (quarantined files live in its subdirectory).
func assertNoFilesFor(t *testing.T, dir, id string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasPrefix(e.Name(), id+".") {
			t.Fatalf("file %s of session %s left in the data dir", e.Name(), id)
		}
	}
}

// runDialogueAllFalse drives a started dialogue to completion answering
// "exclude" to everything, returning the question values in order.
func runDialogueAllFalse(t *testing.T, s *Session, ev FeedbackEvent) []string {
	t.Helper()
	var qs []string
	for i := 0; !ev.Done; i++ {
		if i > 64 {
			t.Fatal("dialogue did not converge in 64 questions")
		}
		qs = append(qs, ev.Question.Value)
		var err error
		ev, err = s.AnswerFeedback(context.Background(), false)
		if err != nil {
			t.Fatal(err)
		}
	}
	return qs
}

// TestPersistRestoreRoundTrip is the core fidelity check: a session parked
// mid-dialogue (one answer given, the next question delivered but
// unanswered) is shut down, restored into a fresh registry from its
// snapshot, must re-serve the pending question idempotently, and the
// finished dialogue must produce the byte-identical SPARQL an uninterrupted
// session produces.
func TestPersistRestoreRoundTrip(t *testing.T) {
	ctx := context.Background()

	// Control: the full all-false dialogue in a store-less registry.
	ctrl := newTestRegistry(t, Config{})
	cs := createPaperfix(t, ctrl)
	if _, err := cs.Infer(ctx, "topk"); err != nil {
		t.Fatal(err)
	}
	ev, err := cs.StartFeedback(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Done {
		t.Skip("candidates collapsed without questions")
	}
	want := runDialogueAllFalse(t, cs, ev)
	if len(want) < 2 {
		t.Skipf("dialogue asks only %d question(s); cannot park mid-dialogue", len(want))
	}
	wantSPARQL := cs.Result().SPARQL()

	// Interrupted run: answer question 1, leave question 2 delivered but
	// unanswered, then shut the registry down (flushing the snapshot).
	dir := t.TempDir()
	r1 := NewRegistry(Config{Store: openStore(t, dir)})
	s := createPaperfix(t, r1)
	id := s.ID
	if _, err := s.Infer(ctx, "topk"); err != nil {
		t.Fatal(err)
	}
	ev, err = s.StartFeedback(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Done || ev.Question.Value != want[0] {
		t.Fatalf("first question = %+v, want %q", ev, want[0])
	}
	ev, err = s.AnswerFeedback(ctx, false)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Done || ev.Question.Value != want[1] {
		t.Fatalf("second question = %+v, want %q", ev, want[1])
	}
	r1.Close()

	// Restart: the session is restored, the dialogue resumed, and the
	// delivered-but-unanswered question re-served — idempotently.
	r2 := NewRegistry(Config{Store: openStore(t, dir)})
	t.Cleanup(r2.Close)
	if got := r2.Metrics().SnapshotRestores; got != 1 {
		t.Fatalf("SnapshotRestores = %d, want 1", got)
	}
	s2, ok := r2.Get(id)
	if !ok {
		t.Fatalf("session %s not restored", id)
	}
	for i := 0; i < 2; i++ {
		pend, err := s2.PendingFeedback(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if pend.Done || pend.Question == nil || pend.Question.Value != want[1] {
			t.Fatalf("pending read %d = %+v, want question %q", i, pend, want[1])
		}
		if pend.Questions != 2 {
			t.Fatalf("pending read %d reports %d questions asked, want 2", i, pend.Questions)
		}
	}

	// Finish the dialogue: the remaining question sequence and the final
	// query must match the uninterrupted control byte for byte.
	pend, err := s2.PendingFeedback(ctx)
	if err != nil {
		t.Fatal(err)
	}
	got := append([]string{want[0]}, runDialogueAllFalse(t, s2, pend)...)
	if len(got) != len(want) {
		t.Fatalf("resumed dialogue asked %d questions, control asked %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("question %d = %q, control asked %q", i, got[i], want[i])
		}
	}
	if gotSPARQL := s2.Result().SPARQL(); gotSPARQL != wantSPARQL {
		t.Fatalf("resumed SPARQL diverged:\n%s\n--- control ---\n%s", gotSPARQL, wantSPARQL)
	}
	if st := s2.Stats(); st.Infers != 1 || !st.HasQuery {
		t.Fatalf("restored stats = %+v", st)
	}
}

// TestRestoreHonorsIdleClock: the snapshot's last-used clock is installed
// verbatim on restore, so a session that out-idled its TTL while the
// process was down is evicted by the first janitor scan — and its snapshot
// is deleted with it.
func TestRestoreHonorsIdleClock(t *testing.T) {
	dir := t.TempDir()
	r1 := NewRegistry(Config{Store: openStore(t, dir)})
	s := createPaperfix(t, r1)
	id := s.ID
	// Backdate the idle clock and force one more snapshot so it lands on disk.
	s.last.Store(time.Now().Add(-time.Hour).UnixNano())
	s.mu.Lock()
	s.markMutatedLocked(nil)
	s.persistPendingLocked(context.Background())
	s.mu.Unlock()
	r1.Close()

	st2 := openStore(t, dir)
	r2 := newTestRegistry(t, Config{Store: st2, SessionTTL: time.Minute})
	if _, ok := r2.Get(id); !ok {
		t.Fatal("stale session not restored at all")
	}
	// Get touches the clock; restore the staleness before the scan.
	s2, _ := r2.Get(id)
	s2.last.Store(time.Now().Add(-time.Hour).UnixNano())
	if n := r2.evictExpired(time.Now()); n != 1 {
		t.Fatalf("evicted %d sessions, want 1", n)
	}
	if _, ok := r2.Get(id); ok {
		t.Fatal("expired session still resolvable after restore")
	}
	ids, err := st2.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 0 {
		t.Fatalf("snapshots %v still on disk after eviction", ids)
	}
}

// TestEvictionDeletesSnapshot: TTL eviction garbage-collects the evicted
// session's snapshot and journal — no orphaned files accumulate.
func TestEvictionDeletesSnapshot(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	r := newTestRegistry(t, Config{Store: st, SessionTTL: time.Minute})
	s := createPaperfix(t, r)
	if ids, _ := st.List(); len(ids) != 1 {
		t.Fatalf("List = %v, want the one session", ids)
	}
	s.last.Store(time.Now().Add(-time.Hour).UnixNano())
	if n := r.evictExpired(time.Now()); n != 1 {
		t.Fatalf("evicted %d sessions, want 1", n)
	}
	ids, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 0 {
		t.Fatalf("snapshots %v survived eviction", ids)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !e.IsDir() {
			t.Fatalf("orphaned file %s after eviction", e.Name())
		}
	}
}

// TestCloseFlushesDirtySessions: when every persist fails (injected), the
// operations still succeed — availability first — and the session is left
// dirty; once the fault clears, Registry.Close's flush writes the final
// state, and a restart restores it completely.
func TestCloseFlushesDirtySessions(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	r1 := NewRegistry(Config{Store: openStore(t, dir)})
	s := createPaperfix(t, r1)
	id := s.ID

	// Fail every store operation from here on (activated after creation so
	// the session-id mint and the initial snapshot are not affected).
	restore := faults.Activate(faults.NewInjector(1,
		faults.Rule{Point: faults.SessionSnapshot, FirstN: 1 << 20}))
	if _, err := s.Infer(ctx, "topk"); err != nil {
		restore()
		t.Fatalf("Infer under persist faults must still succeed: %v", err)
	}
	if m := r1.Metrics(); m.SnapshotErrors == 0 {
		restore()
		t.Fatalf("failed persist not counted: %+v", m)
	}
	restore()
	r1.Close()

	r2 := newTestRegistry(t, Config{Store: openStore(t, dir)})
	s2, ok := r2.Get(id)
	if !ok {
		t.Fatalf("session %s not restored after dirty flush", id)
	}
	if st := s2.Stats(); st.Infers != 1 || !st.HasQuery {
		t.Fatalf("flushed state incomplete: %+v", st)
	}
	if s2.Result() == nil {
		t.Fatal("inferred query lost")
	}
}

// TestWALReplayAfterTornSnapshot: a journal record newer than the snapshot
// (the post-WAL-append, pre-snapshot crash window) is replayed through the
// public session op on restore — and the replay re-persists, so a second
// restart needs no journal at all.
func TestWALReplayAfterTornSnapshot(t *testing.T) {
	dir := t.TempDir()
	r1 := NewRegistry(Config{Store: openStore(t, dir)})
	s := createPaperfix(t, r1)
	id := s.ID
	r1.Close()

	// Simulate the crash window: the infer's journal record landed, the
	// snapshot after it did not.
	st2 := openStore(t, dir)
	data, err := st2.Load(id)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := decodeSessionSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := json.Marshal(walRecord{Seq: snap.Seq + 1, Op: walOpInfer, Mode: "union"})
	if err != nil {
		t.Fatal(err)
	}
	if err := st2.AppendWAL(id, rec); err != nil {
		t.Fatal(err)
	}

	r2 := NewRegistry(Config{Store: st2})
	s2, ok := r2.Get(id)
	if !ok {
		t.Fatalf("session %s not restored", id)
	}
	if st := s2.Stats(); st.Infers != 1 || !st.HasQuery {
		t.Fatalf("journal record not replayed: %+v", st)
	}
	wantSPARQL := s2.Result().SPARQL()
	r2.Close()

	// The replayed op re-persisted itself: a third incarnation restores the
	// same state from the snapshot alone.
	r3 := newTestRegistry(t, Config{Store: openStore(t, dir)})
	s3, ok := r3.Get(id)
	if !ok {
		t.Fatal("session lost after replay-then-restart")
	}
	if st := s3.Stats(); st.Infers != 1 {
		t.Fatalf("replay did not catch the snapshot up: %+v", st)
	}
	if got := s3.Result().SPARQL(); got != wantSPARQL {
		t.Fatalf("SPARQL diverged across restarts:\n%s\n--- want ---\n%s", got, wantSPARQL)
	}
}

// TestCorruptSnapshotQuarantinedOnRestore: a garbage snapshot file is moved
// to quarantine during restore together with the session's journal and
// ontology, counted, and the registry comes up healthy.
func TestCorruptSnapshotQuarantinedOnRestore(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	st.Close()
	for _, name := range []string{"deadbeef.snap", "deadbeef.wal", "deadbeef.onto"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("not a snapshot"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	r := newTestRegistry(t, Config{Store: openStore(t, dir)})
	if got := r.Metrics().SnapshotQuarantined; got != 1 {
		t.Fatalf("SnapshotQuarantined = %d, want 1", got)
	}
	if r.Len() != 0 {
		t.Fatalf("Len = %d after quarantine, want 0", r.Len())
	}
	assertNoFilesFor(t, dir, "deadbeef")
	ents, err := os.ReadDir(filepath.Join(dir, "quarantine"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 3 {
		t.Fatalf("quarantine holds %d files, want 3 (snapshot, journal, ontology)", len(ents))
	}
	// The registry is healthy: new sessions create and persist normally.
	s := createPaperfix(t, r)
	if _, ok := r.Get(s.ID); !ok {
		t.Fatal("fresh session unusable after a quarantined restore")
	}
}

// TestRestorePartialSession: a partial-provenance session — fragments, the
// cached completion report, and a dialogue over the completed examples —
// survives a restart.
func TestRestorePartialSession(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	r1 := NewRegistry(Config{Store: openStore(t, dir)})
	o := paperfix.Ontology()
	s, err := r1.Create(o, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	id := s.ID
	exs := paperfix.Explanations(o)
	pex := make(provenance.PartialExampleSet, len(exs))
	for i, ex := range exs {
		if pex[i], err = provenance.NewPartialByValue(ex.Graph, ex.DistinguishedValue(), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.SetPartialExamples(ctx, pex); err != nil {
		t.Fatal(err)
	}
	res, err := s.Infer(ctx, "topk")
	if err != nil {
		t.Fatal(err)
	}
	if res.Completions == nil {
		t.Fatal("partial inference reported no completion phase")
	}
	ev, err := s.StartFeedback(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantSPARQL := res.Query.SPARQL()
	r1.Close()

	r2 := newTestRegistry(t, Config{Store: openStore(t, dir)})
	s2, ok := r2.Get(id)
	if !ok {
		t.Fatalf("partial session %s not restored", id)
	}
	rep, completed, ok := s2.Completions()
	if !ok || len(completed) != len(pex) {
		t.Fatalf("completion cache lost: ok=%v completed=%d", ok, len(completed))
	}
	if len(rep.Choices) != len(pex) {
		t.Fatalf("completion report lost its choices: %+v", rep)
	}
	if ev.Done {
		// The dialogue collapsed immediately pre-restart; the chosen query
		// must still be there.
		if s2.Result() == nil {
			t.Fatal("chosen query lost")
		}
		return
	}
	if got := s2.Result().SPARQL(); got != wantSPARQL {
		t.Fatalf("restored result diverged:\n%s\n--- want ---\n%s", got, wantSPARQL)
	}
	// The pre-restart question is re-served and the dialogue finishes.
	pend, err := s2.PendingFeedback(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if pend.Done || pend.Question == nil || pend.Question.Value != ev.Question.Value {
		t.Fatalf("pending after restore = %+v, want question %q", pend, ev.Question.Value)
	}
	fin := pend
	for i := 0; !fin.Done && i < 64; i++ {
		if fin, err = s2.AnswerFeedback(ctx, false); err != nil {
			t.Fatal(err)
		}
	}
	if !fin.Done {
		t.Fatal("resumed partial dialogue did not converge")
	}
	if s2.Result() == nil {
		t.Fatal("no chosen query after resumed dialogue")
	}
}

// TestSnapshotWriteSizePinned pins what each mutating request writes: over
// a generated ontology of more than 150 KB, the snapshot that examples,
// top-k, feedback start and answer each rewrite stays under 8 KiB, because
// the ontology is written once, at create, to its own file.
func TestSnapshotWriteSizePinned(t *testing.T) {
	ctx := context.Background()
	w, err := experiments.Load("sp2b", 0.35)
	if err != nil {
		t.Fatal(err)
	}
	if data, err := encodeOntology(w.Ontology); err != nil || len(data) < 150_000 {
		t.Fatalf("ontology encodes to %d bytes (%v), want at least 150 KB", len(data), err)
	}
	// Two explanations of the first catalog query with enough results.
	var exs provenance.ExampleSet
	for _, bq := range w.Queries {
		sm := sampling.New(w.Evaluator(), bq.Query, rand.New(rand.NewSource(3)))
		if rs, err := sm.Results(ctx); err != nil || len(rs) < 8 {
			continue
		}
		if exs, err = sm.ExampleSet(ctx, 2); err != nil {
			t.Fatal(err)
		}
		break
	}
	if exs == nil {
		t.Fatal("no sp2b query with 8 results")
	}

	dir := t.TempDir()
	st := openStore(t, dir)
	r := newTestRegistry(t, Config{Store: st})
	s, err := r.Create(w.Ontology, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	saves := int64(0)
	check := func(op string) {
		t.Helper()
		saves++
		fi, err := os.Stat(filepath.Join(dir, s.ID+".snap"))
		if err != nil {
			t.Fatalf("after %s: %v", op, err)
		}
		if fi.Size() >= 8<<10 {
			t.Fatalf("after %s the snapshot is %d bytes, want under 8 KiB", op, fi.Size())
		}
		if got, want := st.Writes(), (store.Writes{Ontologies: 1, Snapshots: saves}); got != want {
			t.Fatalf("after %s the store wrote %+v, want %+v", op, got, want)
		}
	}
	check("create")
	if err := s.SetExamples(ctx, exs); err != nil {
		t.Fatal(err)
	}
	check("examples")
	if _, err := s.Infer(ctx, "topk"); err != nil {
		t.Fatal(err)
	}
	check("top-k")
	ev, err := s.StartFeedback(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Done {
		t.Fatal("the dialogue asked no question")
	}
	check("feedback start")
	if _, err := s.AnswerFeedback(ctx, true); err != nil {
		t.Fatal(err)
	}
	check("answer")
}

// TestOntologyWriteRetried: the ontology write belongs to the create's
// persist. When it fails, the create still succeeds (availability first)
// and leaves nothing on disk; the next operation's persist — or the Close
// flush, for a session with no further operation — writes the ontology
// and then the snapshot, counted as one committed snapshot write.
func TestOntologyWriteRetried(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	st := openStore(t, dir)
	r1 := NewRegistry(Config{Store: st})
	o := paperfix.Ontology()
	create := func(id string) *Session {
		t.Helper()
		// Caller-minted ids skip the id mint, so the persist's ontology
		// write is the first store operation to fire.
		in := faults.NewInjector(1, faults.Rule{Point: faults.SessionSnapshot, FirstN: 1})
		restore := faults.Activate(in)
		s, err := r1.CreateWithID(id, o, core.DefaultOptions())
		restore()
		if err != nil {
			t.Fatalf("create under a failing ontology write: %v", err)
		}
		if in.Fired(faults.SessionSnapshot) != 1 {
			t.Fatalf("fault fired %d times, want 1", in.Fired(faults.SessionSnapshot))
		}
		return s
	}
	const busy, idle = "0000000000000000000000000000000b", "0000000000000000000000000000000c"
	s := create(busy)
	create(idle)
	if m := r1.Metrics(); m.SnapshotErrors != 2 || m.SnapshotWrites != 0 {
		t.Fatalf("after two failed creates: errors %d writes %d, want 2 and 0", m.SnapshotErrors, m.SnapshotWrites)
	}
	if w := st.Writes(); w != (store.Writes{}) {
		t.Fatalf("store wrote %+v under the fault", w)
	}
	if err := s.SetExamples(ctx, paperfix.Explanations(o)); err != nil {
		t.Fatal(err)
	}
	if m := r1.Metrics(); m.SnapshotWrites != 1 {
		t.Fatalf("SnapshotWrites = %d after the retry, want 1", m.SnapshotWrites)
	}
	if w := st.Writes(); w != (store.Writes{Ontologies: 1, Snapshots: 1}) {
		t.Fatalf("store wrote %+v after the retry, want one ontology and one snapshot", w)
	}
	r1.Close()
	if w := st.Writes(); w != (store.Writes{Ontologies: 2, Snapshots: 2}) {
		t.Fatalf("store wrote %+v after the Close flush, want two of each", w)
	}

	r2 := newTestRegistry(t, Config{Store: openStore(t, dir)})
	for _, id := range []string{busy, idle} {
		if _, ok := r2.Get(id); !ok {
			t.Fatalf("session %s not restored", id)
		}
	}
	if s2, _ := r2.Get(busy); s2.Stats().Examples != len(paperfix.Explanations(o)) {
		t.Fatalf("restored examples = %d", s2.Stats().Examples)
	}
}

// TestOntologyFrameMismatchQuarantined: restore checks the ontology file
// against the frame the snapshot recorded. An intact ontology file that
// belongs to another session fails the check, and the session's files are
// quarantined; the other session is restored.
func TestOntologyFrameMismatchQuarantined(t *testing.T) {
	dir := t.TempDir()
	r1 := NewRegistry(Config{Store: openStore(t, dir)})
	a := createPaperfix(t, r1)
	bigger := paperfix.Ontology()
	bigger.MustAddTriple("paper99", paperfix.Predicate, "Zoe")
	b, err := r1.Create(bigger, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	r1.Close()
	data, err := os.ReadFile(filepath.Join(dir, b.ID+".onto"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, a.ID+".onto"), data, 0o644); err != nil {
		t.Fatal(err)
	}

	r2 := newTestRegistry(t, Config{Store: openStore(t, dir)})
	if got := r2.Metrics().SnapshotQuarantined; got != 1 {
		t.Fatalf("SnapshotQuarantined = %d, want 1", got)
	}
	if _, ok := r2.Get(a.ID); ok {
		t.Fatal("session restored over another session's ontology")
	}
	assertNoFilesFor(t, dir, a.ID)
	if _, ok := r2.Get(b.ID); !ok {
		t.Fatal("intact session not restored")
	}
}

// TestRestoreSweepsUnclaimedFiles: a data dir holding, next to a complete
// session, the ontology of a create that crashed before its first snapshot
// and a journal without a snapshot comes up with the complete session
// restored and the unclaimed files deleted.
func TestRestoreSweepsUnclaimedFiles(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	r1 := NewRegistry(Config{Store: st})
	s := createPaperfix(t, r1)
	r1.Close()

	st = openStore(t, dir)
	const crashed, orphan = "0000000000000000000000000000000d", "0000000000000000000000000000000e"
	if _, err := st.SaveOntology(crashed, []byte(`{"nodes":[{"v":"a"}],"edges":[]}`)); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendWAL(orphan, []byte(`{"seq":1,"op":"infer","mode":"union"}`)); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2 := openStore(t, dir)
	r2 := newTestRegistry(t, Config{Store: st2})
	if _, ok := r2.Get(s.ID); !ok || r2.Len() != 1 {
		t.Fatalf("restored %d sessions, want only %s", r2.Len(), s.ID)
	}
	assertNoFilesFor(t, dir, crashed)
	assertNoFilesFor(t, dir, orphan)
	if ids, err := st2.List(); err != nil || len(ids) != 1 || ids[0] != s.ID {
		t.Fatalf("List = %v, %v; want [%s]", ids, err, s.ID)
	}
}
