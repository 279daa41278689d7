package service

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"questpro/internal/core"
	"questpro/internal/paperfix"
	"questpro/internal/provenance"
	"questpro/internal/workload/sampling"
)

var updateSnapSchema = flag.Bool("update-snapshot-schema", false,
	"rewrite the golden snapshot-schema file")

// snapshotTypes enumerates every type that reaches the on-disk snapshot
// (and journal) encoding. A new durable field must be added here and to
// the golden file to become part of the contract.
var snapshotTypes = []any{
	sessionSnapshot{},
	snapFrameRef{},
	snapGraph{},
	snapNode{},
	snapEdge{},
	snapExample{},
	snapOptions{},
	snapCompletion{},
	snapChoice{},
	snapFeedback{},
	snapCounters{},
	walRecord{},
}

// renderSnapshotSchema flattens the codec's on-disk contract exactly the
// way internal/api's schema test flattens the wire contract: one
// "Type.Field json-tag go-type" line per field.
func renderSnapshotSchema() string {
	var b strings.Builder
	fmt.Fprintf(&b, "snapshot schema v%d\n\n", snapshotSchemaVersion)
	for _, v := range snapshotTypes {
		t := reflect.TypeOf(v)
		fmt.Fprintf(&b, "type %s\n", t.Name())
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			tag := f.Tag.Get("json")
			if tag == "" {
				tag = "-"
			}
			fmt.Fprintf(&b, "  %-22s %-28s %s\n", f.Name, tag, f.Type.String())
		}
		b.WriteString("\n")
	}
	return b.String()
}

// TestSnapshotSchemaGolden pins the durable session-state contract: a
// field rename, type change, or tag change in the snapshot codec would
// strand every snapshot already on disk, so it must show up as a diff here
// and be accompanied by a snapshotSchemaVersion bump plus a migration (or
// a deliberate additive regeneration with -update-snapshot-schema). This
// is make api-check's discipline applied to the on-disk format.
func TestSnapshotSchemaGolden(t *testing.T) {
	got := renderSnapshotSchema()
	path := filepath.Join("testdata",
		fmt.Sprintf("snapshot_schema_v%d.golden", snapshotSchemaVersion))
	if *updateSnapSchema {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden snapshot schema (run `go test ./internal/service -run TestSnapshotSchemaGolden -update-snapshot-schema`): %v", err)
	}
	if got != string(want) {
		t.Fatalf("snapshot schema drifted from %s.\nAdditive changes: regenerate with -update-snapshot-schema.\nShape changes: bump snapshotSchemaVersion and handle old snapshots in decode.\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestSnapshotSchemaNoUntypedFields keeps every durable shape static: no
// interfaces, no interface-valued maps — the decode of a crashed process's
// file must never depend on dynamic types.
func TestSnapshotSchemaNoUntypedFields(t *testing.T) {
	for _, v := range snapshotTypes {
		t2 := reflect.TypeOf(v)
		for i := 0; i < t2.NumField(); i++ {
			f := t2.Field(i)
			if f.Type.Kind() == reflect.Interface {
				t.Errorf("%s.%s is an interface; durable shapes must be static", t2.Name(), f.Name)
			}
			if f.Type.Kind() == reflect.Map && f.Type.Elem().Kind() == reflect.Interface {
				t.Errorf("%s.%s is a map with interface values; durable shapes must be static", t2.Name(), f.Name)
			}
		}
	}
}

// v1FixtureID names the schema 1 session under testdata/v1_fixture: a
// snapshot and a journal written by the last schema 1 build. The session
// holds v1FixtureFragments over the paperfix ontology with default
// options; it ran top-k inference and started feedback, and the snapshot
// was taken with the first question delivered. The journal holds the
// answer to it (exclude), whose snapshot write failed: the session is
// parked mid-dialogue with one answer journaled but not yet snapshotted.
const v1FixtureID = "f1c5e7000000000000000000000000a1"

// v1FixtureFragments are the partial explanations the fixture session was
// given: paperfix's explanations with a quarter of their edges degraded.
func v1FixtureFragments(t *testing.T) provenance.PartialExampleSet {
	t.Helper()
	pex, err := sampling.DegradeSet(paperfix.Explanations(paperfix.Ontology()), 25, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	return pex
}

// TestSnapshotSchemaV1Fixture restores the committed schema 1 session with
// this build: the journaled answer is replayed, and the re-served
// question, the rest of the dialogue, the final SPARQL and the stats must
// match byte for byte a control that ran the same operations without a
// store. The replay re-persists the session in the current schema, with
// its ontology in its own file, and a second restart restores that too.
func TestSnapshotSchemaV1Fixture(t *testing.T) {
	ctx := context.Background()
	marshal := func(v any) string {
		t.Helper()
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	finish := func(s *Session, ev FeedbackEvent) []string {
		t.Helper()
		events := []string{marshal(feedbackEventJSON(ev))}
		for i := 0; !ev.Done; i++ {
			if i > 64 {
				t.Fatal("dialogue did not converge in 64 questions")
			}
			var err error
			if ev, err = s.AnswerFeedback(ctx, false); err != nil {
				t.Fatal(err)
			}
			events = append(events, marshal(feedbackEventJSON(ev)))
		}
		return append(events, s.Result().SPARQL(), marshal(s.Stats()))
	}

	ctrl := newTestRegistry(t, Config{})
	cs, err := ctrl.Create(paperfix.Ontology(), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.SetPartialExamples(ctx, v1FixtureFragments(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Infer(ctx, "topk"); err != nil {
		t.Fatal(err)
	}
	if _, err := cs.StartFeedback(ctx, 0); err != nil {
		t.Fatal(err)
	}
	ev, err := cs.AnswerFeedback(ctx, false)
	if err != nil {
		t.Fatal(err)
	}
	want := finish(cs, ev)

	dir := t.TempDir()
	for _, suffix := range []string{".snap", ".wal"} {
		data, err := os.ReadFile(filepath.Join("testdata", "v1_fixture", v1FixtureID+suffix))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, v1FixtureID+suffix), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// The fixture's idle clock is as old as the fixture: keep the janitor
	// away from it.
	cfg := Config{SessionTTL: 100 * 365 * 24 * time.Hour}
	cfg.Store = openStore(t, dir)
	r := NewRegistry(cfg)
	s, ok := r.Get(v1FixtureID)
	if !ok {
		r.Close()
		t.Fatal("schema 1 fixture not restored")
	}
	pend, err := s.PendingFeedback(ctx)
	if err != nil {
		r.Close()
		t.Fatal(err)
	}
	got := finish(s, pend)
	r.Close()
	if len(got) != len(want) {
		t.Fatalf("restored session produced %d events, control %d:\n%s\n--- control ---\n%s",
			len(got), len(want), strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("restored session diverged at item %d:\n%s\n--- control ---\n%s", i, got[i], want[i])
		}
	}

	// The replayed answer re-persisted the session as the current schema.
	st := openStore(t, dir)
	data, err := st.Load(v1FixtureID)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := decodeSessionSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Schema != snapshotSchemaVersion || snap.Ontology != nil || snap.OntologyFrame == nil {
		t.Fatalf("re-persisted snapshot: schema %d, inline ontology %v, frame %+v",
			snap.Schema, snap.Ontology != nil, snap.OntologyFrame)
	}
	if snap.ResultSPARQL != want[len(want)-2] {
		t.Fatalf("re-persisted SPARQL:\n%s\n--- control ---\n%s", snap.ResultSPARQL, want[len(want)-2])
	}
	cfg.Store = st
	r2 := newTestRegistry(t, cfg)
	s2, ok := r2.Get(v1FixtureID)
	if !ok {
		t.Fatal("re-persisted session not restored")
	}
	if got := marshal(s2.Stats()); got != want[len(want)-1] {
		t.Fatalf("second restore's stats:\n%s\n--- control ---\n%s", got, want[len(want)-1])
	}
	// The result is restored by parsing its SPARQL; rendering it again must
	// give the same bytes.
	if got := s2.Result().SPARQL(); got != want[len(want)-2] {
		t.Fatalf("second restore's SPARQL:\n%s\n--- control ---\n%s", got, want[len(want)-2])
	}
}
