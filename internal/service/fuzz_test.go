package service

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"questpro/internal/core"
	"questpro/internal/paperfix"
	"questpro/internal/query"
	"questpro/internal/store"
)

// FuzzDecodeSessionSnapshot feeds arbitrary payloads to the snapshot
// decode and to the conversions restore runs on what it accepts, seeded
// with a schema 1 payload (the committed fixture) and a schema 2 one (a
// live partial session parked mid-dialogue). Corrupt bytes must come back
// as errors, never as a panic. The same bytes also go through the ontology
// decode, seeded with a real ontology payload.
func FuzzDecodeSessionSnapshot(f *testing.F) {
	v1, err := os.ReadFile(filepath.Join("testdata", "v1_fixture", v1FixtureID+".snap"))
	if err != nil {
		f.Fatal(err)
	}
	v1 = v1[16:] // the store frame: magic, length, CRC32
	f.Add(v1)

	ctx := context.Background()
	dir := f.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	r := NewRegistry(Config{Store: st})
	s, err := r.Create(paperfix.Ontology(), core.DefaultOptions())
	if err != nil {
		f.Fatal(err)
	}
	if err := s.SetExamples(ctx, paperfix.Explanations(paperfix.Ontology())); err != nil {
		f.Fatal(err)
	}
	if _, err := s.Infer(ctx, "topk"); err != nil {
		f.Fatal(err)
	}
	if _, err := s.StartFeedback(ctx, 0); err != nil {
		f.Fatal(err)
	}
	r.Close() // also closes st; loads need no open handles
	v2, err := st.Load(s.ID)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v2)
	onto, err := encodeOntology(paperfix.Ontology())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(onto)
	f.Add([]byte(strings.Replace(string(v2), `"schema":2`, `"schema":1`, 1)))
	f.Add([]byte(strings.Replace(string(v1), `"f":0`, `"f":-7`, 1)))
	f.Add([]byte(`{"schema":2,"id":"x","ontology_frame":{"bytes":1,"crc32":2},"examples":[{"graph":{"nodes":[],"edges":[{"f":3,"o":4,"l":"p"}]},"distinguished":9}]}`))
	f.Add([]byte(`{"schema":3}`))
	f.Add([]byte(`null`))

	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = decodeOntology(data)
		snap, err := decodeSessionSnapshot(data)
		if err != nil {
			return
		}
		if snap.Ontology != nil {
			_, _ = snapToGraph(*snap.Ontology)
		}
		_, _ = snapToExamples(snap.Examples)
		_, _ = snapToPartial(snap.Partial)
		_, _ = snapToExamples(snap.Completed)
		_ = snapToCompletion(snap.Completion)
		_ = snapToCounters(snap.Counters)
		_ = snapToOptions(snap.Options).Validate()
		if snap.ResultSPARQL != "" {
			_, _ = query.ParseSPARQL(snap.ResultSPARQL)
		}
	})
}
