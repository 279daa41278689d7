package service

// Tests of the shared ontology store (ontostore.go): sharing by exact
// bytes, the reference count across every create and teardown path,
// retention and the entry bound, restore sharing, the /metrics series,
// and that sessions over one shared graph answer exactly as sessions over
// private graphs do.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"questpro/internal/api"
	"questpro/internal/core"
	"questpro/internal/experiments"
	"questpro/internal/graph"
	"questpro/internal/ntriples"
	"questpro/internal/obs"
	"questpro/internal/paperfix"
	"questpro/internal/provenance"
	"questpro/internal/workload/sampling"
)

// paperfixText is the paper's running-example ontology as an upload.
var paperfixText = ntriples.Format(paperfix.Ontology())

// postCreate sends one create request through the service's handler and
// returns the status and, on success, the new session's id.
func postCreate(t *testing.T, h http.Handler, req api.CreateSessionRequest) (int, string) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/"+api.Version+"/sessions", bytes.NewReader(body)))
	var resp api.CreateSessionResponse
	if rec.Code == http.StatusCreated {
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
	}
	return rec.Code, resp.SessionID
}

// mustCreate creates a session over text and returns its id.
func mustCreate(t *testing.T, h http.Handler, text string) string {
	t.Helper()
	code, id := postCreate(t, h, api.CreateSessionRequest{Ontology: text})
	if code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	return id
}

// storedRefs reports whether the store holds the ontology of text, and how
// many sessions hold it.
func storedRefs(r *Registry, text string) (refs int, stored bool) {
	o := r.ontologies
	o.mu.Lock()
	defer o.mu.Unlock()
	e := o.entries[textKey(text)]
	if e == nil {
		return 0, false
	}
	return e.refs, true
}

// remembered reports whether the store remembers the key of text, whose
// graph a last release freed.
func remembered(r *Registry, text string) bool {
	r.ontologies.mu.Lock()
	defer r.ontologies.mu.Unlock()
	_, ok := r.ontologies.freed[textKey(text)]
	return ok
}

// holdTwice acquires text from o twice, which makes its entry a repeated
// one, and returns the entry and a func that releases both references.
func holdTwice(o *ontologyStore, text string) (*ontoEntry, func()) {
	_, e, _ := o.acquireText(text)
	o.acquireText(text)
	return e, func() { o.release(e); o.release(e) }
}

// sessionOnto returns the ontology graph of a live session.
func sessionOnto(t *testing.T, r *Registry, id string) *graph.Graph {
	t.Helper()
	s, ok := r.Get(id)
	if !ok {
		t.Fatalf("session %s not live", id)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.onto
}

func TestOntologyStoreLifecycle(t *testing.T) {
	other := paperfixText + "\n" // the same graph, one more byte

	t.Run("sharing is by exact bytes", func(t *testing.T) {
		r := newTestRegistry(t, Config{})
		h := NewServer(r)
		a1, a2, b := mustCreate(t, h, paperfixText), mustCreate(t, h, paperfixText), mustCreate(t, h, other)
		if sessionOnto(t, r, a1) != sessionOnto(t, r, a2) {
			t.Fatal("two creates from the same text hold different graphs")
		}
		if sessionOnto(t, r, a1) == sessionOnto(t, r, b) {
			t.Fatal("texts one byte apart share a graph")
		}
		if refs, _ := storedRefs(r, paperfixText); refs != 2 {
			t.Fatalf("refs = %d, want 2", refs)
		}
		r.Delete(a1)
		if refs, _ := storedRefs(r, paperfixText); refs != 1 {
			t.Fatalf("refs after a delete = %d, want 1", refs)
		}
	})

	t.Run("parse errors and empty ontologies store nothing", func(t *testing.T) {
		r := newTestRegistry(t, Config{})
		h := NewServer(r)
		for _, text := range []string{"paper1 wb\n", "", "# nothing but a comment\n"} {
			if code, _ := postCreate(t, h, api.CreateSessionRequest{Ontology: text}); code != http.StatusBadRequest {
				t.Errorf("create over %q: status %d, want 400", text, code)
			}
		}
		if m := r.Metrics(); m.Ontologies != 0 {
			t.Fatalf("store holds %d ontologies after failed creates", m.Ontologies)
		}
	})

	t.Run("failing creates release their reference", func(t *testing.T) {
		r := newTestRegistry(t, Config{MaxSessions: 2})
		h := NewServer(r)
		code, _ := postCreate(t, h, api.CreateSessionRequest{Ontology: paperfixText, Options: api.Options{Workers: -1}})
		if code != http.StatusBadRequest {
			t.Fatalf("bad options: status %d, want 400", code)
		}
		if refs, stored := storedRefs(r, paperfixText); stored || refs != 0 {
			t.Fatalf("after bad options: stored %v, refs %d, want a one-off freed", stored, refs)
		}

		id := mustCreate(t, h, paperfixText)
		if code, _ := postCreate(t, h, api.CreateSessionRequest{Ontology: other, SessionID: id}); code != http.StatusBadRequest {
			t.Fatalf("duplicate id: status %d, want 400", code)
		}
		if refs, _ := storedRefs(r, other); refs != 0 {
			t.Fatalf("after a duplicate id: refs %d, want 0", refs)
		}

		mustCreate(t, h, paperfixText)
		if code, _ := postCreate(t, h, api.CreateSessionRequest{Ontology: other}); code != http.StatusServiceUnavailable {
			t.Fatalf("session limit: status %d, want 503", code)
		}
		if refs, _ := storedRefs(r, other); refs != 0 {
			t.Fatalf("after the session limit: refs %d, want 0", refs)
		}

		r.Close()
		if code, _ := postCreate(t, h, api.CreateSessionRequest{Ontology: other}); code != http.StatusBadRequest {
			t.Fatalf("closed registry: status %d, want 400", code)
		}
		for _, text := range []string{paperfixText, other} {
			if refs, _ := storedRefs(r, text); refs != 0 {
				t.Fatalf("after Close: refs %d, want 0", refs)
			}
		}
	})

	t.Run("a one-off upload is freed at its last release", func(t *testing.T) {
		r := newTestRegistry(t, Config{})
		h := NewServer(r)
		r.Delete(mustCreate(t, h, paperfixText))
		if _, stored := storedRefs(r, paperfixText); stored || !remembered(r, paperfixText) {
			t.Fatalf("one-off entry: stored %v, key remembered %v; want freed and remembered", stored, remembered(r, paperfixText))
		}
		r.Delete(mustCreate(t, h, paperfixText))
		if refs, stored := storedRefs(r, paperfixText); !stored || refs != 0 || remembered(r, paperfixText) {
			t.Fatalf("repeated entry: stored %v, refs %d; want retained with 0", stored, refs)
		}
		mustCreate(t, h, paperfixText)
		if m := r.Metrics(); m.OntologyParses != 2 || m.OntologyReuses != 1 {
			t.Fatalf("%d parses, %d reuses; want 2 and 1", m.OntologyParses, m.OntologyReuses)
		}
	})

	t.Run("an unreferenced entry lives for the TTL", func(t *testing.T) {
		const ttl = time.Hour
		r := newTestRegistry(t, Config{SessionTTL: ttl})
		h := NewServer(r)
		a1, a2 := mustCreate(t, h, paperfixText), mustCreate(t, h, paperfixText)
		r.Delete(a1)
		r.Delete(a2)
		held, ok := r.Get(mustCreate(t, h, other))
		if !ok {
			t.Fatal("session not live")
		}
		held.begin() // an operation in flight keeps the session from the janitor
		defer held.end()
		idle := other + "\n"
		mustCreate(t, h, idle)
		mustCreate(t, h, idle)
		oneOff := idle + "\n"
		r.Delete(mustCreate(t, h, oneOff))

		now := time.Now()
		for _, at := range []time.Duration{0, ttl - time.Minute} {
			r.evictExpired(now.Add(at))
			if _, stored := storedRefs(r, paperfixText); !stored || !remembered(r, oneOff) {
				t.Fatalf("entry or key dropped %v after its release, before the TTL", at)
			}
		}
		r.evictExpired(now.Add(ttl + time.Minute))
		if _, stored := storedRefs(r, paperfixText); stored || remembered(r, oneOff) {
			t.Fatal("unreferenced entry or remembered key kept past the TTL")
		}
		if refs, stored := storedRefs(r, other); !stored || refs != 1 {
			t.Fatalf("referenced entry: stored %v, refs %d", stored, refs)
		}
		// The idle sessions were evicted by that scan. Only their release
		// lets the same scan, which runs past the TTL, drop their entry.
		if _, stored := storedRefs(r, idle); r.Len() != 1 || stored {
			t.Fatalf("after TTL eviction: %d sessions, entry stored %v; want 1 and dropped", r.Len(), stored)
		}
	})

	t.Run("a full store evicts the least recently released entry", func(t *testing.T) {
		o := newOntologyStore(2, time.Hour)
		third := other + "\n"
		_, releaseA := holdTwice(o, paperfixText)
		_, releaseB := holdTwice(o, other)
		releaseA()
		time.Sleep(2 * time.Millisecond)
		releaseB()
		_, e, _ := o.acquireText(third)
		if o.entries[textKey(paperfixText)] != nil {
			t.Fatal("the least recently released entry survived a full store")
		}
		if o.entries[textKey(other)] == nil {
			t.Fatal("the more recently released entry was evicted")
		}
		if e == nil || e.refs != 1 {
			t.Fatal("new entry not stored with one reference")
		}
	})

	t.Run("a store whose entries are all held grows past its limit", func(t *testing.T) {
		o := newOntologyStore(2, time.Hour)
		var releases []func()
		for _, text := range []string{paperfixText, other, other + "\n"} {
			e, release := holdTwice(o, text)
			if e == nil {
				t.Fatal("a held store did not store a new text")
			}
			releases = append(releases, release)
		}
		if len(o.entries) != 3 {
			t.Fatalf("%d entries, want 3 held past the limit of 2", len(o.entries))
		}
		releases[0]()
		if len(o.entries) != 2 || o.entries[textKey(paperfixText)] != nil {
			t.Fatalf("a release past the limit kept its graph (%d entries)", len(o.entries))
		}
		releases[1]()
		if len(o.entries) != 2 || o.entries[textKey(other)] == nil {
			t.Fatal("a release within the limit did not retain a repeated entry")
		}
		releases[2]()
	})

	t.Run("concurrent misses store one graph", func(t *testing.T) {
		w, err := experiments.LoadDBpedia(0.2)
		if err != nil {
			t.Fatal(err)
		}
		text := ntriples.Format(w.Ontology)
		o := newOntologyStore(4, time.Hour)
		const n = 8
		graphs := make([]*graph.Graph, n)
		var wg sync.WaitGroup
		for i := range graphs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				g, _, err := o.acquireText(text)
				if err != nil {
					t.Error(err)
				}
				graphs[i] = g
			}(i)
		}
		wg.Wait()
		for _, g := range graphs[1:] {
			if g != graphs[0] {
				t.Fatal("concurrent creates from one text hold different graphs")
			}
		}
		if e := o.entries[textKey(text)]; len(o.entries) != 1 || e.refs != n {
			t.Fatalf("%d entries, refs %d; want 1 entry held %d times", len(o.entries), e.refs, n)
		}
	})
}

func TestOntologyMetrics(t *testing.T) {
	r := newTestRegistry(t, Config{})
	h := NewServer(r)
	const n = 5
	for i := 0; i < n; i++ {
		mustCreate(t, h, paperfixText)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	fams, err := obs.ParsePromText(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"questprod_ontologies":            1,
		"questprod_ontology_parses_total": 1,
		"questprod_ontology_reuses_total": n - 1,
	} {
		mf := fams[name]
		if mf == nil {
			t.Errorf("%s missing from /metrics", name)
			continue
		}
		if v, ok := mf.Value(); !ok || v != want {
			t.Errorf("%s = %v, want %v", name, v, want)
		}
	}
}

// TestRestoreSharesOntology: sessions restored from ontology files with
// the same payload share one graph, decoded once. The payload encodes the
// graph, so uploads that differ only in bytes the parser ignores share at
// restore as well.
func TestRestoreSharesOntology(t *testing.T) {
	dir := t.TempDir()
	r1 := NewRegistry(Config{Store: openStore(t, dir)})
	h := NewServer(r1)
	var shared []string
	for i := 0; i < 4; i++ {
		shared = append(shared, mustCreate(t, h, paperfixText))
	}
	lone := mustCreate(t, h, paperfixText+"paper9 wb Zoe .\n")
	r1.Close()

	// A restore that fails (here: past the session limit) releases its
	// reference.
	r2 := NewRegistry(Config{Store: openStore(t, dir), MaxSessions: 3})
	held := heldRefs(r2)
	n := r2.Len()
	r2.Close()
	if n != 3 || held != 3 {
		t.Fatalf("%d sessions restored, entries held %d times; want 3 and 3", n, held)
	}

	r3 := newTestRegistry(t, Config{Store: openStore(t, dir)})
	g := sessionOnto(t, r3, shared[0])
	for _, id := range shared[1:] {
		if sessionOnto(t, r3, id) != g {
			t.Fatal("restored sessions over one ontology file hold different graphs")
		}
	}
	if sessionOnto(t, r3, lone) == g {
		t.Fatal("a session over another ontology shares the graph")
	}
	if m := r3.Metrics(); m.Ontologies != 2 || m.OntologyParses != 2 || m.OntologyReuses != 3 {
		t.Fatalf("after restore: %d ontologies, %d parses, %d reuses; want 2, 2, 3",
			m.Ontologies, m.OntologyParses, m.OntologyReuses)
	}

	// An upload of a restored payload, bare or behind the frame tag, never
	// hits the restored entry: it is parsed as N-Triples and rejected.
	payload, err := encodeOntology(g)
	if err != nil {
		t.Fatal(err)
	}
	r3.ontologies.mu.Lock()
	restored := r3.ontologies.entries[frameKey(payload)]
	r3.ontologies.mu.Unlock()
	if restored == nil {
		t.Fatal("the restored payload is not stored under its frame key")
	}
	h3 := NewServer(r3)
	for _, text := range []string{string(payload), string(rune(frameKind)) + string(payload)} {
		if code, _ := postCreate(t, h3, api.CreateSessionRequest{Ontology: text}); code != http.StatusBadRequest {
			t.Fatalf("upload of a restored payload: status %d, want 400", code)
		}
	}
	if m := r3.Metrics(); m.OntologyParses != 4 || m.OntologyReuses != 3 {
		t.Fatalf("after payload uploads: %d parses, %d reuses; want 4 and 3", m.OntologyParses, m.OntologyReuses)
	}

	for _, id := range append(shared, lone) {
		r3.Delete(id)
	}
	if held := heldRefs(r3); held != 0 {
		t.Fatalf("entries held %d times after every session was deleted", held)
	}
}

// heldRefs sums the reference counts of the registry's stored ontologies.
func heldRefs(r *Registry) int {
	r.ontologies.mu.Lock()
	defer r.ontologies.mu.Unlock()
	n := 0
	for _, e := range r.ontologies.entries {
		n += e.refs
	}
	return n
}

// TestSharedOntologyMatchesPrivate runs examples, top-k and a feedback
// dialogue on 8 sessions over one uploaded text in parallel, and compares
// every SPARQL text, candidate and counter byte for byte with sessions
// made through Registry.Create over private parses of the same text.
// Under -race it is also the check that sessions read a shared graph
// safely.
func TestSharedOntologyMatchesPrivate(t *testing.T) {
	ctx := context.Background()
	w, err := experiments.LoadDBpedia(0.2)
	if err != nil {
		t.Fatal(err)
	}
	text := ntriples.Format(w.Ontology)

	type script struct {
		exs  provenance.ExampleSet
		want map[string]bool // the target query's results: the oracle
	}
	const n = 8
	var scripts []script
	for seed := int64(1); len(scripts) < n && seed < 8; seed++ {
		for _, bq := range w.Queries {
			sm := sampling.New(w.Evaluator(), bq.Query, rand.New(rand.NewSource(seed)))
			rs, err := sm.Results(ctx)
			if err != nil || len(rs) < 4 {
				continue
			}
			exs, err := sm.ExampleSet(ctx, 3)
			if err != nil {
				t.Fatal(err)
			}
			want := map[string]bool{}
			for _, v := range rs {
				want[v] = true
			}
			if scripts = append(scripts, script{exs, want}); len(scripts) == n {
				break
			}
		}
	}
	if len(scripts) < n {
		t.Fatalf("only %d scripts", len(scripts))
	}

	marshal := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Error(err)
		}
		return string(b)
	}
	run := func(s *Session, sc script) []string {
		var out []string
		if err := s.SetExamples(ctx, sc.exs); err != nil {
			return append(out, "examples: "+err.Error())
		}
		res, err := s.Infer(ctx, "topk")
		if err != nil {
			return append(out, "infer: "+err.Error())
		}
		c := res.Stats.Counters()
		out = append(out, res.Query.SPARQL(), marshal(c))
		for _, cand := range res.Candidates {
			out = append(out, fmt.Sprintf("%v\n%s", cand.Cost, cand.Query.SPARQL()))
		}
		ev, err := s.StartFeedback(ctx, 0)
		for i := 0; err == nil && !ev.Done && i < 64; i++ {
			out = append(out, marshal(feedbackEventJSON(ev)))
			ev, err = s.AnswerFeedback(ctx, sc.want[ev.Question.Value])
		}
		if err != nil {
			return append(out, "feedback: "+err.Error())
		}
		out = append(out, marshal(feedbackEventJSON(ev)))
		if q := s.Result(); q != nil {
			out = append(out, q.SPARQL())
		}
		return append(out, marshal(s.Stats()))
	}

	ctrl := newTestRegistry(t, Config{})
	want := make([][]string, n)
	for i, sc := range scripts {
		g, err := ntriples.ParseString(text)
		if err != nil {
			t.Fatal(err)
		}
		s, err := ctrl.Create(g, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		want[i] = run(s, sc)
	}

	r := newTestRegistry(t, Config{TotalWorkers: 4})
	h := NewServer(r)
	sessions := make([]*Session, n)
	for i := range sessions {
		s, ok := r.Get(mustCreate(t, h, text))
		if !ok {
			t.Fatal("session not live")
		}
		sessions[i] = s
	}
	for _, s := range sessions[1:] {
		if s.onto != sessions[0].onto {
			t.Fatal("sessions over one text hold different graphs")
		}
	}
	got := make([][]string, n)
	var wg sync.WaitGroup
	for i := range sessions {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = run(sessions[i], scripts[i])
		}(i)
	}
	wg.Wait()
	for i := range want {
		if g, w := strings.Join(got[i], "\n"), strings.Join(want[i], "\n"); g != w {
			t.Errorf("session %d over the shared graph diverged:\n%s\n--- private ---\n%s", i, g, w)
		}
	}
}

// TestOntologyKeys pins the store's keys: the SHA-256 of a kind tag and
// the exact bytes, so uploaded text and restored payloads never share one.
func TestOntologyKeys(t *testing.T) {
	for _, text := range []string{"", "a", strings.Repeat("paper1 wb Alice .\n", 1000)} {
		if textKey(text) != sha256.Sum256([]byte("t"+text)) {
			t.Fatalf("textKey of %d bytes differs from SHA-256 of t + text", len(text))
		}
		if frameKey([]byte(text)) != sha256.Sum256([]byte("f"+text)) {
			t.Fatalf("frameKey of %d bytes differs from SHA-256 of f + payload", len(text))
		}
		if textKey(text) == frameKey([]byte(text)) {
			t.Fatal("text and payload of the same bytes share a key")
		}
	}
}
