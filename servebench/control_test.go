package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"

	"questpro/internal/api"
	"questpro/internal/ntriples"
	"questpro/internal/paperfix"
	"questpro/internal/query"
	"questpro/internal/service"
)

// paperScript builds the control of one dialogue over the paper's running
// example: create, the four explanations, top-k, feedback answered for Q1,
// delete.
func paperScript(t *testing.T) *script {
	t.Helper()
	o := &ontology{name: "paperfix", wire: ntriples.Format(paperfix.Ontology())}
	var err error
	if o.graph, err = ntriples.ParseString(o.wire); err != nil {
		t.Fatal(err)
	}
	if o.createBody, err = json.Marshal(api.CreateSessionRequest{Ontology: o.wire}); err != nil {
		t.Fatal(err)
	}
	q := &catalogQuery{name: "Q1", target: query.NewUnion(paperfix.Q1()), sample: paperfix.Explanations(o.graph)}
	sc, err := buildScript(context.Background(), o, q, [][]api.Example{wireExamples(q.sample)}, false, true)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func newTestServer(t *testing.T) (*service.Registry, *httptest.Server) {
	t.Helper()
	reg := service.NewRegistry(service.Config{DisableTracing: true})
	srv := httptest.NewServer(service.NewServer(reg))
	t.Cleanup(func() {
		srv.Close()
		reg.Close()
	})
	return reg, srv
}

// TestControlMatchesServer replays the control's dialogue through the real
// HTTP stack: every response must equal the control's bytes.
func TestControlMatchesServer(t *testing.T) {
	sc := paperScript(t)
	if sc.questions == 0 {
		t.Fatal("the running example should ask at least one feedback question")
	}
	reg, srv := newTestServer(t)
	c := &client{tag: "t-", base: srv.URL, hc: srv.Client()}
	c.runScript(sc, "", false)
	if c.t.failed != 0 || c.t.goodDialogues != 1 {
		t.Fatalf("failed=%d good=%d: %v", c.t.failed, c.t.goodDialogues, c.t.errs)
	}
	if c.t.attempted != len(sc.exchanges) || c.t.questions != sc.questions {
		t.Errorf("attempted=%d questions=%d; want %d, %d", c.t.attempted, c.t.questions, len(sc.exchanges), sc.questions)
	}
	if n := reg.Len(); n != 0 {
		t.Errorf("%d sessions left open", n)
	}
}

// TestCorruptedControlIsReported corrupts the control's final decision: the
// dialogue must count as mismatched and failed, not as good, and its
// session must still be deleted.
func TestCorruptedControlIsReported(t *testing.T) {
	sc := paperScript(t)
	bad := *sc
	bad.exchanges = append([]exchange(nil), sc.exchanges...)
	last := &bad.exchanges[len(bad.exchanges)-2] // the decision, before delete
	if !bytes.Contains(last.want, []byte(`"done": true`)) {
		t.Fatalf("expected the final decision, got %s", last.want)
	}
	last.want = bytes.Replace(last.want, []byte("SELECT"), []byte("SELECT DISTINCT"), 1)

	reg, srv := newTestServer(t)
	c := &client{tag: "t-", base: srv.URL, hc: srv.Client()}
	c.runScript(&bad, "", false)
	if c.t.mismatched != 1 || c.t.failed != 1 || c.t.goodDialogues != 0 {
		t.Fatalf("mismatched=%d failed=%d good=%d; want 1, 1, 0", c.t.mismatched, c.t.failed, c.t.goodDialogues)
	}
	if n := reg.Len(); n != 0 {
		t.Errorf("%d sessions left open after the failed dialogue", n)
	}
}

// TestMatchesIgnoresOnlyWallTime checks the one normalization of a
// comparison: an infer response's wall_ms.
func TestMatchesIgnoresOnlyWallTime(t *testing.T) {
	want := render(api.InferResponse{Mode: "topk", SPARQL: "q", Stats: api.Stats{GainEvals: 7}})
	got := bytes.Replace(want, []byte(`"wall_ms": 0`), []byte(`"wall_ms": 123`), 1)
	if !matches(opInfer, got, want) {
		t.Error("an infer response differing only in wall_ms must match")
	}
	if matches(opFeedback, got, want) {
		t.Error("only infer responses carry a wall time")
	}
	other := bytes.Replace(got, []byte(`"gain_evals": 7`), []byte(`"gain_evals": 8`), 1)
	if matches(opInfer, other, want) {
		t.Error("a differing counter must not match")
	}
}
