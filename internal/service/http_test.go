package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"questpro/internal/eval"
	"questpro/internal/experiments"
	"questpro/internal/ntriples"
	"questpro/internal/paperfix"
	"questpro/internal/query"
	"questpro/internal/service"
	"questpro/internal/workload/sampling"
)

var bg = context.Background()

// client is a minimal JSON client over the test server.
type client struct {
	t    *testing.T
	base string
	http *http.Client
}

func (c *client) do(method, path string, body any) (int, map[string]any) {
	c.t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			c.t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatal(err)
	}
	var out map[string]any
	if len(raw) > 0 && json.Valid(raw) {
		if err := json.Unmarshal(raw, &out); err != nil {
			c.t.Fatal(err)
		}
	}
	return resp.StatusCode, out
}

func (c *client) post(path string, body any) (int, map[string]any) {
	return c.do(http.MethodPost, path, body)
}

func newTestServer(t *testing.T, cfg service.Config) *client {
	t.Helper()
	reg := service.NewRegistry(cfg)
	t.Cleanup(reg.Close)
	ts := httptest.NewServer(service.NewServer(reg))
	t.Cleanup(ts.Close)
	return &client{t: t, base: ts.URL, http: ts.Client()}
}

// paperfixExamples renders the running example's explanations in the wire
// format.
func paperfixExamples() map[string]any {
	o := paperfix.Ontology()
	var exs []map[string]string
	for _, e := range paperfix.Explanations(o) {
		exs = append(exs, map[string]string{
			"triples":       ntriples.Format(e.Graph),
			"distinguished": e.DistinguishedValue(),
		})
	}
	return map[string]any{"examples": exs}
}

// runSessionE2E drives one full lifecycle: create, submit examples, top-k
// inference, feedback dialogue to completion, stats, delete. The oracle
// mimics a user whose intended query is Union(Q3, Q4).
func runSessionE2E(t *testing.T, c *client, wantResult map[string]bool) error {
	status, resp := c.post("/v1/sessions", map[string]any{
		"ontology": ntriples.Format(paperfix.Ontology()),
	})
	if status != http.StatusCreated {
		return fmt.Errorf("create: status %d (%v)", status, resp)
	}
	id, _ := resp["session_id"].(string)
	if id == "" {
		return fmt.Errorf("create: no session_id in %v", resp)
	}
	base := "/v1/sessions/" + id

	if status, resp = c.post(base+"/examples", paperfixExamples()); status != http.StatusOK {
		return fmt.Errorf("examples: status %d (%v)", status, resp)
	}

	status, resp = c.post(base+"/infer", map[string]any{"mode": "topk"})
	if status != http.StatusOK {
		return fmt.Errorf("infer: status %d (%v)", status, resp)
	}
	if s, _ := resp["sparql"].(string); !strings.Contains(s, "SELECT") {
		return fmt.Errorf("infer: implausible sparql %q", s)
	}
	if cands, _ := resp["candidates"].([]any); len(cands) == 0 {
		return fmt.Errorf("infer: no candidates in %v", resp)
	}

	status, resp = c.post(base+"/feedback", nil)
	if status != http.StatusOK {
		return fmt.Errorf("feedback: status %d (%v)", status, resp)
	}
	for i := 0; i < 32; i++ {
		if done, _ := resp["done"].(bool); done {
			break
		}
		res, _ := resp["result"].(string)
		if res == "" {
			return fmt.Errorf("feedback: question without result: %v", resp)
		}
		if prov, _ := resp["provenance"].(string); prov == "" {
			return fmt.Errorf("feedback: question without provenance: %v", resp)
		}
		status, resp = c.post(base+"/feedback/answer", map[string]any{"include": wantResult[res]})
		if status != http.StatusOK {
			return fmt.Errorf("answer: status %d (%v)", status, resp)
		}
	}
	if done, _ := resp["done"].(bool); !done {
		return fmt.Errorf("feedback did not converge: %v", resp)
	}
	if s, _ := resp["sparql"].(string); !strings.Contains(s, "SELECT") {
		return fmt.Errorf("feedback: no final query in %v", resp)
	}

	status, resp = c.do(http.MethodGet, base+"/stats", nil)
	if status != http.StatusOK {
		return fmt.Errorf("stats: status %d", status)
	}
	if n, _ := resp["infers"].(float64); n != 1 {
		return fmt.Errorf("stats: infers = %v, want 1", resp["infers"])
	}

	if status, resp = c.do(http.MethodDelete, base, nil); status != http.StatusOK {
		return fmt.Errorf("delete: status %d (%v)", status, resp)
	}
	return nil
}

// TestHTTPEndToEndConcurrent runs 32 complete sessions concurrently against
// one server (create → examples → infer → feedback → stats → delete); the
// -race build doubles as the registry's concurrency audit.
func TestHTTPEndToEndConcurrent(t *testing.T) {
	c := newTestServer(t, service.Config{})

	o := paperfix.Ontology()
	target := query.NewUnion(paperfix.Q3(), paperfix.Q4())
	vals, err := eval.New(o).Results(bg, target)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, v := range vals {
		want[v] = true
	}

	const sessions = 32
	var wg sync.WaitGroup
	errs := make([]error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = runSessionE2E(t, c, want)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("session %d: %v", i, err)
		}
	}

	status, body := c.do(http.MethodGet, "/metrics", nil)
	if status != http.StatusOK {
		t.Fatalf("metrics: status %d", status)
	}
	_ = body // metrics are plain text; fetch again raw below
	resp, err := c.http.Get(c.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(raw)
	for _, gauge := range []string{
		"questprod_sessions_created_total 32",
		"questprod_infer_total 32",
		"questprod_sessions_active 0",
	} {
		if !strings.Contains(text, gauge) {
			t.Errorf("metrics missing %q:\n%s", gauge, text)
		}
	}
}

func TestHTTPHealthz(t *testing.T) {
	c := newTestServer(t, service.Config{})
	resp, err := c.http.Get(c.base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}
}

// GET …/feedback re-reads the pending question without consuming it, and
// answering afterwards still converges.
func TestHTTPPendingFeedbackReread(t *testing.T) {
	c := newTestServer(t, service.Config{})
	status, resp := c.post("/v1/sessions", map[string]any{
		"ontology": ntriples.Format(paperfix.Ontology()),
	})
	if status != http.StatusCreated {
		t.Fatalf("create: status %d", status)
	}
	base := "/v1/sessions/" + resp["session_id"].(string)
	if status, _ = c.post(base+"/examples", paperfixExamples()); status != http.StatusOK {
		t.Fatalf("examples: status %d", status)
	}
	if status, _ = c.post(base+"/infer", map[string]any{"mode": "topk"}); status != http.StatusOK {
		t.Fatalf("infer: status %d", status)
	}
	status, resp = c.post(base+"/feedback", nil)
	if status != http.StatusOK {
		t.Fatalf("feedback: status %d", status)
	}
	if done, _ := resp["done"].(bool); done {
		t.Skip("candidates collapsed without questions")
	}
	want, _ := resp["result"].(string)
	for i := 0; i < 3; i++ {
		status, again := c.do(http.MethodGet, base+"/feedback", nil)
		if status != http.StatusOK {
			t.Fatalf("pending read: status %d (%v)", status, again)
		}
		if got, _ := again["result"].(string); got != want {
			t.Fatalf("pending read %d returned %q, want %q", i, got, want)
		}
	}
	for i := 0; i < 32; i++ {
		if done, _ := resp["done"].(bool); done {
			return
		}
		status, resp = c.post(base+"/feedback/answer", map[string]any{"include": false})
		if status != http.StatusOK {
			t.Fatalf("answer: status %d (%v)", status, resp)
		}
	}
	t.Fatal("dialogue did not converge after pending re-reads")
}

func TestHTTPUnknownSession(t *testing.T) {
	c := newTestServer(t, service.Config{})
	if status, _ := c.post("/v1/sessions/deadbeef/infer", nil); status != http.StatusNotFound {
		t.Fatalf("status %d, want 404", status)
	}
}

func TestHTTPBadOntology(t *testing.T) {
	c := newTestServer(t, service.Config{})
	status, _ := c.post("/v1/sessions", map[string]any{"ontology": "a b\n"})
	if status != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", status)
	}
}

// TestHTTPInferDeadline proves a deadline kills a long inference mid-search:
// a 50ms budget against a run that takes hundreds of milliseconds comes
// back as 504 with a cancellation error, instead of completing.
func TestHTTPInferDeadline(t *testing.T) {
	w, err := experiments.Load("sp2b", 1.0)
	if err != nil {
		t.Fatal(err)
	}
	var target *query.Union
	for _, bq := range w.Queries {
		if bq.Name == "q8b" {
			target = bq.Query
		}
	}
	if target == nil {
		t.Fatal("sp2b workload lost query q8b")
	}
	sampler := sampling.New(w.Evaluator(), target, rand.New(rand.NewSource(7)))
	exs, err := sampler.ExampleSet(bg, 12)
	if err != nil {
		t.Fatal(err)
	}
	var wire []map[string]string
	for _, e := range exs {
		wire = append(wire, map[string]string{
			"triples":       ntriples.Format(e.Graph),
			"distinguished": e.DistinguishedValue(),
		})
	}

	c := newTestServer(t, service.Config{})
	status, resp := c.post("/v1/sessions", map[string]any{
		"ontology": ntriples.Format(w.Ontology),
		// Inflate per-pair work so the 50ms deadline lands mid-search even
		// with the build-best-query-once merge kernel (at 2000 the whole
		// search fits in 50ms on a fast core).
		"options": map[string]any{"num_iter": 20000},
	})
	if status != http.StatusCreated {
		t.Fatalf("create: status %d (%v)", status, resp)
	}
	base := "/v1/sessions/" + resp["session_id"].(string)
	if status, resp = c.post(base+"/examples", map[string]any{"examples": wire}); status != http.StatusOK {
		t.Fatalf("examples: status %d (%v)", status, resp)
	}

	start := time.Now()
	status, resp = c.post(base+"/infer", map[string]any{"mode": "topk", "timeout_ms": 50})
	elapsed := time.Since(start)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%v) after %s, want 504", status, resp, elapsed)
	}
	msg, _ := resp["error"].(string)
	if !strings.Contains(msg, "canceled") && !strings.Contains(msg, "deadline") {
		t.Fatalf("error %q does not look like a cancellation", msg)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %s, deadline not enforced mid-search", elapsed)
	}
}

// TestHTTPShutdownNoLeaks checks that closing the server and registry reaps
// every session goroutine, including a feedback dialogue parked on an
// unanswered question.
func TestHTTPShutdownNoLeaks(t *testing.T) {
	before := runtime.NumGoroutine()

	reg := service.NewRegistry(service.Config{})
	ts := httptest.NewServer(service.NewServer(reg))
	c := &client{t: t, base: ts.URL, http: ts.Client()}

	status, resp := c.post("/v1/sessions", map[string]any{
		"ontology": ntriples.Format(paperfix.Ontology()),
	})
	if status != http.StatusCreated {
		t.Fatalf("create: status %d", status)
	}
	base := "/v1/sessions/" + resp["session_id"].(string)
	if status, _ = c.post(base+"/examples", paperfixExamples()); status != http.StatusOK {
		t.Fatalf("examples: status %d", status)
	}
	if status, _ = c.post(base+"/infer", map[string]any{"mode": "topk"}); status != http.StatusOK {
		t.Fatalf("infer: status %d", status)
	}
	// Leave the dialogue hanging on its first question.
	if status, _ = c.post(base+"/feedback", nil); status != http.StatusOK {
		t.Fatalf("feedback: status %d", status)
	}

	ts.Close()
	reg.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
