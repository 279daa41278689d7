package service_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"questpro/internal/api"
	"questpro/internal/experiments"
	"questpro/internal/ntriples"
	"questpro/internal/service"
)

// BenchmarkCreateUniqueOntology times a create and a delete over the
// HTTP handler where every create uploads a text no earlier create used:
// bsbm at scale 0.35 (about 295 KB of N-Triples) behind a distinct comment
// line, at the registry's default session limit and TTL. Each create
// parses and freezes its ontology; with the shared ontology store it also
// hashes the text. It also reports retained_kb/op: the live heap the loop
// leaves behind once every session is deleted, per create. A store that
// kept one-off uploads would show about one ontology per create there. It
// needs only the service's exported API, so the same file times a build
// without the store.
//
//	go test -run '^$' -bench CreateUniqueOntology -benchmem ./internal/service/
func BenchmarkCreateUniqueOntology(b *testing.B) {
	w, err := experiments.LoadBSBM(0.35)
	if err != nil {
		b.Fatal(err)
	}
	text, err := json.Marshal(ntriples.Format(w.Ontology))
	if err != nil {
		b.Fatal(err)
	}
	reg := service.NewRegistry(service.Config{})
	defer reg.Close()
	h := service.NewServer(reg)
	serve := func(method, path string, body []byte, want int) []byte {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		if rec.Code != want {
			b.Fatalf("%s %s: status %d, want %d", method, path, rec.Code, want)
		}
		return rec.Body.Bytes()
	}
	before := liveHeap()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		// text is a JSON string literal; splice the comment in after its
		// opening quote.
		body := fmt.Appendf(nil, `{"ontology":"# upload %d\n`, i)
		body = append(append(body, text[1:]...), '}')
		b.StartTimer()
		var resp api.CreateSessionResponse
		if err := json.Unmarshal(serve(http.MethodPost, "/"+api.Version+"/sessions", body, http.StatusCreated), &resp); err != nil {
			b.Fatal(err)
		}
		serve(http.MethodDelete, "/"+api.Version+"/sessions/"+resp.SessionID, nil, http.StatusOK)
	}
	b.StopTimer()
	b.ReportMetric((float64(liveHeap())-float64(before))/1024/float64(b.N), "retained_kb/op")
}

// liveHeap is the heap in use after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
