package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"questpro/internal/ntriples"
	"questpro/internal/obs"
)

const (
	traceSlices = 5 // untraced and traced slices of a traced run, alternating
	directReps  = 5 // direct parse/freeze repetitions per ontology

	// unattributedBound is the share of the client-observed time the
	// reconciliation may leave unattributed before the traced run fails.
	unattributedBound = 0.02
)

// perLayerMetrics lists the traced run's report with units. Times are ms
// per request of the traced slices unless the name says otherwise.
var perLayerMetrics = []struct{ name, unit string }{
	{"http.self_ms", "ms"},
	{"gateway.self_ms", "ms"},
	{"gateway.retries_per_1k", "per_1k"},
	{"service.create_ms", "ms"},
	{"ntriples.parse_ms", "ms"},
	{"graph.freeze_ms", "ms"},
	{"service.codec_ms", "ms"},
	{"service.session_self_ms", "ms"},
	{"conc.shed_per_1k", "per_1k"},
	{"core.infer_ms", "ms"},
	{"core.merge_pair_ms", "ms"},
	{"core.algorithm1_calls", "count"},
	{"core.gain_evals", "count"},
	{"core.restarts", "count"},
	{"core.cache_hit_rate", "ratio"},
	{"core.peak_parallelism", "count"},
	{"core.complete_ms", "ms"},
	{"core.completion_accept_rate", "ratio"},
	{"feedback.turn_ms", "ms"},
	{"feedback.questions", "count"},
	{"feedback.question_yield", "ratio"},
	{"eval.results_ms", "ms"},
	{"eval.results_calls", "count"},
	{"eval.provenance_ms", "ms"},
	{"store.save_ms", "ms"},
	{"store.saves", "count"},
	{"store.kb_per_save", "KiB"},
	{"store.errors", "count"},
	{"runtime.alloc_kb", "KiB"},
	{"runtime.gc_pause_ms", "ms/s"},
	{"obs.trace_overhead_pct", "%"},
	{"unattributed_ms", "ms"},
}

// layerRecord is the traced run's reconciliation, in the run record.
type layerRecord struct {
	Requests       int                `json:"requests"`
	ClientMs       float64            `json:"client_ms_per_request"`
	LayerMs        map[string]float64 `json:"layer_ms_per_request"`
	UnattributedMs float64            `json:"unattributed_ms_per_request"`
	BoundMs        float64            `json:"unattributed_bound_ms_per_request"`
	TraceFile      string             `json:"trace_file"`
}

// tracedRun runs the workload for the timed phase's length on one set-up,
// alternating untraced and traced slices so both see the same machine: the
// untraced slices are the reference for the tracing overhead and the
// runtime counters; the traced ones, with the span gate on, record the
// client, handler and program spans. /metrics is scraped before the first
// slice and after the last. The spans are joined into the per-layer
// breakdown, which must reconcile with the client time.
func tracedRun(e *env, spanRec *recorder, rec *runRecord, setupT *tally) (*result, error) {
	before, err := e.stack.scrape(e.hc)
	if err != nil {
		return nil, err
	}
	var (
		u, t               = &tally{}, &tally{}
		uElapsed, tElapsed time.Duration
		alloc, pause       uint64
		m0, m1             runtime.MemStats
		journal            []byte
	)
	slice := e.cfg.seconds / (2 * traceSlices)
	for i := 0; i < traceSlices; i++ {
		runtime.ReadMemStats(&m0)
		us, d := e.runPhase("u"+strconv.Itoa(i)+"c", false, slice)
		runtime.ReadMemStats(&m1)
		u.add(us)
		uElapsed += d
		alloc += m1.TotalAlloc - m0.TotalAlloc
		pause += m1.PauseTotalNs - m0.PauseTotalNs
		if n := len(e.stack.journal.take()); n != 0 {
			return nil, fmt.Errorf("an untraced slice recorded %d bytes of spans", n)
		}

		spanRec.on.Store(true)
		obs.SetEnabled(true)
		ts, d := e.runPhase("t"+strconv.Itoa(i)+"c", true, slice)
		obs.SetEnabled(false)
		spanRec.on.Store(false)
		t.add(ts)
		tElapsed += d
		journal = append(journal, e.stack.journal.take()...)
	}
	after, err := e.stack.scrape(e.hc)
	if err != nil {
		return nil, err
	}
	rec.addPhase("untraced", u, uElapsed)
	rec.addPhase("traced", t, tElapsed)
	roots, err := parseJournal(journal)
	if err != nil {
		return nil, fmt.Errorf("reading the trace log: %w", err)
	}
	direct, parseMs, freezeMs, err := directCalls(e.onts)
	if err != nil {
		return nil, err
	}
	handlers := spanRec.taken()
	at := attribute(newTraceData(t.spans, handlers, roots, e.stack.gwURL != ""))

	delta := func(name string) float64 { return after[name] - before[name] }
	reqs := float64(max(at.requests, 1))
	allReqs := float64(max(u.attempted+t.attempted, 1)) // the scrapes span both
	perReq := func(ns int64) float64 { return float64(ns) / 1e6 / reqs }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	var parsePerReq, freezePerReq float64
	for i, n := range t.creates {
		parsePerReq += float64(n) * parseMs[i] / reqs
		freezePerReq += float64(n) * freezeMs[i] / reqs
	}
	var snapBytes float64
	for _, b := range t.snapBytes {
		snapBytes += float64(b)
	}
	infers := float64(t.infers)
	storeErrors := delta("questprod_snapshot_errors_total")
	m := map[string]float64{
		"gateway.retries_per_1k":      1000 * ratio(delta("qpgate_proxy_retries_total")+delta("qpgate_held_total")+delta("qpgate_shed_total"), allReqs),
		"ntriples.parse_ms":           parsePerReq,
		"graph.freeze_ms":             freezePerReq,
		"conc.shed_per_1k":            1000 * ratio(delta("questprod_load_shed_total"), allReqs),
		"core.algorithm1_calls":       ratio(float64(t.counters.Algorithm1Calls), infers),
		"core.gain_evals":             ratio(float64(t.counters.GainEvals), infers),
		"core.restarts":               ratio(float64(t.counters.Restarts), infers),
		"core.cache_hit_rate":         ratio(float64(t.counters.CacheHits), float64(t.counters.Algorithm1Calls)),
		"core.peak_parallelism":       after["questprod_peak_parallelism"],
		"core.completion_accept_rate": ratio(float64(t.counters.CompletionsAccepted), float64(t.counters.CompletionsConsidered)),
		"feedback.questions":          ratio(float64(t.questions), float64(t.fbDialogues)),
		"feedback.question_yield":     ratio(float64(at.answered), float64(at.examined)),
		"eval.results_calls":          ratio(float64(at.evalCalls), float64(at.turns)),
		"store.saves":                 ratio(delta("questprod_snapshot_writes_total"), float64(u.dialogues+t.dialogues)),
		"store.kb_per_save":           ratio(snapBytes/1024, float64(len(t.snapBytes))),
		"store.errors":                storeErrors,
		"runtime.alloc_kb":            ratio(float64(alloc)/1024, float64(u.attempted)),
		"runtime.gc_pause_ms":         float64(pause) / 1e6 / uElapsed.Seconds(),
		"obs.trace_overhead_pct":      100 * (median(t.requestsMs)/median(u.requestsMs) - 1),
		"unattributed_ms":             perReq(at.unattributed),
	}
	lr := &layerRecord{
		Requests:       at.requests,
		ClientMs:       perReq(at.clientNs),
		LayerMs:        map[string]float64{},
		UnattributedMs: perReq(at.unattributed),
		BoundMs:        unattributedBound * perReq(at.clientNs),
	}
	for _, l := range append(append([]string(nil), reconciled...), layerMergePair, layerEvalResults, layerEvalProv) {
		m[l] = perReq(at.ns[l])
		lr.LayerMs[l] = m[l]
	}
	rec.Layers = lr

	path, err := rec.writeTrace(append(append(t.benchSpans(), handlers...), direct...), journal, before, after)
	if err != nil {
		return nil, err
	}
	lr.TraceFile = path

	reconciles := math.Abs(lr.UnattributedMs) <= lr.BoundMs
	if !reconciles {
		rec.Warnings = append(rec.Warnings, fmt.Sprintf("unattributed %.4f ms per request exceeds the bound %.4f ms", lr.UnattributedMs, lr.BoundMs))
	}
	if storeErrors != 0 {
		rec.Warnings = append(rec.Warnings, fmt.Sprintf("%v snapshot persists failed", storeErrors))
	}
	all := &tally{}
	all.add(setupT)
	all.add(u)
	all.add(t)
	res := &result{
		Correct:   all.mismatched == 0 && reconciles && storeErrors == 0,
		Attempted: all.attempted,
		Failed:    all.failed,
		Metrics:   map[string]metric{},
	}
	for _, pm := range perLayerMetrics {
		res.Metrics[pm.name] = metric{m[pm.name], pm.unit}
	}
	return res, rec.finish(res)
}

// benchSpans returns the client request spans of a traced phase.
func (t *tally) benchSpans() []benchSpan {
	out := make([]benchSpan, len(t.spans))
	for i, r := range t.spans {
		out[i] = benchSpan{Kind: "client." + r.op, RID: r.rid, Session: r.session, Start: r.iv.start, Dur: r.iv.len()}
	}
	return out
}

// directCalls times ntriples.ParseString and (*graph.Graph).Freeze on every
// ontology's create body, recording a span around each call, and returns
// the median ms per ontology.
func directCalls(onts []*ontology) (spans []benchSpan, parseMs, freezeMs []float64, err error) {
	parseMs, freezeMs = make([]float64, len(onts)), make([]float64, len(onts))
	for i, o := range onts {
		var ps, fs []float64
		for r := 0; r < directReps; r++ {
			start := time.Now()
			g, err := ntriples.ParseString(o.wire)
			if err != nil {
				return nil, nil, nil, err
			}
			mid := time.Now()
			g.Freeze()
			d1, d2 := mid.Sub(start), time.Since(mid)
			spans = append(spans,
				benchSpan{Kind: spanParse, Session: o.name, Start: start.UnixNano(), Dur: d1.Nanoseconds()},
				benchSpan{Kind: spanFreeze, Session: o.name, Start: mid.UnixNano(), Dur: d2.Nanoseconds()})
			ps, fs = append(ps, ms(d1)), append(fs, ms(d2))
		}
		parseMs[i], freezeMs[i] = median(ps), median(fs)
	}
	return spans, parseMs, freezeMs, nil
}

// scrape reads /metrics from every server of the stack and sums each
// counter and gauge series over servers and labels; peak parallelism is
// the maximum instead.
func (st *stack) scrape(hc *http.Client) (map[string]float64, error) {
	out := map[string]float64{}
	urls := append([]string(nil), st.shardURLs...)
	if st.gwURL != "" {
		urls = append(urls, st.gwURL)
	}
	for _, u := range urls {
		resp, err := hc.Get(u + "/metrics")
		if err != nil {
			return nil, fmt.Errorf("scraping %s: %w", u, err)
		}
		fams, err := obs.ParsePromText(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("scraping %s: %w", u, err)
		}
		for name, mf := range fams {
			if mf.Type != "counter" && mf.Type != "gauge" {
				continue
			}
			for _, s := range mf.Samples {
				if name == "questprod_peak_parallelism" {
					out[name] = max(out[name], s.Value)
				} else {
					out[name] += s.Value
				}
			}
		}
	}
	return out, nil
}

// traceFile is everything the traced phase recorded.
type traceFile struct {
	BenchSpans   []benchSpan        `json:"bench_spans"`
	ProgramRoots []json.RawMessage  `json:"program_roots"`
	Before       map[string]float64 `json:"metrics_before"`
	After        map[string]float64 `json:"metrics_after"`
}
