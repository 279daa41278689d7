package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"questpro/internal/obs"
)

// Kinds of the benchmark's own spans. Client spans are "client.<op>".
const (
	spanBackend = "handler.backend" // around service.NewServer's handler
	spanGateway = "handler.gateway" // around gateway.New's handler
	spanParse   = "direct.parse"    // around ntriples.ParseString of a create body's ontology
	spanFreeze  = "direct.freeze"   // around (*graph.Graph).Freeze of the parsed graph
)

// benchSpan is one span the benchmark records from its own code.
type benchSpan struct {
	Kind    string `json:"kind"`
	RID     string `json:"request_id,omitempty"`
	Session string `json:"session_id,omitempty"`
	Shard   int    `json:"shard,omitempty"`
	Start   int64  `json:"start_unix_ns"`
	Dur     int64  `json:"duration_ns"`
}

func (s benchSpan) interval() interval { return interval{s.Start, s.Start + s.Dur} }

// recorder keeps the handler spans of the traced phase in memory.
type recorder struct {
	on    atomic.Bool
	mu    sync.Mutex
	spans []benchSpan
}

func (r *recorder) add(s benchSpan) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) taken() []benchSpan {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]benchSpan(nil), r.spans...)
}

// wrapHandler times h for every benchmark request while rec is on. A nil
// rec (an untraced run) leaves h as it is.
func wrapHandler(h http.Handler, rec *recorder, kind string, shard int) http.Handler {
	if rec == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid := r.Header.Get("X-Request-Id")
		if rid == "" || !rec.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		rec.add(benchSpan{Kind: kind, RID: rid, Shard: shard, Start: start.UnixNano(), Dur: time.Since(start).Nanoseconds()})
	})
}

// parseJournal decodes the registries' trace log into root span trees.
func parseJournal(data []byte) ([]*obs.Node, error) {
	var roots []*obs.Node
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64<<10), 64<<20)
	for sc.Scan() {
		n := new(obs.Node)
		if err := json.Unmarshal(sc.Bytes(), n); err != nil {
			return nil, err
		}
		roots = append(roots, n)
	}
	return roots, sc.Err()
}

// interval is a stretch of wall-clock time in unix nanoseconds.
type interval struct{ start, end int64 }

func (iv interval) len() int64 { return max(0, iv.end-iv.start) }

// clip returns the part of iv inside w.
func (iv interval) clip(w interval) interval {
	return interval{max(iv.start, w.start), min(iv.end, w.end)}
}

func (iv interval) contains(o interval) bool { return o.start >= iv.start && o.end <= iv.end }

func nodeInterval(n *obs.Node) interval { return interval{n.StartUnixNs, n.StartUnixNs + n.DurationNs} }

// unionLen is the length of the union of ivs inside w. Overlapping
// intervals count once: merge.pair spans overlap when computePairs fans out.
func unionLen(ivs []interval, w interval) int64 {
	cl := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		if c := iv.clip(w); c.len() > 0 {
			cl = append(cl, c)
		}
	}
	sort.Slice(cl, func(i, j int) bool { return cl[i].start < cl[j].start })
	var total int64
	for i := 0; i < len(cl); {
		cur := cl[i]
		for i++; i < len(cl) && cl[i].start <= cur.end; i++ {
			cur.end = max(cur.end, cl[i].end)
		}
		total += cur.len()
	}
	return total
}

// selfTime is a span's duration minus the union of its children's
// intervals.
func selfTime(span interval, children []interval) int64 {
	return span.len() - unionLen(children, span)
}

// Layers of the per-request breakdown.
const (
	layerHTTP     = "http.self_ms"
	layerGateway  = "gateway.self_ms"
	layerCreate   = "service.create_ms"
	layerCodec    = "service.codec_ms"
	layerSession  = "service.session_self_ms"
	layerInfer    = "core.infer_ms"
	layerComplete = "core.complete_ms"
	layerTurn     = "feedback.turn_ms"
	layerSave     = "store.save_ms"

	// Nested layers: parts of core.infer_ms and feedback.turn_ms, reported
	// but not summed again.
	layerMergePair   = "core.merge_pair_ms"
	layerEvalResults = "eval.results_ms"
	layerEvalProv    = "eval.provenance_ms"
)

// reconciled are the disjoint layers whose times, plus the unattributed
// residual, sum to the client-observed time.
var reconciled = []string{layerHTTP, layerGateway, layerCreate, layerCodec, layerSession, layerInfer, layerComplete, layerTurn, layerSave}

// spanLayer maps the program's span kinds below a session root to layers.
// Other kinds are transparent: their time stays with the nearest mapped
// ancestor.
var spanLayer = map[string]string{
	"infer.topk":        layerInfer,
	"infer.union":       layerInfer,
	"infer.simple":      layerInfer,
	"complete.examples": layerComplete,
	"snapshot.save":     layerSave,
}

// reqSpan is one client request of the traced phase.
type reqSpan struct {
	op, rid, session string
	iv               interval
}

// traceData joins the spans of one traced phase.
type traceData struct {
	requests  []reqSpan
	gateway   map[string]interval    // gateway handler by request id; nil without a gateway
	backend   map[string]interval    // questprod handler by request id
	roots     map[string]*obs.Node   // session.* root spans by request id
	dialogues map[string][]*obs.Node // feedback.dialogue roots by session id
}

// newTraceData indexes the handler spans and the program's root spans.
func newTraceData(requests []reqSpan, handlers []benchSpan, roots []*obs.Node, withGateway bool) *traceData {
	td := &traceData{
		requests:  requests,
		backend:   map[string]interval{},
		roots:     map[string]*obs.Node{},
		dialogues: map[string][]*obs.Node{},
	}
	if withGateway {
		td.gateway = map[string]interval{}
	}
	for _, s := range handlers {
		switch s.Kind {
		case spanBackend:
			td.backend[s.RID] = s.interval()
		case spanGateway:
			td.gateway[s.RID] = s.interval()
		}
	}
	for _, n := range roots {
		switch {
		case n.Kind == "feedback.dialogue":
			sid := n.Labels["session_id"]
			td.dialogues[sid] = append(td.dialogues[sid], n)
		case strings.HasPrefix(n.Kind, "session.") && n.Labels["request_id"] != "":
			td.roots[n.Labels["request_id"]] = n
		}
	}
	return td
}

// attribution is the layer breakdown of one traced phase.
type attribution struct {
	requests     int
	clientNs     int64
	ns           map[string]int64 // per layer, reconciled and nested
	unattributed int64            // clientNs minus the reconciled layers
	turns        int              // feedback start and answer requests
	evalCalls    int              // eval.results spans inside turns
	answered     int              // feedback.question spans that asked the user
	examined     int              // feedback.question spans in all
}

// attribute splits every request's client-observed time into layers:
//
//	http.self          client time − outermost handler time
//	gateway.self       gateway handler − backend handler (same request id)
//	service.create     the create handler
//	service.codec      backend handler − session.* root span
//	core.infer, core.complete, store.save
//	                   infer.*, complete.examples and snapshot.save spans
//	feedback.turn      a session.feedback.* root's self time
//	service.session    any other root's self time, and the delete handler
//
// Self time is a span's duration minus the union of its children's
// intervals. Spans on the feedback dialogue goroutine hang off a root of
// their own; their eval.* spans count toward the request whose interval
// contains them. Time no layer claims, because a span is missing or sticks
// out of its parent, is the unattributed residual.
func attribute(td *traceData) attribution {
	a := attribution{ns: map[string]int64{}}
	for _, r := range td.requests {
		a.requests++
		a.clientNs += r.iv.len()
		b, okB := td.backend[r.rid]
		outer, okO := b, okB
		if td.gateway != nil {
			outer, okO = td.gateway[r.rid]
		}
		if !okO {
			continue
		}
		a.ns[layerHTTP] += r.iv.len() - outer.clip(r.iv).len()
		if !okB {
			continue
		}
		if td.gateway != nil {
			a.ns[layerGateway] += outer.len() - b.clip(outer).len()
		}
		switch r.op {
		case opCreate:
			a.ns[layerCreate] += b.len()
			continue
		case opDelete:
			a.ns[layerSession] += b.len()
			continue
		}
		root, ok := td.roots[r.rid]
		if !ok {
			continue
		}
		riv := nodeInterval(root)
		a.ns[layerCodec] += b.len() - riv.clip(b).len()

		byLayer := map[string][]interval{}
		var pairs []interval
		collectLayers(root, byLayer, &pairs)
		var all []interval
		for layer, ivs := range byLayer {
			a.ns[layer] += unionLen(ivs, riv)
			all = append(all, ivs...)
		}
		a.ns[layerMergePair] += unionLen(pairs, riv)
		self := selfTime(riv, all)
		if strings.HasPrefix(root.Kind, "session.feedback.") {
			a.ns[layerTurn] += self
			a.turns++
			a.assignDialogue(td.dialogues[r.session], r.iv, riv)
		} else {
			a.ns[layerSession] += self
		}
	}
	for _, ds := range td.dialogues {
		for _, d := range ds {
			d.Walk(func(n *obs.Node) {
				if n.Kind != "feedback.question" {
					return
				}
				switch n.Outcome {
				case "answered":
					a.answered++
					a.examined++
				case "undistinguished":
					a.examined++
				}
			})
		}
	}
	var sum int64
	for _, l := range reconciled {
		sum += a.ns[l]
	}
	a.unattributed = a.clientNs - sum
	return a
}

// collectLayers gathers the topmost mapped spans below n, by layer, and the
// merge.pair spans below any infer span.
func collectLayers(n *obs.Node, byLayer map[string][]interval, pairs *[]interval) {
	for _, c := range n.Children {
		layer, ok := spanLayer[c.Kind]
		if !ok {
			collectLayers(c, byLayer, pairs)
			continue
		}
		byLayer[layer] = append(byLayer[layer], nodeInterval(c))
		if layer == layerInfer {
			c.Walk(func(d *obs.Node) {
				if d.Kind == "merge.pair" {
					*pairs = append(*pairs, nodeInterval(d))
				}
			})
		}
	}
}

// assignDialogue counts the eval.* spans of a session's dialogue goroutine
// that ran inside one feedback request.
func (a *attribution) assignDialogue(dialogues []*obs.Node, client, root interval) {
	var results, provs []interval
	var visit func(n *obs.Node)
	visit = func(n *obs.Node) {
		iv := nodeInterval(n)
		switch {
		case !strings.HasPrefix(n.Kind, "eval."):
			for _, c := range n.Children {
				visit(c)
			}
		case !client.contains(iv):
		case n.Kind == "eval.results":
			results = append(results, iv)
			a.evalCalls++
		case n.Kind == "eval.provenance":
			provs = append(provs, iv)
		}
	}
	for _, d := range dialogues {
		visit(d)
	}
	a.ns[layerEvalResults] += unionLen(results, root)
	a.ns[layerEvalProv] += unionLen(provs, root)
}
