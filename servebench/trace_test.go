package main

import (
	"testing"

	"questpro/internal/obs"
)

// TestSelfTimeOverlappingChildren checks self time as a span's duration
// minus the union of its children's intervals: overlapping children count
// once, and parts outside the parent do not count.
func TestSelfTimeOverlappingChildren(t *testing.T) {
	parent := interval{0, 100}
	children := []interval{{10, 40}, {30, 60}, {80, 90}, {95, 120}, {-5, 2}, {50, 55}}
	// Inside the parent the union is [0,2] + [10,60] + [80,90] + [95,100].
	if got := unionLen(children, parent); got != 67 {
		t.Errorf("unionLen = %d, want 67", got)
	}
	if got := selfTime(parent, children); got != 33 {
		t.Errorf("selfTime = %d, want 33", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("selfTime without children = %d, want 100", got)
	}
}

func node(kind string, start, dur int64, children ...*obs.Node) *obs.Node {
	return &obs.Node{Kind: kind, StartUnixNs: start, DurationNs: dur, Children: children}
}

func labeled(n *obs.Node, labels map[string]string) *obs.Node {
	n.Labels = labels
	return n
}

// TestAttribute runs the layer breakdown over a synthetic span forest: a
// create, an infer whose merge.pair spans overlap, a feedback answer whose
// dialogue goroutine ran eval spans inside and outside the request, and a
// request no handler span matches.
func TestAttribute(t *testing.T) {
	requests := []reqSpan{
		{op: opCreate, rid: "r1", iv: interval{0, 50}},
		{op: opInfer, rid: "r2", session: "s1", iv: interval{100, 200}},
		{op: opAnswer, rid: "r3", session: "s1", iv: interval{300, 400}},
		{op: opInfer, rid: "r4", session: "s1", iv: interval{600, 650}},
	}
	handlers := []benchSpan{
		{Kind: spanBackend, RID: "r1", Start: 5, Dur: 40},
		{Kind: spanBackend, RID: "r2", Start: 105, Dur: 90},
		{Kind: spanBackend, RID: "r3", Start: 305, Dur: 90},
	}
	roots := []*obs.Node{
		labeled(node("session.infer", 110, 80,
			node("infer.topk", 120, 50,
				node("merge.round", 120, 50,
					node("merge.pair", 125, 20),
					node("merge.pair", 130, 25))),
			node("snapshot.save", 175, 10)), map[string]string{"request_id": "r2"}),
		labeled(node("session.feedback.answer", 310, 80,
			node("snapshot.save", 380, 5)), map[string]string{"request_id": "r3"}),
		labeled(node("feedback.dialogue", 250, 250,
			node("feedback.question", 260, 190,
				node("eval.results", 320, 20),
				node("eval.results", 330, 20),
				node("eval.provenance", 355, 5)),
			node("feedback.question", 400, 50,
				node("eval.results", 410, 10))), map[string]string{"session_id": "s1"}),
	}
	roots[2].Children[0].Outcome = "answered"
	roots[2].Children[1].Outcome = "undistinguished"

	a := attribute(newTraceData(requests, handlers, roots, false))
	want := map[string]int64{
		layerHTTP:        30, // 10 per matched request
		layerCreate:      40,
		layerCodec:       20, // 10 each for r2 and r3
		layerInfer:       50,
		layerSave:        15,
		layerSession:     20, // session.infer: 80 - 50 - 10
		layerTurn:        75, // session.feedback.answer: 80 - 5
		layerMergePair:   30, // [125,145] and [130,155] overlap
		layerEvalResults: 30, // [320,340] and [330,350]; [410,420] ran after r3
		layerEvalProv:    5,
	}
	for layer, ns := range want {
		if a.ns[layer] != ns {
			t.Errorf("%s = %d, want %d", layer, a.ns[layer], ns)
		}
	}
	if a.requests != 4 || a.clientNs != 300 || a.unattributed != 50 {
		t.Errorf("requests=%d client=%d unattributed=%d; want 4, 300, 50 (r4 has no handler span)",
			a.requests, a.clientNs, a.unattributed)
	}
	if a.turns != 1 || a.evalCalls != 2 || a.answered != 1 || a.examined != 2 {
		t.Errorf("turns=%d evalCalls=%d answered=%d examined=%d; want 1, 2, 1, 2", a.turns, a.evalCalls, a.answered, a.examined)
	}
	var sum int64
	for _, l := range reconciled {
		sum += a.ns[l]
	}
	if sum+a.unattributed != a.clientNs {
		t.Errorf("layers %d + unattributed %d != client %d", sum, a.unattributed, a.clientNs)
	}
}

// TestAttributeGateway splits a proxied create between the HTTP hop, the
// gateway and the backend.
func TestAttributeGateway(t *testing.T) {
	requests := []reqSpan{{op: opCreate, rid: "r1", iv: interval{0, 50}}}
	handlers := []benchSpan{
		{Kind: spanGateway, RID: "r1", Start: 2, Dur: 46},
		{Kind: spanBackend, RID: "r1", Start: 5, Dur: 40},
	}
	a := attribute(newTraceData(requests, handlers, nil, true))
	if a.ns[layerHTTP] != 4 || a.ns[layerGateway] != 6 || a.ns[layerCreate] != 40 || a.unattributed != 0 {
		t.Errorf("http=%d gateway=%d create=%d unattributed=%d; want 4, 6, 40, 0",
			a.ns[layerHTTP], a.ns[layerGateway], a.ns[layerCreate], a.unattributed)
	}
}
