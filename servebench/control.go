package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"questpro/internal/api"
	"questpro/internal/core"
	"questpro/internal/eval"
	"questpro/internal/feedback"
	"questpro/internal/graph"
	"questpro/internal/ntriples"
	"questpro/internal/provenance"
	"questpro/internal/qerr"
	"questpro/internal/query"
)

// Operations of a scripted dialogue, one per service endpoint it calls.
const (
	opCreate   = "create"
	opExamples = "examples"
	opInfer    = "infer"
	opFeedback = "feedback"
	opAnswer   = "answer"
	opDelete   = "delete"
)

// exchange is one request of a scripted dialogue and the response body the
// direct-core control expects for it.
type exchange struct {
	op   string
	body []byte // pre-encoded request body; nil for delete
	want []byte // expected response body; nil for create, whose id is random
}

// script is one dialogue as the control ran it: every request with its
// expected response, plus the counters the per-layer report sums.
type script struct {
	ont       int
	query     string
	exchanges []exchange
	infers    []api.Stats // the control's /infer counters, one per infer exchange
	questions int         // questions the control's feedback dialogue asked
}

var (
	inferBody    = mustJSON(api.InferRequest{Mode: "topk"})
	feedbackBody = mustJSON(api.FeedbackRequest{})
	answerBody   = map[bool][]byte{
		false: mustJSON(api.AnswerRequest{Include: false}),
		true:  mustJSON(api.AnswerRequest{Include: true}),
	}
	deleteWant = render(api.DeleteSessionResponse{Deleted: true})
)

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only api values built here reach this
	}
	return b
}

// render encodes v byte for byte as the service's writeJSON does.
func render(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		panic(err) // only api values built here reach this
	}
	return buf.Bytes()
}

// buildScript runs the control for one dialogue: an examples+infer step per
// entry of steps, then Algorithm 3 over the last step's candidates, answered
// by an exact oracle for the target query. With ownSession the script
// creates its session first and deletes it last; otherwise it runs on a
// session opened during set-up.
func buildScript(ctx context.Context, o *ontology, q *catalogQuery, steps [][]api.Example, partial, ownSession bool) (*script, error) {
	c := newControl(o.graph)
	sc := &script{ont: q.ont, query: q.name}
	if ownSession {
		sc.exchanges = append(sc.exchanges, exchange{op: opCreate, body: o.createBody})
	}
	var (
		cands []*query.Union
		fbEx  provenance.ExampleSet
	)
	for _, wire := range steps {
		body, err := json.Marshal(api.ExamplesRequest{Examples: wire})
		if err != nil {
			return nil, err
		}
		full, pex, err := c.parse(wire, partial)
		if err != nil {
			return nil, err
		}
		ack := api.ExamplesResponse{Examples: len(wire)}
		if partial {
			ack.Partial = len(wire)
		}
		resp, cs, err := c.infer(ctx, full, pex)
		if err != nil {
			return nil, err
		}
		sc.exchanges = append(sc.exchanges,
			exchange{op: opExamples, body: body, want: render(ack)},
			exchange{op: opInfer, body: inferBody, want: render(resp)})
		sc.infers = append(sc.infers, resp.Stats)
		// A fragment session holds no complete example-set (the service
		// clears it on a partial submit), so its dialogue runs without one.
		cands, fbEx = cs, full
	}
	events, answers, err := c.feedback(ctx, q.target, cands, fbEx)
	if err != nil {
		return nil, err
	}
	sc.exchanges = append(sc.exchanges, exchange{op: opFeedback, body: feedbackBody, want: events[0]})
	for i, a := range answers {
		sc.exchanges = append(sc.exchanges, exchange{op: opAnswer, body: answerBody[a], want: events[i+1]})
	}
	sc.questions = len(answers)
	if ownSession {
		sc.exchanges = append(sc.exchanges, exchange{op: opDelete, want: deleteWant})
	}
	return sc, nil
}

// control mirrors service.Session over direct core calls: the same parse of
// the wire examples, the paper's default options, completion before
// inference for fragments, and the same evaluator configuration for
// Algorithm 3. Inference counters and SPARQL do not depend on the worker
// count, so the control runs on one worker.
type control struct {
	onto *graph.Graph
	opts core.Options
}

func newControl(onto *graph.Graph) *control {
	opts := core.DefaultOptions()
	opts.Workers = 1
	return &control{onto: onto, opts: opts}
}

// parse decodes a wire example-set the way handleExamples does.
func (c *control) parse(wire []api.Example, partial bool) (provenance.ExampleSet, provenance.PartialExampleSet, error) {
	var (
		full provenance.ExampleSet
		pex  provenance.PartialExampleSet
	)
	for i, e := range wire {
		g, err := ntriples.ParseString(e.Triples)
		if err != nil {
			return nil, nil, fmt.Errorf("example %d: %w", i, err)
		}
		if partial {
			missing := 0
			if e.Partial != nil {
				missing = e.Partial.MissingEdges
			}
			p, err := provenance.NewPartialByValue(g, e.Distinguished, missing)
			if err != nil {
				return nil, nil, fmt.Errorf("example %d: %w", i, err)
			}
			pex = append(pex, p)
			continue
		}
		ex, err := provenance.NewByValue(g, e.Distinguished)
		if err != nil {
			return nil, nil, fmt.Errorf("example %d: %w", i, err)
		}
		full = append(full, ex)
	}
	if partial {
		return nil, pex, pex.Validate()
	}
	return full, nil, full.Validate()
}

// infer runs what Session.Infer runs for mode "topk" and returns the
// expected response (wall_ms zero) and the candidate queries.
func (c *control) infer(ctx context.Context, full provenance.ExampleSet, pex provenance.PartialExampleSet) (api.InferResponse, []*query.Union, error) {
	opts := c.opts
	exs := full
	var rep *core.CompletionReport
	degraded := false
	if len(pex) > 0 {
		completed, r, err := core.CompleteExamples(ctx, c.onto, pex, opts)
		if err != nil {
			return api.InferResponse{}, nil, fmt.Errorf("completion: %w", err)
		}
		exs, rep = completed, &r
		opts.Guard = opts.Guard.Reduce(r.GuardUsage)
		degraded = r.Degraded
	}
	cands, st, err := core.InferTopK(ctx, exs, opts)
	if err != nil {
		if len(cands) == 0 || !errors.Is(err, qerr.ErrBudgetExhausted) {
			return api.InferResponse{}, nil, fmt.Errorf("top-k: %w", err)
		}
		degraded = true
	}
	if len(cands) == 0 {
		return api.InferResponse{}, nil, fmt.Errorf("top-k produced no candidates")
	}
	if rep != nil {
		st.CompletionsConsidered, st.CompletionsAccepted = rep.Considered, rep.Accepted
	}
	n := st.Counters()
	resp := api.InferResponse{
		Mode:        "topk",
		SPARQL:      cands[0].Query.SPARQL(),
		Degraded:    degraded,
		Completions: completionsJSON(rep, exs),
		Stats: api.Stats{
			Algorithm1Calls:       n.Algorithm1Calls,
			Rounds:                n.Rounds,
			CacheHits:             n.CacheHits,
			CacheMisses:           n.CacheMisses,
			GainEvals:             n.GainEvals,
			Restarts:              n.Restarts,
			GuardSteps:            st.GuardUsage.Steps,
			CompletionsConsidered: n.CompletionsConsidered,
			CompletionsAccepted:   n.CompletionsAccepted,
		},
	}
	qs := make([]*query.Union, len(cands))
	for i, cand := range cands {
		resp.Candidates = append(resp.Candidates, api.Candidate{SPARQL: cand.Query.SPARQL(), Cost: cand.Cost})
		qs[i] = cand.Query
	}
	return resp, qs, nil
}

// completionsJSON is the wire form of a completion report (nil-safe).
func completionsJSON(rep *core.CompletionReport, completed provenance.ExampleSet) *api.Completions {
	if rep == nil {
		return nil
	}
	out := &api.Completions{Considered: rep.Considered, Accepted: rep.Accepted, Degraded: rep.Degraded}
	for _, ch := range rep.Choices {
		jc := api.CompletionChoice{
			Example:           ch.Example,
			Identity:          ch.Identity,
			AddedTriples:      ch.AddedTriples,
			ResolvedWildcards: ch.ResolvedWildcards,
			Considered:        ch.Considered,
		}
		if ch.Example >= 0 && ch.Example < len(completed) {
			jc.Triples = ntriples.Format(completed[ch.Example].Graph)
		}
		out.Choices = append(out.Choices, jc)
	}
	return out
}

// recordingOracle answers as the exact oracle does and keeps every
// question it was asked, in order.
type recordingOracle struct {
	exact   feedback.ExactOracle
	asked   []*eval.ResultWithProvenance
	answers []bool
}

func (o *recordingOracle) ShouldInclude(ctx context.Context, res *eval.ResultWithProvenance) (bool, error) {
	ans, err := o.exact.ShouldInclude(ctx, res)
	if err != nil {
		return false, err
	}
	o.asked = append(o.asked, res)
	o.answers = append(o.answers, ans)
	return ans, nil
}

// maxDialogueSteps caps the matcher steps of a scripted feedback dialogue.
// A few sp2b q8b samples need 10-70 million steps, seconds of one CPU,
// against a median of a few hundred; they are not interactive, and one of
// them in a run stalls the other client for seconds. The cap, about 150 ms
// of one CPU, keeps every scripted dialogue within the paper's bound.
const maxDialogueSteps = 1_000_000

// feedback runs Algorithm 3 over the candidates and returns the expected
// body of every feedback event (the start's, then one per answer) and the
// answers to send. A meter counts the matcher steps of the dialogue's
// evaluations: an evaluator whose meter never runs out answers exactly as
// the session's unmetered one does, and a dialogue that runs it out is
// refused.
func (c *control) feedback(ctx context.Context, target *query.Union, cands []*query.Union, ex provenance.ExampleSet) ([][]byte, []bool, error) {
	meter := eval.Guard{MaxSteps: maxDialogueSteps}.NewMeter()
	oracle := &recordingOracle{exact: feedback.ExactOracle{Ev: eval.New(c.onto), Target: target}}
	fs := &feedback.Session{Ev: eval.New(c.onto).Guarded(meter), Oracle: oracle, Ex: ex}
	idx, tr, err := fs.ChooseQuery(ctx, cands)
	if meter.Exhausted() {
		return nil, nil, fmt.Errorf("feedback needs more than %d matcher steps", maxDialogueSteps)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("feedback: %w", err)
	}
	var events [][]byte
	for i, q := range oracle.asked {
		events = append(events, render(api.FeedbackResponse{
			Result:     q.Value,
			Provenance: ntriples.Format(q.Provenance),
			Questions:  i + 1,
		}))
	}
	events = append(events, render(api.FeedbackResponse{
		Done:      true,
		Chosen:    idx,
		SPARQL:    cands[idx].SPARQL(),
		Questions: len(tr.Questions),
	}))
	return events, oracle.answers, nil
}

// wallField is the one timing field of a response body; matches compares
// infer responses with its value zeroed, as the control renders them.
var wallField = []byte(`"wall_ms": `)

// matches reports whether a response body equals the control's bytes.
func matches(op string, got, want []byte) bool {
	if op == opInfer {
		if i := bytes.Index(got, wallField); i >= 0 {
			j := i + len(wallField)
			k := j
			for k < len(got) && got[k] >= '0' && got[k] <= '9' {
				k++
			}
			norm := make([]byte, 0, len(got))
			norm = append(norm, got[:j]...)
			norm = append(norm, '0')
			got = append(norm, got[k:]...)
		}
	}
	return bytes.Equal(got, want)
}
