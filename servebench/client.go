package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"questpro/internal/api"
)

// requestLimit is the paper's interactive bound: a dialogue or step counts
// toward the throughput metrics only if each of its requests finished
// within it.
const requestLimit = 500 * time.Millisecond

// Latency classes of the end-to-end report.
const (
	classCreate     = iota // POST /v1/sessions
	classCandidates        // POST examples + POST infer
	classTurn              // one feedback start or answer
	numClasses
)

var classNames = [numClasses]string{"create_ms", "candidates_ms", "turn_ms"}

// windows splits a timed phase into equal windows. Every end-to-end figure
// is the median over windows of the figure within each window, so a burst
// of load from outside the benchmark that slows a few seconds of a run
// moves it little.
const windows = 10

// window is what finished inside one window of a timed phase.
type window struct {
	lat                      [numClasses][]float64
	goodDialogues, goodSteps int
}

// tally is what one client saw in one phase.
type tally struct {
	lat        [numClasses][]float64 // ms, successful requests only
	win        [windows]window       // the same, split by when each finished
	requestsMs []float64             // every successful request, for the trace overhead

	attempted, failed, refused, mismatched int
	dialogues, goodDialogues               int
	steps, goodSteps                       int
	fbDialogues, questions                 int
	creates                                [3]int // successful creates per ontology

	infers   int // matched infer responses, and their control counters
	counters api.Stats

	spans     []reqSpan // traced phase only
	snapBytes []int64   // snapshot size after each mutating request (durable, traced)
	errs      []string
}

func (t *tally) add(o *tally) {
	for c := range t.lat {
		t.lat[c] = append(t.lat[c], o.lat[c]...)
		for w := range t.win {
			t.win[w].lat[c] = append(t.win[w].lat[c], o.win[w].lat[c]...)
		}
	}
	for w := range t.win {
		t.win[w].goodDialogues += o.win[w].goodDialogues
		t.win[w].goodSteps += o.win[w].goodSteps
	}
	t.requestsMs = append(t.requestsMs, o.requestsMs...)
	t.attempted += o.attempted
	t.failed += o.failed
	t.refused += o.refused
	t.mismatched += o.mismatched
	t.dialogues += o.dialogues
	t.goodDialogues += o.goodDialogues
	t.steps += o.steps
	t.goodSteps += o.goodSteps
	t.fbDialogues += o.fbDialogues
	t.questions += o.questions
	for i := range t.creates {
		t.creates[i] += o.creates[i]
	}
	t.infers += o.infers
	addStats(&t.counters, o.counters)
	t.spans = append(t.spans, o.spans...)
	t.snapBytes = append(t.snapBytes, o.snapBytes...)
	for _, e := range o.errs {
		if len(t.errs) < 8 {
			t.errs = append(t.errs, e)
		}
	}
}

func addStats(dst *api.Stats, s api.Stats) {
	dst.Algorithm1Calls += s.Algorithm1Calls
	dst.CacheHits += s.CacheHits
	dst.GainEvals += s.GainEvals
	dst.Restarts += s.Restarts
	dst.CompletionsConsidered += s.CompletionsConsidered
	dst.CompletionsAccepted += s.CompletionsAccepted
}

// client is one closed-loop user: it sends a request only after the
// previous reply, with no think time and no retries.
type client struct {
	id     int
	tag    string // request-id prefix, unique per client and phase
	base   string
	hc     *http.Client
	traced bool
	snap   func(session string) (int64, bool) // snapshot size probe; nil unless durable and traced
	nreq   int
	t      tally

	start  time.Time     // the timed phase's start
	length time.Duration // and length; zero outside a timed phase
}

// window returns the index of the window the phase is in now; outside a
// timed phase everything lands in window 0.
func (c *client) window() int {
	if c.length <= 0 {
		return 0
	}
	return min(int(time.Since(c.start)*windows/c.length), windows-1)
}

// sample records one successful latency sample of a class.
func (c *client) sample(class int, d time.Duration) {
	c.t.lat[class] = append(c.t.lat[class], ms(d))
	w := &c.t.win[c.window()]
	w.lat[class] = append(w.lat[class], ms(d))
}

// call sends one request and reads the whole reply. The duration is the
// client-observed time from send to the last byte of the body.
func (c *client) call(op, session string, body []byte) (int, []byte, time.Duration, error) {
	method, url := http.MethodPost, c.base+"/"+api.Version+"/sessions"
	switch op {
	case opCreate:
	case opDelete:
		method, url = http.MethodDelete, url+"/"+session
	case opAnswer:
		url += "/" + session + "/feedback/answer"
	default:
		url += "/" + session + "/" + op
	}
	c.nreq++
	rid := c.tag + strconv.Itoa(c.nreq)
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	req.Header.Set("X-Request-Id", rid)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	c.t.attempted++
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, time.Since(start), err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(start)
	if c.traced {
		s := start.UnixNano()
		c.t.spans = append(c.t.spans, reqSpan{op: op, rid: rid, session: session, iv: interval{s, s + d.Nanoseconds()}})
	}
	return resp.StatusCode, data, d, err
}

// fail records a failed request and reports false.
func (c *client) fail(sc *script, op, why string) bool {
	c.t.failed++
	if len(c.t.errs) < 8 {
		c.t.errs = append(c.t.errs, fmt.Sprintf("%s/%s %s: %s", ontologyNames[sc.ont], sc.query, op, why))
	}
	return false
}

// exchange sends one scripted request and checks the reply against the
// control. On a create it returns the new session id.
func (c *client) exchange(sc *script, ex *exchange, session string) (string, time.Duration, bool) {
	status, body, d, err := c.call(ex.op, session, ex.body)
	switch {
	case err != nil:
		return session, d, c.fail(sc, ex.op, err.Error())
	case status >= 400:
		c.t.refused++
		return session, d, c.fail(sc, ex.op, fmt.Sprintf("status %d: %s", status, bytes.TrimSpace(body)))
	case ex.op == opCreate:
		var cr api.CreateSessionResponse
		if status != http.StatusCreated || json.Unmarshal(body, &cr) != nil || cr.SessionID == "" {
			c.t.mismatched++
			return session, d, c.fail(sc, ex.op, fmt.Sprintf("status %d: %s", status, body))
		}
		session = cr.SessionID
		c.t.creates[sc.ont]++
	case !matches(ex.op, body, ex.want):
		c.t.mismatched++
		return session, d, c.fail(sc, ex.op, fmt.Sprintf("response differs from the control\n got: %s\nwant: %s", body, ex.want))
	}
	c.t.requestsMs = append(c.t.requestsMs, ms(d))
	if c.snap != nil && ex.op != opDelete {
		if n, ok := c.snap(session); ok {
			c.t.snapBytes = append(c.t.snapBytes, n)
		}
	}
	return session, d, true
}

// runScript replays one scripted dialogue. session names the set-up
// session a refine script runs on; scripts that create their own leave it
// empty. keep leaves a created session open (the heap probe). It returns
// the session id.
func (c *client) runScript(sc *script, session string, keep bool) string {
	var (
		examples time.Duration
		slowest  time.Duration
		infers   int
		ok       = true
		deleted  bool
	)
	for i := range sc.exchanges {
		ex := &sc.exchanges[i]
		if ex.op == opDelete && keep {
			break
		}
		var d time.Duration
		if session, d, ok = c.exchange(sc, ex, session); !ok {
			break
		}
		slowest = max(slowest, d)
		switch ex.op {
		case opCreate:
			c.sample(classCreate, d)
		case opExamples:
			examples = d
		case opInfer:
			c.sample(classCandidates, examples+d)
			c.t.steps++
			if max(examples, d) <= requestLimit {
				c.t.goodSteps++
				c.t.win[c.window()].goodSteps++
			}
			c.t.infers++
			addStats(&c.t.counters, sc.infers[infers])
			infers++
		case opFeedback:
			c.sample(classTurn, d)
			c.t.fbDialogues++
		case opAnswer:
			c.sample(classTurn, d)
			c.t.questions++
		case opDelete:
			deleted = true
		}
	}
	c.t.dialogues++
	if ok && slowest <= requestLimit {
		c.t.goodDialogues++
		c.t.win[c.window()].goodDialogues++
	}
	owned := len(sc.exchanges) > 0 && sc.exchanges[0].op == opCreate
	if !ok && owned && session != "" && !deleted {
		// Free the session a failed dialogue leaves behind.
		c.exchange(sc, &exchange{op: opDelete, want: deleteWant}, session)
	}
	return session
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
