package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"questpro/internal/api"
	"questpro/internal/obs"
	"questpro/internal/workload/sampling"
)

const (
	setupRuns      = 3  // setup_s is the median of this many set-ups
	probeDialogues = 12 // dialogue, durable: sessions per client the heap probe leaves open
)

// env is one set-up: inputs, controls, the running stack and, for refine,
// the sessions each client works on.
type env struct {
	cfg      config
	index    int // which set-up of the run
	onts     []*ontology
	scripts  []*script
	skipped  []string   // dialogues dropped because the control failed on them
	sessions [][]string // refine: [client][ontology] session id
	stack    *stack
	hc       *http.Client
	split    setupSplit
	setup    tally // requests sent during set-up
}

// setupSplit is one set-up's duration by stage, in seconds.
type setupSplit struct {
	Generate float64 `json:"generate_s"`
	Sample   float64 `json:"sample_s"`
	Control  float64 `json:"control_s"`
	Start    float64 `json:"start_s"`
	Sessions float64 `json:"sessions_s"`
	Total    float64 `json:"total_s"`
}

// setUp generates and samples the inputs, runs the controls, starts the
// stack and, for refine, opens the clients' sessions.
func setUp(ctx context.Context, cfg config, rec *recorder, index int) (*env, error) {
	e := &env{cfg: cfg, index: index}
	t0 := time.Now()
	onts, catalogs, err := generateAll()
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	if err := sampleAll(ctx, onts, catalogs, cfg.seed); err != nil {
		return nil, err
	}
	e.onts = onts
	t2 := time.Now()
	if err := e.buildScripts(ctx); err != nil {
		return nil, err
	}
	t3 := time.Now()
	dataRoot := filepath.Join(outDir, "data", fmt.Sprintf("%s-%d-%d", cfg.workload, os.Getpid(), index))
	if e.stack, err = startStack(cfg.workload, rec, dataRoot); err != nil {
		return nil, err
	}
	e.hc = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 2 * cfg.clients,
		IdleConnTimeout:     90 * time.Second,
		DisableCompression:  true,
	}}
	t4 := time.Now()
	if cfg.workload == "refine" {
		if err := e.openSessions(); err != nil {
			e.close()
			return nil, err
		}
	}
	t5 := time.Now()
	s := func(a, b time.Time) float64 { return b.Sub(a).Seconds() }
	e.split = setupSplit{s(t0, t1), s(t1, t2), s(t2, t3), s(t3, t4), s(t4, t5), s(t0, t5)}
	return e, nil
}

func (e *env) close() {
	e.stack.close()
	e.hc.CloseIdleConnections()
}

// buildScripts runs the control for every dialogue of the workload.
//
// dialogue and durable: four dialogues per sample, each over one disjoint
// pair of its explanations, listed round-robin over the ontologies.
// refine: one script per sample, growing the example-set from 2 to 8 as
// prefixes of it; every fourth script is sent as fragments.
func (e *env) buildScripts(ctx context.Context) error {
	refine := e.cfg.workload == "refine"
	perOnt := make([][]*catalogQuery, len(e.onts))
	for i, o := range e.onts {
		perOnt[i] = o.queries
	}
	if refine {
		for idx, q := range interleave(perOnt, false) {
			partial := idx%partialEvery == partialEvery-1
			wire := wireExamples(q.sample)
			if partial {
				pex, err := sampling.DegradeSet(q.sample, degradePct, rand.New(rand.NewSource(e.cfg.seed*7919+int64(idx))))
				if err != nil {
					return err
				}
				wire = wirePartial(pex)
			}
			var steps [][]api.Example
			for n := pairSize; n <= sampleSize; n++ {
				steps = append(steps, wire[:n])
			}
			sc, err := buildScript(ctx, e.onts[q.ont], q, steps, partial, false)
			if err != nil {
				e.skipped = append(e.skipped, fmt.Sprintf("%s/%s: %v", ontologyNames[q.ont], q.name, err))
				continue
			}
			e.scripts = append(e.scripts, sc)
		}
	} else {
		perOntScripts := make([][]*script, len(e.onts))
		for i, qs := range perOnt {
			for _, q := range qs {
				for k := 0; k+pairSize <= sampleSize; k += pairSize {
					steps := [][]api.Example{wireExamples(q.sample[k : k+pairSize])}
					sc, err := buildScript(ctx, e.onts[i], q, steps, false, true)
					if err != nil {
						e.skipped = append(e.skipped, fmt.Sprintf("%s/%s pair %d: %v", ontologyNames[i], q.name, k/pairSize, err))
						continue
					}
					perOntScripts[i] = append(perOntScripts[i], sc)
				}
			}
		}
		e.scripts = interleave(perOntScripts, true)
	}
	if len(e.scripts) == 0 {
		return fmt.Errorf("no dialogue passed its control")
	}
	return nil
}

// newClients makes n closed-loop clients. tag keeps request ids unique
// across the phases of a run.
func (e *env) newClients(tag string, n int, traced bool) []*client {
	cs := make([]*client, n)
	for i := range cs {
		cs[i] = &client{id: i, tag: tag + strconv.Itoa(i) + "-", base: e.stack.base, hc: e.hc, traced: traced}
		if traced && e.stack.fleet != nil {
			cs[i].snap = e.stack.snapshotSize
		}
	}
	return cs
}

// parallel runs f once per client, concurrently, and folds their tallies.
func parallel(cs []*client, f func(c *client)) *tally {
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			f(c)
		}(c)
	}
	wg.Wait()
	t := &tally{}
	for _, c := range cs {
		t.add(&c.t)
	}
	return t
}

// sessionScript creates a session on one ontology and, unless kept,
// deletes it again: refine's session traffic.
func sessionScript(o *ontology, ont int) *script {
	return &script{ont: ont, query: "session", exchanges: []exchange{
		{op: opCreate, body: o.createBody},
		{op: opDelete, want: deleteWant},
	}}
}

// openSessions opens refine's sessions, one per ontology per client.
func (e *env) openSessions() error {
	e.sessions = make([][]string, e.cfg.clients)
	cs := e.newClients("s"+strconv.Itoa(e.index)+"c", e.cfg.clients, false)
	e.setup = *parallel(cs, func(c *client) {
		ids := make([]string, len(e.onts))
		for i, o := range e.onts {
			ids[i] = c.runScript(sessionScript(o, i), "", true)
		}
		e.sessions[c.id] = ids
	})
	if e.setup.failed > 0 {
		return fmt.Errorf("opening refine sessions: %v", e.setup.errs)
	}
	return nil
}

// closedLoop runs step back to back on each of n clients for length, each
// client finishing the step in hand at the deadline; k counts a client's
// steps.
func (e *env) closedLoop(tag string, n int, traced bool, length time.Duration, step func(c *client, k int)) (*tally, time.Duration) {
	cs := e.newClients(tag, n, traced)
	start := time.Now()
	deadline := start.Add(length)
	for _, c := range cs {
		c.start, c.length = start, length
	}
	t := parallel(cs, func(c *client) {
		for k := 0; time.Now().Before(deadline); k++ {
			step(c, k)
		}
	})
	return t, time.Since(start)
}

// runPhase runs the workload's dialogues for length.
func (e *env) runPhase(tag string, traced bool, length time.Duration) (*tally, time.Duration) {
	n := len(e.scripts)
	if e.cfg.workload == "refine" {
		return e.closedLoop(tag, e.cfg.clients, traced, length, func(c *client, k int) {
			// Each client starts at its own share of the query list.
			sc := e.scripts[(c.id*n/e.cfg.clients+k)%n]
			c.runScript(sc, e.sessions[c.id][sc.ont], false)
		})
	}
	// Client c takes dialogues c, c+clients, ...: the ontologies stay
	// round-robin for every client.
	return e.closedLoop(tag, e.cfg.clients, traced, length, func(c *client, k int) {
		c.runScript(e.scripts[(c.id+k*e.cfg.clients)%n], "", false)
	})
}

// createPhase times session creation for refine, whose timed phase creates
// nothing: after it, one client cycles create/delete round-robin over the
// ontologies for a third of its length. A single client keeps the creates
// of different ontologies from slowing each other, which made the figure
// follow how they happened to overlap.
func (e *env) createPhase() (*tally, time.Duration) {
	scripts := make([]*script, len(e.onts))
	for i, o := range e.onts {
		scripts[i] = sessionScript(o, i)
	}
	return e.closedLoop("c", 1, false, createLength(e.cfg.seconds), func(c *client, k int) {
		c.runScript(scripts[k%len(scripts)], "", false)
	})
}

// heapRecord is the session-memory probe.
type heapRecord struct {
	Sessions int     `json:"sessions"`
	OpenKB   float64 `json:"open_kb"`
	ClosedKB float64 `json:"closed_kb"`
	PerKB    float64 `json:"per_session_kb"`
}

// sessionHeap measures live heap per session: post-GC heap with the
// workload's sessions open in their end state, minus post-GC heap after
// deleting them, over the number of sessions. dialogue and durable leave
// probeDialogues finished dialogues per client open; refine uses its
// working sessions.
func (e *env) sessionHeap() (heapRecord, *tally) {
	cs := e.newClients("h", e.cfg.clients, false)
	open := make([][]string, len(cs))
	t := parallel(cs, func(c *client) {
		if e.cfg.workload == "refine" {
			open[c.id] = e.sessions[c.id]
			return
		}
		for k := 0; k < probeDialogues; k++ {
			sc := e.scripts[(c.id+k*len(cs))%len(e.scripts)]
			if id := c.runScript(sc, "", true); id != "" {
				open[c.id] = append(open[c.id], id)
			}
		}
	})
	n := 0
	for _, ids := range open {
		n += len(ids)
	}
	withSessions := liveHeap()
	t.add(parallel(cs, func(c *client) {
		c.t = tally{}
		for _, id := range open[c.id] {
			c.runScript(&script{ont: 0, query: "heap probe", exchanges: []exchange{{op: opDelete, want: deleteWant}}}, id, false)
		}
	}))
	without := liveHeap()
	h := heapRecord{Sessions: n, OpenKB: float64(withSessions) / 1024, ClosedKB: float64(without) / 1024}
	if n > 0 {
		h.PerKB = (h.OpenKB - h.ClosedKB) / float64(n)
	}
	return h, t
}

// liveHeap is the heap in use after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// benchmark runs one invocation end to end.
func benchmark(cfg config) (*result, error) {
	ctx := context.Background()
	obs.SetEnabled(false)
	rec := newRunRecord(cfg)
	var spanRec *recorder
	runs := setupRuns
	if cfg.traced {
		spanRec, runs = &recorder{}, 1
	}
	var (
		e      *env
		setupT tally
		setupS []float64
	)
	for i := 0; i < runs; i++ {
		if e != nil {
			e.close()
		}
		var err error
		if e, err = setUp(ctx, cfg, spanRec, i); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		rec.Setup.Runs = append(rec.Setup.Runs, e.split)
		setupS = append(setupS, e.split.Total)
		setupT.add(&e.setup)
	}
	defer e.close()
	rec.describeInputs(e)

	if cfg.traced {
		return tracedRun(e, spanRec, rec, &setupT)
	}

	t, elapsed := e.runPhase("p", false, cfg.seconds)
	rec.addPhase("timed", t, elapsed)
	all := &tally{}
	all.add(&setupT)
	all.add(t)
	fig := windowFigures(t.win[:], windowLengths(cfg.seconds, elapsed))
	rec.Windows, rec.WindowP50, rec.WindowGmean = fig.minSamples, fig.windowP50, fig.windowGmean
	rec.Latency = map[string]latency{}
	for c, name := range classNames {
		rec.Latency[name] = summarize(t.lat[c])
	}
	if cfg.workload == "refine" {
		ct, celapsed := e.createPhase()
		rec.addPhase("create", ct, celapsed)
		all.add(ct)
		cf := windowFigures(ct.win[:], windowLengths(createLength(cfg.seconds), celapsed))
		fig.p50[classCreate], fig.p90[classCreate], fig.gmean[classCreate] = cf.p50[classCreate], cf.p90[classCreate], cf.gmean[classCreate]
		rec.Windows["create_ms"], rec.WindowP50["create_ms"], rec.WindowGmean["create_ms"] = cf.minSamples["create_ms"], cf.windowP50["create_ms"], cf.windowGmean["create_ms"]
		rec.Latency["create_ms"] = summarize(ct.lat[classCreate])
	}
	heap, ht := e.sessionHeap()
	rec.SessionHeap = &heap
	all.add(ht)

	// Untraced runs keep the span gate off; none of them may record a span.
	spans := len(e.stack.journal.take())
	rec.SpansRecorded = &spans
	res := &result{
		Correct:   all.mismatched == 0 && spans == 0 && !obs.Enabled(),
		Attempted: all.attempted,
		Failed:    all.failed,
		Metrics: map[string]metric{
			"create_ms.p50":     {fig.p50[classCreate], "ms"},
			"create_ms.p90":     {fig.p90[classCreate], "ms"},
			"candidates_ms.p50": {fig.p50[classCandidates], "ms"},
			"candidates_ms.p90": {fig.p90[classCandidates], "ms"},
			"turn_ms.gmean":     {fig.gmean[classTurn], "ms"},
			"turn_ms.p90":       {fig.p90[classTurn], "ms"},
			"dialogues_per_s":   {fig.dialoguesPerS, "1/s"},
			"candidates_per_s":  {fig.stepsPerS, "1/s"},
			"session_heap_kb":   {heap.PerKB, "KiB"},
			"setup_s":           {median(setupS), "s"},
		},
	}
	rec.Setup.MedianS = median(setupS)
	return res, rec.finish(res)
}

func createLength(timed time.Duration) time.Duration { return timed / 3 }

// windowLengths are the windows of a phase of the given length in seconds;
// the last one also holds the steps in hand at the deadline.
func windowLengths(length, elapsed time.Duration) []float64 {
	ls := make([]float64, windows)
	for w := range ls {
		ls[w] = length.Seconds() / windows
	}
	ls[windows-1] += (elapsed - length).Seconds()
	return ls
}

// figures are a timed phase's end-to-end figures: for each, the median over
// windows of its value within each window. Turns are reported by their
// geometric mean, not their median: refine's feedback starts fall into a
// fast and a slow group of catalog queries with the median between them,
// so the median jumped with the seed, while the geometric mean follows a
// uniform slowdown exactly and moves little with the mix.
type figures struct {
	p50, p90, gmean          [numClasses]float64
	dialoguesPerS, stepsPerS float64
	minSamples               map[string]int       // fewest samples of a class in any window
	windowP50                map[string][]float64 // each window's p50 per class
	windowGmean              map[string][]float64 // each window's geometric mean per class
}

// windowFigures computes the figures over windows of the given lengths in
// seconds.
func windowFigures(ws []window, lengths []float64) figures {
	f := figures{minSamples: map[string]int{}, windowP50: map[string][]float64{}, windowGmean: map[string][]float64{}}
	for c, name := range classNames {
		var p50s, p90s, gms []float64
		least := -1
		for _, w := range ws {
			s := sortedCopy(w.lat[c])
			if least < 0 || len(s) < least {
				least = len(s)
			}
			if len(s) > 0 {
				p50s, p90s = append(p50s, percentile(s, 500)), append(p90s, percentile(s, 900))
				gms = append(gms, gmean(s))
			}
		}
		f.minSamples[name] = least
		f.windowP50[name], f.windowGmean[name] = p50s, gms
		if len(p50s) > 0 {
			f.p50[c], f.p90[c], f.gmean[c] = median(p50s), median(p90s), median(gms)
		}
	}
	var dps, sps []float64
	for i, w := range ws {
		if lengths[i] > 0 {
			dps = append(dps, float64(w.goodDialogues)/lengths[i])
			sps = append(sps, float64(w.goodSteps)/lengths[i])
		}
	}
	if len(dps) > 0 {
		f.dialoguesPerS, f.stepsPerS = median(dps), median(sps)
	}
	return f
}
