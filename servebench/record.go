package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// runRecord describes one invocation: the machine, the inputs, the set-up
// split, each phase's counts and latencies, and what was reported. It is
// written as JSON next to the traces.
type runRecord struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
	Nproc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Clients    int     `json:"clients"`
	Scale      float64 `json:"scale"`
	DataDir    string  `json:"data_dir,omitempty"`
	DataDirFS  string  `json:"data_dir_fs,omitempty"`

	Ontologies []ontologyRecord `json:"ontologies"`
	Dialogues  int              `json:"scripted_dialogues"`
	Skipped    []string         `json:"skipped_dialogues,omitempty"`

	Setup struct {
		Runs    []setupSplit `json:"runs"`
		MedianS float64      `json:"median_s"`
	} `json:"setup"`
	Phases        []phaseRecord        `json:"phases"`
	Latency       map[string]latency   `json:"latency,omitempty"`
	Windows       map[string]int       `json:"fewest_samples_per_window,omitempty"`
	WindowP50     map[string][]float64 `json:"window_p50_ms,omitempty"`
	WindowGmean   map[string][]float64 `json:"window_gmean_ms,omitempty"`
	SessionHeap   *heapRecord          `json:"session_heap,omitempty"`
	SpansRecorded *int                 `json:"untraced_span_bytes,omitempty"`
	Layers        *layerRecord         `json:"layers,omitempty"`
	Warnings      []string             `json:"warnings,omitempty"`
	Result        *result              `json:"result"`

	path string
}

type ontologyRecord struct {
	Name    string   `json:"name"`
	Bytes   int      `json:"bytes"`
	Nodes   int      `json:"nodes"`
	Edges   int      `json:"edges"`
	Queries []string `json:"queries"` // catalog queries with at least 8 results
}

// phaseRecord is one timed phase's request accounting.
type phaseRecord struct {
	Name          string             `json:"name"`
	ElapsedS      float64            `json:"elapsed_s"`
	Attempted     int                `json:"attempted"`
	Failed        int                `json:"failed"`
	Refused       int                `json:"refused"`
	Mismatched    int                `json:"mismatched"`
	ErrorRate     float64            `json:"error_rate"`
	Dialogues     int                `json:"dialogues"`
	GoodDialogues int                `json:"good_dialogues"`
	Steps         int                `json:"candidate_steps"`
	GoodSteps     int                `json:"good_candidate_steps"`
	Latency       map[string]latency `json:"latency"`
	Errors        []string           `json:"errors,omitempty"`
}

func newRunRecord(cfg config) *runRecord {
	name := fmt.Sprintf("%s-seed%d-trace%d", cfg.workload, cfg.seed, map[bool]int{false: 0, true: 1}[cfg.traced])
	return &runRecord{
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Seconds:    cfg.seconds.Seconds(),
		Traced:     cfg.traced,
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Clients:    cfg.clients,
		Scale:      scale,
		path:       filepath.Join(outDir, name),
	}
}

// describeInputs records the ontologies, the catalog queries used and the
// data dir of the set-up the run measures.
func (r *runRecord) describeInputs(e *env) {
	for _, o := range e.onts {
		or := ontologyRecord{Name: o.name, Bytes: len(o.wire), Nodes: o.graph.NumNodes(), Edges: o.graph.NumEdges()}
		for _, q := range o.queries[:len(o.queries)/samplesPer] {
			or.Queries = append(or.Queries, q.name)
		}
		r.Ontologies = append(r.Ontologies, or)
	}
	r.Dialogues = len(e.scripts)
	r.Skipped = e.skipped
	if d := e.stack.dataRoot; d != "" {
		r.DataDir, r.DataDirFS = d, fsType(d)
	}
}

func (r *runRecord) addPhase(name string, t *tally, elapsed time.Duration) {
	p := phaseRecord{
		Name:          name,
		ElapsedS:      elapsed.Seconds(),
		Attempted:     t.attempted,
		Failed:        t.failed,
		Refused:       t.refused,
		Mismatched:    t.mismatched,
		Dialogues:     t.dialogues,
		GoodDialogues: t.goodDialogues,
		Steps:         t.steps,
		GoodSteps:     t.goodSteps,
		Latency:       map[string]latency{},
		Errors:        t.errs,
	}
	if t.attempted > 0 {
		p.ErrorRate = float64(t.failed) / float64(t.attempted)
	}
	for c, name := range classNames {
		p.Latency[name] = summarize(t.lat[c])
	}
	r.Phases = append(r.Phases, p)
}

// finish records the result, writes the run record and prints a summary to
// standard error.
func (r *runRecord) finish(res *result) error {
	r.Result = res
	for name, n := range r.Windows {
		if n-rank(900, n) < minBeyond {
			r.Warnings = append(r.Warnings, fmt.Sprintf("%s has a window of %d samples: its p90 has fewer than %d beyond it", name, n, minBeyond))
		}
	}
	if err := os.MkdirAll(filepath.Dir(r.path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(r.path+".json", append(data, '\n'), 0o644); err != nil {
		return err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "servebench %s seed=%d clients=%d gomaxprocs=%d %s\n", r.Workload, r.Seed, r.Clients, r.GOMAXPROCS, r.GoVersion)
	for _, o := range r.Ontologies {
		fmt.Fprintf(&sb, "  ontology %-8s %7d bytes %5d edges %2d queries\n", o.Name, o.Bytes, o.Edges, len(o.Queries))
	}
	for _, p := range r.Phases {
		fmt.Fprintf(&sb, "  phase %-8s %.2fs attempted=%d failed=%d refused=%d mismatched=%d error_rate=%.4f\n",
			p.Name, p.ElapsedS, p.Attempted, p.Failed, p.Refused, p.Mismatched, p.ErrorRate)
		for _, name := range classNames {
			l := p.Latency[name]
			fmt.Fprintf(&sb, "    %-14s n=%-6d p50=%.3fms %s=%.3fms\n", name, l.N, l.P50, l.Tail, l.TailMs)
		}
		for _, e := range p.Errors {
			fmt.Fprintf(&sb, "    error: %s\n", e)
		}
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&sb, "  %-30s %12.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	for _, w := range r.Warnings {
		fmt.Fprintf(&sb, "  warning: %s\n", w)
	}
	fmt.Fprintf(&sb, "  record: %s.json\n", r.path)
	fmt.Fprint(os.Stderr, sb.String())
	return nil
}

// writeTrace writes the traced phase's spans and scrapes and returns the
// file's path.
func (r *runRecord) writeTrace(spans []benchSpan, journal []byte, before, after map[string]float64) (string, error) {
	tf := traceFile{BenchSpans: spans, Before: before, After: after}
	for _, line := range bytes.Split(bytes.TrimSpace(journal), []byte("\n")) {
		if len(line) > 0 {
			tf.ProgramRoots = append(tf.ProgramRoots, json.RawMessage(line))
		}
	}
	if err := os.MkdirAll(filepath.Dir(r.path), 0o755); err != nil {
		return "", err
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	path := r.path + ".trace.json"
	return path, os.WriteFile(path, data, 0o644)
}
