// Command servebench is questpro's serving benchmark. It generates the
// three workload ontologies, samples explanations from a seed for every
// catalog query with at least eight results, runs a direct-core control
// for every scripted dialogue, and then drives think-free dialogues
// through the real HTTP stack from one closed-loop client per CPU,
// byte-comparing every response with the control.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash servebench/run.sh --workload dialogue --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer breakdown with --trace 1. A run record, and for
// a traced run every span, go under .bench_build/runs. README.md
// describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	clients  int
}

// outDir holds the run records, the traces and the durable workload's data
// directories.
const outDir = ".bench_build/runs"

var workloads = []string{"dialogue", "refine", "durable"}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		cfg     config
		seconds int
		trace   int
	)
	flag.StringVar(&cfg.workload, "workload", "", "dialogue, refine or durable")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	flag.IntVar(&seconds, "seconds", 10, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 adds a traced phase and reports the per-layer breakdown")
	flag.Parse()
	known := false
	for _, w := range workloads {
		known = known || w == cfg.workload
	}
	if !known || seconds < 1 || (trace != 0 && trace != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "usage: servebench --workload dialogue|refine|durable --seed N --seconds N --trace 0|1\n")
		return 2
	}
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.traced = trace == 1
	cfg.clients = runtime.NumCPU()

	res, err := benchmark(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark ends its output with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}
