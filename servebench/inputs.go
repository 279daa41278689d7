package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"

	"questpro/internal/api"
	"questpro/internal/eval"
	"questpro/internal/graph"
	"questpro/internal/ntriples"
	"questpro/internal/provenance"
	"questpro/internal/query"
	"questpro/internal/workload"
	"questpro/internal/workload/bsbm"
	"questpro/internal/workload/dbpedia"
	"questpro/internal/workload/sampling"
	"questpro/internal/workload/sp2b"
)

// Input sizing.
const (
	scale        = 0.35 // generator scale factor
	sampleSize   = 8    // explanations per sample; a catalog query needs this many results
	samplesPer   = 6    // independent samples drawn per catalog query
	pairSize     = 2    // explanations per dialogue
	partialEvery = 4    // every fourth refine query is sent as partial provenance
	degradePct   = 25   // share of edges sampling.DegradeSet degrades per explanation
)

// ontologyNames are the three generators; create requests round-robin over
// them in this order.
var ontologyNames = []string{"sp2b", "bsbm", "dbpedia"}

// ontology is one generated ontology as the server receives it.
type ontology struct {
	name       string
	wire       string          // the N-Triples body of the create request
	graph      *graph.Graph    // ntriples.ParseString(wire): the graph a session builds
	createBody []byte          // pre-encoded POST /v1/sessions body
	queries    []*catalogQuery // samplesPer entries per catalog query
}

// catalogQuery is a catalog entry with at least sampleSize results and one
// seeded sample of sampleSize explanations.
type catalogQuery struct {
	ont    int
	name   string
	target *query.Union
	sample provenance.ExampleSet
}

// generate builds ontology i with its generator's default seed at the
// benchmark scale. The ontologies, and so the catalog queries with enough
// results, are the same for every benchmark seed; the seed picks the
// samples, the fragments and the request order.
func generate(i int) (*graph.Graph, []workload.BenchQuery, error) {
	s := func(n int) int { return max(1, int(float64(n)*scale)) }
	switch ontologyNames[i] {
	case "sp2b":
		cfg := sp2b.DefaultConfig()
		cfg.Persons, cfg.Articles, cfg.Inproceedings = s(cfg.Persons), s(cfg.Articles), s(cfg.Inproceedings)
		cfg.Journals, cfg.Proceedings = s(cfg.Journals), s(cfg.Proceedings)
		g, err := sp2b.Generate(cfg)
		return g, sp2b.Queries(), err
	case "bsbm":
		cfg := bsbm.DefaultConfig()
		cfg.Products, cfg.Producers, cfg.Features = s(cfg.Products), s(cfg.Producers), s(cfg.Features)
		cfg.Types, cfg.Vendors, cfg.Reviewers = s(cfg.Types), s(cfg.Vendors), s(cfg.Reviewers)
		g, err := bsbm.Generate(cfg)
		return g, bsbm.Queries(), err
	default:
		cfg := dbpedia.DefaultConfig()
		cfg.Films, cfg.Directors, cfg.Actors = s(cfg.Films), s(cfg.Directors), s(cfg.Actors)
		g, err := dbpedia.Generate(cfg)
		return g, dbpedia.Queries(), err
	}
}

// generateAll generates the three ontologies and encodes their create
// bodies. It returns the catalogs alongside, index-aligned.
func generateAll() ([]*ontology, [][]workload.BenchQuery, error) {
	onts := make([]*ontology, len(ontologyNames))
	catalogs := make([][]workload.BenchQuery, len(ontologyNames))
	for i, name := range ontologyNames {
		g, qs, err := generate(i)
		if err != nil {
			return nil, nil, fmt.Errorf("generating %s: %w", name, err)
		}
		o := &ontology{name: name, wire: ntriples.Format(g)}
		// Everything downstream runs on the graph the server will parse, so
		// node ids match the sessions' byte for byte.
		if o.graph, err = ntriples.ParseString(o.wire); err != nil {
			return nil, nil, fmt.Errorf("reparsing %s: %w", name, err)
		}
		if o.createBody, err = json.Marshal(api.CreateSessionRequest{Ontology: o.wire}); err != nil {
			return nil, nil, err
		}
		onts[i], catalogs[i] = o, qs
	}
	return onts, catalogs, nil
}

// sampleAll draws samplesPer seeded samples of sampleSize explanations for
// every catalog query with at least sampleSize results. Each ontology lists
// its first samples of every query, then the second ones, and so on.
func sampleAll(ctx context.Context, onts []*ontology, catalogs [][]workload.BenchQuery, seed int64) error {
	for i, o := range onts {
		ev := eval.New(o.graph)
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
		var bySample [samplesPer][]*catalogQuery
		for _, bq := range catalogs[i] {
			s := sampling.New(ev, bq.Query, rng)
			rs, err := s.Results(ctx)
			if err != nil {
				return fmt.Errorf("%s/%s: %w", o.name, bq.Name, err)
			}
			if len(rs) < sampleSize {
				continue
			}
			for k := range bySample {
				exs, err := s.ExampleSet(ctx, sampleSize)
				if err != nil {
					return fmt.Errorf("%s/%s: %w", o.name, bq.Name, err)
				}
				bySample[k] = append(bySample[k], &catalogQuery{ont: i, name: bq.Name, target: bq.Query, sample: exs})
			}
		}
		for _, qs := range bySample {
			o.queries = append(o.queries, qs...)
		}
	}
	return nil
}

// wireExamples encodes complete explanations as the service receives them.
func wireExamples(exs provenance.ExampleSet) []api.Example {
	out := make([]api.Example, len(exs))
	for i, ex := range exs {
		out[i] = api.Example{Triples: ntriples.Format(ex.Graph), Distinguished: ex.DistinguishedValue()}
	}
	return out
}

// wirePartial encodes provenance fragments as the service receives them.
func wirePartial(pex provenance.PartialExampleSet) []api.Example {
	out := make([]api.Example, len(pex))
	for i, p := range pex {
		out[i] = api.Example{
			Triples:       ntriples.Format(p.Graph),
			Distinguished: p.DistinguishedValue(),
			Partial:       &api.PartialSpec{MissingEdges: p.MissingEdges},
		}
	}
	return out
}

// interleave lists items round-robin over the ontologies. With repeat,
// shorter lists wrap around so entry k always belongs to ontology k%3;
// without, every item appears once and exhausted lists drop out.
func interleave[T any](perOnt [][]T, repeat bool) []T {
	longest := 0
	for _, l := range perOnt {
		longest = max(longest, len(l))
	}
	var out []T
	for j := 0; j < longest; j++ {
		for _, l := range perOnt {
			if repeat && len(l) > 0 {
				out = append(out, l[j%len(l)])
			} else if j < len(l) {
				out = append(out, l[j])
			}
		}
	}
	return out
}
