package ntriples_test

import (
	"reflect"
	"strings"
	"testing"

	"questpro/internal/graph"
	"questpro/internal/ntriples"
	"questpro/internal/paperfix"
	"questpro/internal/workload/bsbm"
	"questpro/internal/workload/dbpedia"
	"questpro/internal/workload/sp2b"
)

// fuzzSeedScale shrinks the generators' default sizes for the seed corpus:
// every statement shape they emit, in documents of a few KiB.
const fuzzSeedScale = 0.04

// generatorSeeds renders the three workload generators at fuzzSeedScale.
func generatorSeeds(f *testing.F) []string {
	f.Helper()
	s := func(n int) int { return max(1, int(float64(n)*fuzzSeedScale)) }
	sc := sp2b.DefaultConfig()
	sc.Persons, sc.Articles, sc.Inproceedings = s(sc.Persons), s(sc.Articles), s(sc.Inproceedings)
	sc.Journals, sc.Proceedings = s(sc.Journals), s(sc.Proceedings)
	bc := bsbm.DefaultConfig()
	bc.Products, bc.Producers, bc.Features = s(bc.Products), s(bc.Producers), s(bc.Features)
	bc.Types, bc.Vendors, bc.Reviewers = s(bc.Types), s(bc.Vendors), s(bc.Reviewers)
	dc := dbpedia.DefaultConfig()
	dc.Films, dc.Directors, dc.Actors = s(dc.Films), s(dc.Directors), s(dc.Actors)

	var docs []string
	for _, gen := range []func() (*graph.Graph, error){
		func() (*graph.Graph, error) { return sp2b.Generate(sc) },
		func() (*graph.Graph, error) { return bsbm.Generate(bc) },
		func() (*graph.Graph, error) { return dbpedia.Generate(dc) },
	} {
		g, err := gen()
		if err != nil {
			f.Fatal(err)
		}
		docs = append(docs, ntriples.Format(g))
	}
	return docs
}

// FuzzParse feeds arbitrary documents to the parser. It must never panic;
// a document it accepts must yield a graph that passes Validate, and a
// second parse of the same bytes must yield the same nodes and edges — ids,
// values, types and labels. Sessions created from byte-identical text share
// one parsed ontology, which is only sound because parsing is this
// deterministic. Fuzz it with
//
//	go test -run '^$' -fuzz FuzzParse -fuzzminimizetime 50x ./internal/ntriples/
//
// The generator seeds are several KiB each, and minimizing an input that
// large within the default time budget stalls the fuzzer for a minute per
// new input.
func FuzzParse(f *testing.F) {
	for _, doc := range generatorSeeds(f) {
		f.Add(doc)
	}
	o := paperfix.Ontology()
	f.Add(ntriples.Format(o))
	for _, ex := range paperfix.Explanations(o) {
		f.Add(ntriples.Format(ex.Graph))
	}
	for _, doc := range []string{
		"paper1 wb \"Alice\n",                         // unterminated quote
		"paper1 wb\n",                                 // 2-token triple
		"paper1 wb Alice . extra\n",                   // 5-token triple
		"@type Alice Author\n@type Alice Paper\n",     // conflicting @type
		"paper1 wb Alice .\npaper1 wb Alice .\n",      // duplicate triple
		"@type Alice\n",                               // short @type
		"\"a\\qb\" wb c .\n",                          // bad escape
		"# comment\n\n  \t\npaper1 \"w b\" \"A\\tB\"", // quoted tokens, no dot
		strings.Repeat("x", 70<<10) + " wb y .\n",     // line over 64 KiB
	} {
		f.Add(doc)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		g, err := ntriples.ParseString(doc)
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("parsed graph invalid: %v", err)
		}
		again, err := ntriples.ParseString(doc)
		if err != nil {
			t.Fatalf("second parse failed: %v", err)
		}
		if !reflect.DeepEqual(g.Nodes(), again.Nodes()) {
			t.Fatalf("second parse changed the nodes:\n%v\n%v", g.Nodes(), again.Nodes())
		}
		if !reflect.DeepEqual(g.Edges(), again.Edges()) {
			t.Fatalf("second parse changed the edges:\n%v\n%v", g.Edges(), again.Edges())
		}
	})
}
