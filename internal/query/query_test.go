package query

import (
	"strings"
	"testing"

	"questpro/internal/graph"
)

// chainQuery builds ?p1 wb ?a1* / ?p1 wb Erdos, a tiny two-edge pattern.
func chainQuery(t *testing.T) *Simple {
	t.Helper()
	q := NewSimple()
	p1 := q.MustEnsureNode(Var("p1"), "Paper")
	a1 := q.MustEnsureNode(Var("a1"), "Author")
	erdos := q.MustEnsureNode(Const("Erdos"), "Author")
	q.MustAddEdge(p1, a1, "wb")
	q.MustAddEdge(p1, erdos, "wb")
	if err := q.SetProjected(a1); err != nil {
		t.Fatal(err)
	}
	return q
}

func TestTermBasics(t *testing.T) {
	v := Var("?x")
	if !v.IsVar || v.Value != "x" || v.String() != "?x" {
		t.Fatalf("Var(?x) = %+v (%s)", v, v)
	}
	c := Const("x")
	if c.IsVar || c.String() != "x" {
		t.Fatalf("Const(x) = %+v", c)
	}
	if v == c {
		t.Fatal("var and const with same spelling compare equal")
	}
}

func TestEnsureNodeIdentity(t *testing.T) {
	q := NewSimple()
	a, err := q.EnsureNode(Var("x"), "T")
	if err != nil {
		t.Fatal(err)
	}
	b, err := q.EnsureNode(Var("x"), "")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("same variable produced two nodes")
	}
	if _, err := q.EnsureNode(Var("x"), "U"); err == nil {
		t.Fatal("conflicting type accepted")
	}
	c, err := q.EnsureNode(Const("x"), "")
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("const x aliased with var x")
	}
	if q.NumNodes() != 2 || q.NumVars() != 1 {
		t.Fatalf("nodes=%d vars=%d", q.NumNodes(), q.NumVars())
	}
}

func TestFreshVar(t *testing.T) {
	q := NewSimple()
	q.MustEnsureNode(Var("v1"), "")
	id := q.FreshVar("T")
	n := q.Node(id)
	if !n.Term.IsVar || n.Term.Value == "v1" {
		t.Fatalf("FreshVar collided: %+v", n)
	}
	if n.Type != "T" {
		t.Fatalf("FreshVar type = %q", n.Type)
	}
}

func TestAddEdgeDuplicate(t *testing.T) {
	q := chainQuery(t)
	p1, _ := q.NodeByTerm(Var("p1"))
	a1, _ := q.NodeByTerm(Var("a1"))
	if _, err := q.AddEdge(p1.ID, a1.ID, "wb"); err == nil {
		t.Fatal("duplicate edge accepted")
	}
	if _, err := q.AddEdge(p1.ID, a1.ID, "cites"); err != nil {
		t.Fatalf("distinct-label edge rejected: %v", err)
	}
	if _, err := q.AddEdge(p1.ID, NodeID(99), "x"); err == nil {
		t.Fatal("invalid endpoint accepted")
	}
}

func TestDiseqs(t *testing.T) {
	q := chainQuery(t)
	a1, _ := q.NodeByTerm(Var("a1"))
	p1, _ := q.NodeByTerm(Var("p1"))
	erdos, _ := q.NodeByTerm(Const("Erdos"))

	if err := q.AddDiseqNodes(a1.ID, erdos.ID); err != nil {
		t.Fatal(err)
	}
	// Swapped orientation is normalized.
	if err := q.AddDiseqNodes(erdos.ID, a1.ID); err != nil {
		t.Fatal(err)
	}
	if q.NumDiseqs() != 1 {
		t.Fatalf("diseqs = %d, want 1 after dedup", q.NumDiseqs())
	}
	if err := q.AddDiseqNodes(a1.ID, p1.ID); err != nil {
		t.Fatal(err)
	}
	if err := q.AddDiseqValue(a1.ID, "Bob"); err != nil {
		t.Fatal(err)
	}
	if err := q.AddDiseqValue(a1.ID, "Bob"); err != nil {
		t.Fatal(err)
	}
	if q.NumDiseqs() != 3 {
		t.Fatalf("diseqs = %d, want 3", q.NumDiseqs())
	}
	if err := q.AddDiseqValue(erdos.ID, "Bob"); err == nil {
		t.Fatal("diseq on constant accepted")
	}
	if err := q.AddDiseqNodes(a1.ID, a1.ID); err == nil {
		t.Fatal("self diseq accepted")
	}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	stripped := q.WithoutDiseqs()
	if stripped.NumDiseqs() != 0 || q.NumDiseqs() != 3 {
		t.Fatal("WithoutDiseqs leaked")
	}
}

func TestCloneIndependence(t *testing.T) {
	q := chainQuery(t)
	c := q.Clone()
	c.FreshVar("")
	a1, _ := c.NodeByTerm(Var("a1"))
	p1, _ := c.NodeByTerm(Var("p1"))
	if err := c.AddDiseqNodes(a1.ID, p1.ID); err != nil {
		t.Fatal(err)
	}
	if q.NumNodes() == c.NumNodes() || q.NumDiseqs() != 0 {
		t.Fatal("clone shares state with original")
	}
}

func TestFromExplanation(t *testing.T) {
	g := graph.New()
	g.MustAddTriple("paper1", "wb", "Alice")
	g.MustAddTriple("paper1", "wb", "Bob")
	alice, _ := g.NodeByValue("Alice")
	g.SetNodeType(alice.ID, "Author")

	q, err := FromExplanation(g, alice.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !q.IsGround() || q.NumEdges() != 2 {
		t.Fatalf("ground query: vars=%d edges=%d", q.NumVars(), q.NumEdges())
	}
	pn := q.Node(q.Projected())
	if pn.Term.IsVar || pn.Term.Value != "Alice" || pn.Type != "Author" {
		t.Fatalf("projected = %+v", pn)
	}
}

func TestUnionCost(t *testing.T) {
	// Example 4.2 cost structure: constants-only branches cost w2 each,
	// variables cost w1 each.
	q := chainQuery(t) // 2 vars
	g := graph.New()
	g.MustAddTriple("paper1", "wb", "Alice")
	alice, _ := g.NodeByValue("Alice")
	ground, err := FromExplanation(g, alice.ID)
	if err != nil {
		t.Fatal(err)
	}
	u := NewUnion(q, ground)
	if u.TotalVars() != 2 || u.Size() != 2 {
		t.Fatalf("vars=%d size=%d", u.TotalVars(), u.Size())
	}
	if got := u.Cost(2, 5); got != 2*2+5*2 {
		t.Fatalf("Cost = %v", got)
	}
	if err := u.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestUnionReplace(t *testing.T) {
	a, b, c := chainQuery(t), chainQuery(t), chainQuery(t)
	u := NewUnion(a, b, c)
	merged := chainQuery(t)
	v, err := u.Replace(0, 2, merged)
	if err != nil {
		t.Fatal(err)
	}
	if v.Size() != 2 || v.Branch(0) != b || v.Branch(1) != merged {
		t.Fatalf("Replace result wrong: %v", v)
	}
	if _, err := u.Replace(1, 1, merged); err == nil {
		t.Fatal("Replace(i,i) accepted")
	}
	if _, err := u.Replace(0, 9, merged); err == nil {
		t.Fatal("Replace out of range accepted")
	}
}

func TestIsomorphicPositive(t *testing.T) {
	a := chainQuery(t)
	// Same shape, different variable names, different insertion order.
	b := NewSimple()
	erdos := b.MustEnsureNode(Const("Erdos"), "Author")
	x := b.MustEnsureNode(Var("x"), "Author")
	p := b.MustEnsureNode(Var("paperVar"), "Paper")
	b.MustAddEdge(p, erdos, "wb")
	b.MustAddEdge(p, x, "wb")
	if err := b.SetProjected(x); err != nil {
		t.Fatal(err)
	}
	if !Isomorphic(a, b) || !Isomorphic(b, a) {
		t.Fatal("isomorphic queries not recognized")
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("fingerprints differ for isomorphic queries")
	}
}

func TestIsomorphicNegative(t *testing.T) {
	a := chainQuery(t)

	// Different projected node.
	b := a.Clone()
	p1, _ := b.NodeByTerm(Var("p1"))
	if err := b.SetProjected(p1.ID); err != nil {
		t.Fatal(err)
	}
	if Isomorphic(a, b) {
		t.Fatal("different projection considered isomorphic")
	}

	// Different constant.
	c := NewSimple()
	p := c.MustEnsureNode(Var("p1"), "Paper")
	x := c.MustEnsureNode(Var("a1"), "Author")
	other := c.MustEnsureNode(Const("Euler"), "Author")
	c.MustAddEdge(p, x, "wb")
	c.MustAddEdge(p, other, "wb")
	c.SetProjected(x)
	if Isomorphic(a, c) {
		t.Fatal("different constants considered isomorphic")
	}

	// Different diseq sets.
	d := a.Clone()
	a1, _ := d.NodeByTerm(Var("a1"))
	if err := d.AddDiseqValue(a1.ID, "Bob"); err != nil {
		t.Fatal(err)
	}
	if Isomorphic(a, d) {
		t.Fatal("different diseqs considered isomorphic")
	}

	// Reversed edge direction.
	e := NewSimple()
	pe := e.MustEnsureNode(Var("p1"), "Paper")
	ae := e.MustEnsureNode(Var("a1"), "Author")
	ce := e.MustEnsureNode(Const("Erdos"), "Author")
	e.MustAddEdge(ae, pe, "wb")
	e.MustAddEdge(pe, ce, "wb")
	e.SetProjected(ae)
	if Isomorphic(a, e) {
		t.Fatal("reversed edge considered isomorphic")
	}
}

func TestIsomorphicDiseqMapping(t *testing.T) {
	mk := func(varNames [2]string, diseq bool) *Simple {
		q := NewSimple()
		p := q.MustEnsureNode(Var(varNames[0]), "")
		a := q.MustEnsureNode(Var(varNames[1]), "")
		c := q.MustEnsureNode(Const("Erdos"), "")
		q.MustAddEdge(p, a, "wb")
		q.MustAddEdge(p, c, "wb")
		q.SetProjected(a)
		if diseq {
			if err := q.AddDiseqNodes(a, c); err != nil {
				panic(err)
			}
		}
		return q
	}
	a := mk([2]string{"p", "a"}, true)
	b := mk([2]string{"paper", "author"}, true)
	if !Isomorphic(a, b) {
		t.Fatal("diseq-carrying isomorphic queries not recognized")
	}
}

func TestUnionIsomorphic(t *testing.T) {
	a1, a2 := chainQuery(t), chainQuery(t)
	b1, b2 := chainQuery(t), chainQuery(t)
	x, _ := b2.NodeByTerm(Var("a1"))
	if err := b2.AddDiseqValue(x.ID, "Bob"); err != nil {
		t.Fatal(err)
	}
	u1 := NewUnion(a1, a2)
	u2 := NewUnion(a2, a1)
	if !UnionIsomorphic(u1, u2) {
		t.Fatal("branch order should not matter")
	}
	u3 := NewUnion(b1, b2)
	if UnionIsomorphic(u1, u3) {
		t.Fatal("different branch content considered isomorphic")
	}
	if UnionIsomorphic(u1, NewUnion(a1)) {
		t.Fatal("different sizes considered isomorphic")
	}
	if u1.Fingerprint() != u2.Fingerprint() {
		t.Fatal("union fingerprint depends on branch order")
	}
}

func TestSPARQLRenderSimple(t *testing.T) {
	q := chainQuery(t)
	a1, _ := q.NodeByTerm(Var("a1"))
	if err := q.AddDiseqValue(a1.ID, "Bob"); err != nil {
		t.Fatal(err)
	}
	s := q.SPARQL()
	for _, want := range []string{"SELECT ?a1 WHERE {", `?p1 <wb> ?a1 .`, `?p1 <wb> "Erdos" .`, `FILTER (?a1 != "Bob")`} {
		if !strings.Contains(s, want) {
			t.Fatalf("SPARQL output missing %q:\n%s", want, s)
		}
	}
}

func TestSPARQLRenderGroundProjected(t *testing.T) {
	g := graph.New()
	g.MustAddTriple("paper1", "wb", "Alice")
	alice, _ := g.NodeByValue("Alice")
	q, err := FromExplanation(g, alice.ID)
	if err != nil {
		t.Fatal(err)
	}
	s := q.SPARQL()
	if !strings.Contains(s, `BIND ("Alice" AS ?out)`) || !strings.Contains(s, "SELECT ?out") {
		t.Fatalf("ground projected rendering wrong:\n%s", s)
	}
}

func TestSPARQLRoundTripSimple(t *testing.T) {
	q := chainQuery(t)
	a1, _ := q.NodeByTerm(Var("a1"))
	p1, _ := q.NodeByTerm(Var("p1"))
	erdos, _ := q.NodeByTerm(Const("Erdos"))
	if err := q.AddDiseqValue(a1.ID, "Bob"); err != nil {
		t.Fatal(err)
	}
	if err := q.AddDiseqNodes(a1.ID, p1.ID); err != nil {
		t.Fatal(err)
	}
	if err := q.AddDiseqNodes(a1.ID, erdos.ID); err != nil {
		t.Fatal(err)
	}
	u, err := ParseSPARQL(q.SPARQL())
	if err != nil {
		t.Fatal(err)
	}
	if u.Size() != 1 {
		t.Fatalf("parsed %d branches", u.Size())
	}
	// Types are not carried by SPARQL text; compare untyped copies.
	if !Isomorphic(stripTypes(q), u.Branch(0)) {
		t.Fatalf("round trip broke the query:\n%s\nvs\n%s", q.SPARQL(), u.Branch(0).SPARQL())
	}
}

func TestSPARQLRoundTripUnion(t *testing.T) {
	q1 := chainQuery(t)
	g := graph.New()
	g.MustAddTriple("paper1", "wb", "Alice")
	alice, _ := g.NodeByValue("Alice")
	q2, err := FromExplanation(g, alice.ID)
	if err != nil {
		t.Fatal(err)
	}
	u := NewUnion(q1, q2)
	text := u.SPARQL()
	back, err := ParseSPARQL(text)
	if err != nil {
		t.Fatalf("parsing %s: %v", text, err)
	}
	if !UnionIsomorphic(NewUnion(stripTypes(q1), stripTypes(q2)), back) {
		t.Fatalf("union round trip broke:\n%s\nvs\n%s", text, back.SPARQL())
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"empty":              "",
		"no select":          "WHERE { }",
		"no var":             "SELECT x WHERE { }",
		"unterminated":       "SELECT ?x WHERE { ?x <p> ?y .",
		"trailing":           "SELECT ?x WHERE { } garbage",
		"bad filter op":      "SELECT ?x WHERE { FILTER (?x < ?y) }",
		"const filter left":  `SELECT ?x WHERE { FILTER ("a" != ?y) }`,
		"triple no dot":      "SELECT ?x WHERE { ?x <p> ?y }",
		"bad iri":            "SELECT ?x WHERE { ?x <p ?y . }",
		"bad string":         `SELECT ?x WHERE { ?x <p> "open . }`,
		"diseq unknown var":  "SELECT ?x WHERE { ?x <p> ?y . FILTER (?z != ?y) }",
		"eq var right":       "SELECT ?x WHERE { ?x <p> ?y . FILTER (?x = ?y) }",
		"bind non-literal":   "SELECT ?x WHERE { BIND (?y AS ?x) }",
		"bind non-var":       `SELECT ?x WHERE { BIND ("a" AS "b") }`,
		"stray bang":         "SELECT ?x WHERE { FILTER (?x ! ?y) }",
		"empty var":          "SELECT ? WHERE { }",
		"diseq on bound var": `SELECT ?x WHERE { ?x <p> ?y . FILTER (?y != ?x) BIND ("a" AS ?y) }`,
	}
	for name, text := range cases {
		if _, err := ParseSPARQL(text); err == nil {
			t.Errorf("%s: parse succeeded for %q", name, text)
		}
	}
}

// stripTypes removes node types, matching what SPARQL text can carry.
func stripTypes(q *Simple) *Simple {
	c := q.Clone()
	for i := range c.nodes {
		c.nodes[i].Type = ""
	}
	return c
}

func TestValidateCatchesBadDiseq(t *testing.T) {
	q := chainQuery(t)
	q.diseqs = append(q.diseqs, Diseq{X: 2}) // node 2 is the Erdos constant
	if err := q.Validate(); err == nil {
		t.Fatal("diseq on constant passed validation")
	}
}

func TestStringForms(t *testing.T) {
	q := chainQuery(t)
	if s := q.String(); !strings.Contains(s, "?a1") || !strings.Contains(s, "wb") {
		t.Fatalf("String = %q", s)
	}
	u := NewUnion(q, q.Clone())
	if s := u.String(); !strings.HasPrefix(s, "Union(") {
		t.Fatalf("Union String = %q", s)
	}
}

func TestUnionSPARQLOutVarCollision(t *testing.T) {
	// A branch already using ?out forces the union onto ?out1.
	b1 := NewSimple()
	p := b1.MustEnsureNode(Var("out"), "")
	a := b1.MustEnsureNode(Var("a"), "")
	b1.MustAddEdge(p, a, "wb")
	b1.SetProjected(a)
	b2 := chainQuery(t)
	u := NewUnion(b1, b2)
	s := u.SPARQL()
	if !strings.Contains(s, "SELECT ?out1 WHERE") {
		t.Fatalf("collision not avoided:\n%s", s)
	}
	back, err := ParseSPARQL(s)
	if err != nil {
		t.Fatal(err)
	}
	if back.Size() != 2 {
		t.Fatalf("round trip lost branches:\n%s", back.SPARQL())
	}
}

// TestSPARQLRoundTripFixedPoint pins that rendering is a fixed point of
// parse-then-render: a parsed union projects ?out in every branch, and
// that must not push the next rendering onto ?out1.
func TestSPARQLRoundTripFixedPoint(t *testing.T) {
	// branch builds a one-edge query x -wb-> y projecting the node named
	// by proj (a term "?name" is a variable, anything else a constant).
	branch := func(x, y, proj string) *Simple {
		term := func(s string) Term {
			if strings.HasPrefix(s, "?") {
				return Var(s)
			}
			return Const(s)
		}
		q := NewSimple()
		from := q.MustEnsureNode(term(x), "")
		to := q.MustEnsureNode(term(y), "")
		q.MustAddEdge(from, to, "wb")
		if err := q.SetProjected(map[string]NodeID{x: from, y: to}[proj]); err != nil {
			t.Fatal(err)
		}
		return q
	}
	cases := []struct {
		name string
		u    *Union
		out  string // the SELECT line every rendering must carry
	}{
		{"two branches", NewUnion(chainQuery(t), branch("?p", "?a", "?a")), "SELECT ?out WHERE"},
		{"branch projects ?out", NewUnion(branch("?p", "?out", "?out"), chainQuery(t)), "SELECT ?out WHERE"},
		{"every branch projects ?out", NewUnion(branch("?p", "?out", "?out"), branch("?out", "Erdos", "?out")), "SELECT ?out WHERE"},
		{"other ?out in a branch", NewUnion(branch("?out", "?a", "?a"), chainQuery(t)), "SELECT ?out1 WHERE"},
		{"?out and ?out1 taken", NewUnion(branch("?out", "?out1", "?out1"), branch("?out1", "?a", "?a")), "SELECT ?out2 WHERE"},
		{"ground projected branch", NewUnion(branch("?p", "Alice", "Alice"), chainQuery(t)), "SELECT ?out WHERE"},
		{"single ground branch", NewUnion(branch("?out", "Alice", "Alice")), "SELECT ?out1 WHERE"},
		{"single variable branch", NewUnion(branch("?p", "?out", "?out")), "SELECT ?out WHERE"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			text := tc.u.SPARQL()
			if !strings.HasPrefix(text, tc.out) {
				t.Fatalf("rendered\n%s\nwant prefix %q", text, tc.out)
			}
			for i := 0; i < 2; i++ {
				back, err := ParseSPARQL(text)
				if err != nil {
					t.Fatalf("parsing\n%s\n%v", text, err)
				}
				if again := back.SPARQL(); again != text {
					t.Fatalf("round trip %d changed the text:\n%s\n--- before ---\n%s", i+1, again, text)
				}
			}
		})
	}
}

func TestSimpleSPARQLGroundOutCollision(t *testing.T) {
	// A ground-projected query with a variable named "out" elsewhere.
	q := NewSimple()
	c := q.MustEnsureNode(Const("Alice"), "")
	v := q.MustEnsureNode(Var("out"), "")
	q.MustAddEdge(v, c, "wb")
	q.SetProjected(c)
	s := q.SPARQL()
	if !strings.Contains(s, `BIND ("Alice" AS ?out1)`) {
		t.Fatalf("fresh out name not chosen:\n%s", s)
	}
	back, err := ParseSPARQL(s)
	if err != nil {
		t.Fatal(err)
	}
	bp := back.Branch(0).Node(back.Branch(0).Projected())
	if bp.Term.IsVar || bp.Term.Value != "Alice" {
		t.Fatalf("projected constant lost: %+v", bp)
	}
}

func TestOptionalAccessors(t *testing.T) {
	q := chainQuery(t)
	e := q.Edges()[0].ID
	if q.IsOptional(e) || q.NumOptionalEdges() != 0 {
		t.Fatal("fresh edges should be mandatory")
	}
	if err := q.SetOptional(e, true); err != nil {
		t.Fatal(err)
	}
	if !q.IsOptional(e) || q.NumOptionalEdges() != 1 {
		t.Fatal("SetOptional(true) not applied")
	}
	// Clone carries optionality; clearing on the clone leaves the original.
	c := q.Clone()
	if err := c.SetOptional(e, false); err != nil {
		t.Fatal(err)
	}
	if c.NumOptionalEdges() != 0 || !q.IsOptional(e) {
		t.Fatal("optional state shared between clones")
	}
	if err := q.SetOptional(EdgeID(99), true); err == nil {
		t.Fatal("invalid edge accepted")
	}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	// Render and reparse preserve the OPTIONAL block in-package too.
	s := q.SPARQL()
	if !strings.Contains(s, "OPTIONAL {") {
		t.Fatalf("render missing OPTIONAL:\n%s", s)
	}
	back, err := ParseSPARQL(s)
	if err != nil {
		t.Fatal(err)
	}
	if back.Branch(0).NumOptionalEdges() != 1 {
		t.Fatalf("parse lost optionality:\n%s", back.Branch(0).SPARQL())
	}
	if _, err := ParseSPARQL("SELECT ?x WHERE { OPTIONAL { FILTER (?x != ?y) } }"); err == nil {
		t.Fatal("FILTER inside OPTIONAL accepted")
	}
	if _, err := ParseSPARQL("SELECT ?x WHERE { OPTIONAL ?x <p> ?y . }"); err == nil {
		t.Fatal("OPTIONAL without braces accepted")
	}
}
