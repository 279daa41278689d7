package query

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// sparqlTerm renders a term as it appears inside a triple pattern: ?name for
// variables, a quoted literal for constants.
func sparqlTerm(t Term) string {
	if t.IsVar {
		return "?" + t.Value
	}
	return strconv.Quote(t.Value)
}

// sparqlLabel renders a predicate label as an IRI-ish token.
func sparqlLabel(l string) string { return "<" + l + ">" }

// renderBody writes the triple patterns, FILTER and BIND lines of q with the
// given indentation. outVar, when non-empty, renames the projected node to
// that variable (and, when the projected node is a constant, emits a BIND of
// the constant to the variable).
func (q *Simple) renderBody(sb *strings.Builder, indent, outVar string) {
	termOf := func(id NodeID) string {
		n := q.nodes[id]
		if outVar != "" && id == q.projected {
			return "?" + outVar
		}
		return sparqlTerm(n.Term)
	}
	if outVar != "" && q.projected != NoNode && !q.nodes[q.projected].Term.IsVar {
		fmt.Fprintf(sb, "%sBIND (%s AS ?%s)\n", indent,
			strconv.Quote(q.nodes[q.projected].Term.Value), outVar)
	}
	for _, e := range q.edges {
		if q.IsOptional(e.ID) {
			fmt.Fprintf(sb, "%sOPTIONAL { %s %s %s . }\n", indent,
				termOf(e.From), sparqlLabel(e.Label), termOf(e.To))
			continue
		}
		fmt.Fprintf(sb, "%s%s %s %s .\n", indent,
			termOf(e.From), sparqlLabel(e.Label), termOf(e.To))
	}
	for _, d := range q.diseqs {
		left := termOf(d.X)
		var right string
		if d.YIsNode {
			right = termOf(d.Y)
		} else {
			right = strconv.Quote(d.YValue)
		}
		fmt.Fprintf(sb, "%sFILTER (%s != %s)\n", indent, left, right)
	}
}

// SPARQL renders the simple query as SPARQL text (the subset this package
// also parses). The projected node determines the SELECT variable; a
// constant projected node is exposed through a BIND onto a fresh variable.
func (q *Simple) SPARQL() string {
	outVar := ""
	selectVar := ""
	if q.projected != NoNode {
		if p := q.nodes[q.projected]; p.Term.IsVar {
			selectVar = p.Term.Value
		} else {
			outVar = q.freshOutName()
			selectVar = outVar
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "SELECT ?%s WHERE {\n", selectVar)
	q.renderBody(&sb, "  ", outVar)
	sb.WriteString("}")
	return sb.String()
}

// freshOutName picks an output variable name unused by the query.
func (q *Simple) freshOutName() string {
	name := "out"
	for i := 0; ; i++ {
		if i > 0 {
			name = fmt.Sprintf("out%d", i)
		}
		if _, taken := q.byTerm[Var(name)]; !taken {
			return name
		}
	}
}

// String renders a compact single-line description, stable across runs.
func (q *Simple) String() string {
	parts := make([]string, 0, len(q.edges))
	for _, e := range q.edges {
		parts = append(parts, sparqlTerm(q.nodes[e.From].Term)+"-"+e.Label+"->"+sparqlTerm(q.nodes[e.To].Term))
	}
	sort.Strings(parts)
	proj := "∅"
	if q.projected != NoNode {
		proj = sparqlTerm(q.nodes[q.projected].Term)
	}
	extra := ""
	if len(q.diseqs) > 0 {
		extra = fmt.Sprintf(" +%d≠", len(q.diseqs))
	}
	return fmt.Sprintf("Q{%s | %s%s}", proj, strings.Join(parts, ", "), extra)
}

// SPARQL renders the union query. Every branch's projected node is renamed
// onto a common output variable so the union is well-formed SPARQL. A
// branch's own projected variable does not take a name, so a parsed union
// (whose branches all project ?out) renders with ?out again.
func (u *Union) SPARQL() string {
	if len(u.branches) == 1 {
		return u.branches[0].SPARQL()
	}
	outVar := "out"
	for i := 0; ; i++ {
		if i > 0 {
			outVar = fmt.Sprintf("out%d", i)
		}
		taken := false
		for _, b := range u.branches {
			if id, ok := b.byTerm[Var(outVar)]; ok && id != b.projected {
				taken = true
				break
			}
		}
		if !taken {
			break
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "SELECT ?%s WHERE {\n", outVar)
	for i, b := range u.branches {
		if i > 0 {
			sb.WriteString("  UNION\n")
		}
		sb.WriteString("  {\n")
		b.renderBody(&sb, "    ", outVar)
		sb.WriteString("  }\n")
	}
	sb.WriteString("}")
	return sb.String()
}

// String renders a compact description of the union.
func (u *Union) String() string {
	parts := make([]string, len(u.branches))
	for i, b := range u.branches {
		parts[i] = b.String()
	}
	sort.Strings(parts)
	return "Union(" + strings.Join(parts, " ∪ ") + ")"
}
