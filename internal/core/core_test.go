package core

import (
	"math/rand"
	"testing"

	"xpe/internal/ha"
	"xpe/internal/hedge"
)

func TestParsePHR(t *testing.T) {
	cases := []string{
		"a",
		"a, b",
		"(a | b)*",
		"[() ; a ; b] [b ; a ; ()]",
		"[a<~z>*^z ; b ; a<~z>*^z]*",
		"[* ; figure ; table .]",
		"section* figure",
	}
	for _, src := range cases {
		p, err := ParsePHR(src)
		if err != nil {
			t.Fatalf("ParsePHR(%q): %v", src, err)
		}
		if _, err := ParsePHR(p.String()); err != nil {
			t.Fatalf("re-parse of %q → %q: %v", src, p.String(), err)
		}
	}
}

func TestParsePHRErrors(t *testing.T) {
	bad := []string{"", "[a; b]", "[;;]", "[a ; b ; c", "(a", "a |", "[* ; * ; *]"}
	for _, src := range bad {
		if _, err := ParsePHR(src); err == nil {
			t.Errorf("ParsePHR(%q) succeeded, want error", src)
		}
	}
}

// locate runs the compiled evaluator and returns the located paths as
// strings.
func locate(t *testing.T, phrSrc string, h hedge.Hedge) map[string]bool {
	t.Helper()
	names := ha.NewNames()
	internHedge(names, h)
	phr := MustParsePHR(phrSrc)
	c, err := CompilePHR(phr, names)
	if err != nil {
		t.Fatal(err)
	}
	res := c.Locate(h)
	out := map[string]bool{}
	for _, p := range res.Paths {
		out[p.String()] = true
	}
	return out
}

func internHedge(names *ha.Names, h hedge.Hedge) {
	syms, vars, _ := h.Labels()
	for _, s := range syms {
		names.Syms.Intern(s)
	}
	for _, v := range vars {
		names.Vars.Intern(v)
	}
}

func TestPaperSection5Example(t *testing.T) {
	// (a⟨z⟩*^z, b, a⟨z⟩*^z)* matches a pointed hedge iff the parent of η
	// and all its ancestors are labeled b and all other nodes are a.
	phrSrc := "[a<~z>*^z ; b ; a<~z>*^z]*"
	names := ha.NewNames()
	names.Syms.Intern("a")
	names.Syms.Intern("b")
	phr := MustParsePHR(phrSrc)
	c, err := CompilePHR(phr, names)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		pointed string
		want    bool
	}{
		{"b<@>", true},
		{"a b<@> a", true},
		{"b<b<@>>", true},
		{"a<a> b<b<@> a<a>> a", true},
		{"a<@>", false},      // parent of η is a
		{"b<a<@>>", false},   // parent of η is a
		{"a<b<@>>", false},   // ancestor a
		{"b b<@>", false},    // sibling b is not allowed (must be a)
		{"b<@> b", false},    // younger sibling b
		{"a<b> b<@>", false}, // descendant of sibling is b
	}
	for _, cse := range cases {
		u := hedge.MustParse(cse.pointed)
		got, err := c.MatchesPointed(u)
		if err != nil {
			t.Fatalf("%q: %v", cse.pointed, err)
		}
		if got != cse.want {
			t.Errorf("MatchesPointed(%q) = %v, want %v", cse.pointed, got, cse.want)
		}
		// Naive matcher must agree.
		nm, err := NewNaiveMatcher(phr, names)
		if err != nil {
			t.Fatal(err)
		}
		ngot, err := nm.MatchesPointed(u)
		if err != nil {
			t.Fatal(err)
		}
		if ngot != cse.want {
			t.Errorf("naive MatchesPointed(%q) = %v, want %v", cse.pointed, ngot, cse.want)
		}
	}
}

func TestPaperSection6Example(t *testing.T) {
	// select((b|x)*, (ε,a,b)(b,a,ε)) locates the first second-level node of
	// the second top-level node of ba⟨a⟨bx⟩b⟩.
	h := hedge.MustParse("b a<a<b $x> b>")
	names := ha.NewNames()
	internHedge(names, h)
	q, err := ParseQuery("select(($b | $x)*; [() ; a ; b] [b ; a ; ()])")
	if err != nil {
		t.Fatal(err)
	}
	_ = q
	// NOTE: in the paper, e₁ = (b|x)* ranges over a leaf b and a variable
	// x. In our syntax b is an element leaf and $x a variable:
	q2, err := ParseQuery("select((b | $x)*; [() ; a ; b] [b ; a ; ()])")
	if err != nil {
		t.Fatal(err)
	}
	cq, err := CompileQuery(q2, names)
	if err != nil {
		t.Fatal(err)
	}
	res := cq.Select(h)
	if len(res.Paths) != 1 || res.Paths[0].String() != "2.1" {
		t.Fatalf("located %v, want exactly [2.1]", res.Paths)
	}
	// Naive agreement.
	naive, err := SelectNaive(q2, ha.NewNames(), h)
	if err != nil {
		t.Fatal(err)
	}
	if len(naive) != 1 || !naive[h[1].Children[0]] {
		t.Fatalf("naive located wrong set")
	}
}

func TestPathExpressionIntroExample(t *testing.T) {
	// (section*, figure) from the introduction: figures in sections at any
	// depth. Bottom-up order: figure then section*.
	h := hedge.MustParse("doc<section<figure<caption> section<figure>> intro figure>")
	got := locate(t, "figure section* [* ; doc ; *]", h)
	want := map[string]bool{"1.1.1": true, "1.1.2.1": true, "1.3": true}
	if len(got) != len(want) {
		t.Fatalf("located %v, want %v", got, want)
	}
	for p := range want {
		if !got[p] {
			t.Fatalf("missing %v (got %v)", p, got)
		}
	}
}

func TestSiblingCondition(t *testing.T) {
	// Locate every figure whose immediately following sibling is a table —
	// the introduction's motivating example that classical path expressions
	// cannot express.
	h := hedge.MustParse("doc<figure table figure note figure> doc<figure>")
	any := "a<~z>*^z" // not used; sides below
	_ = any
	got := locate(t, "[* ; figure ; table .*] [* ; doc ; *]", h)
	want := map[string]bool{"1.1": true}
	if len(got) != 1 || !got["1.1"] {
		t.Fatalf("located %v, want %v", got, want)
	}
}

// phrCorpus is a set of PHRs exercising labels, sides, and combinators,
// used for randomized naive-vs-Algorithm-1 agreement.
var phrCorpus = []string{
	"a",
	"b*",
	"a b*",
	"(a | b)*",
	"[() ; a ; *]",
	"[* ; a ; ()]",
	"[b ; a ; *] b*",
	"[(a|b)* ; a ; *]",
	"[a<~z>*^z ; b ; a<~z>*^z]*",
	"[b<$x> ; a ; *] (a | b)*",
	"[* ; a ; b b] a*",
	"a (b a)*",
}

// checkPaths asserts that res.Paths lists exactly the nodes the oracle
// located, each once, in document order.
func checkPaths(t *testing.T, src string, h hedge.Hedge, res *Result, oracle map[*hedge.Node]bool) {
	t.Helper()
	var want []hedge.Path
	h.Visit(func(p hedge.Path, n *hedge.Node) bool {
		if oracle[n] {
			want = append(want, p.Clone())
		}
		return true
	})
	if len(res.Paths) != len(want) {
		t.Fatalf("%q: Paths = %v, want %v in %q", src, res.Paths, want, h)
	}
	for i := range want {
		if !res.Paths[i].Equal(want[i]) {
			t.Fatalf("%q: Paths = %v, want %v in %q", src, res.Paths, want, h)
		}
	}
}

func TestNaiveVsAlgorithm1Random(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	cfg := hedge.RandConfig{Symbols: []string{"a", "b"}, Vars: []string{"x"}, MaxDepth: 4, MaxWidth: 3}
	for _, src := range phrCorpus {
		phr := MustParsePHR(src)
		names := ha.NewNames()
		names.Syms.Intern("a")
		names.Syms.Intern("b")
		names.Vars.Intern("x")
		compiled, err := CompilePHR(phr, names)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		naive, err := NewNaiveMatcher(phr, names)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		for i := 0; i < 60; i++ {
			h := hedge.Random(rng, cfg)
			fast := compiled.Locate(h)
			slow, err := naive.LocateAll(h)
			if err != nil {
				t.Fatal(err)
			}
			h.Visit(func(p hedge.Path, n *hedge.Node) bool {
				if fast.Located[n] != slow[n] {
					t.Fatalf("%q: disagreement at %v in %q: fast=%v naive=%v",
						src, p, h, fast.Located[n], slow[n])
				}
				return true
			})
			checkPaths(t, src, h, fast, slow)
		}
	}
}

func TestMatchesPointedAgreesOnRandomPointed(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	cfg := hedge.RandConfig{Symbols: []string{"a", "b"}, Vars: []string{"x"}, MaxDepth: 4, MaxWidth: 3}
	for _, src := range phrCorpus {
		phr := MustParsePHR(src)
		names := ha.NewNames()
		names.Syms.Intern("a")
		names.Syms.Intern("b")
		names.Vars.Intern("x")
		compiled, err := CompilePHR(phr, names)
		if err != nil {
			t.Fatal(err)
		}
		naive, err := NewNaiveMatcher(phr, names)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			u := hedge.RandomPointed(rng, cfg)
			fast, err := compiled.MatchesPointed(u)
			if err != nil {
				t.Fatal(err)
			}
			slow, err := naive.MatchesPointed(u)
			if err != nil {
				t.Fatal(err)
			}
			if fast != slow {
				t.Fatalf("%q: MatchesPointed disagreement on %q: fast=%v naive=%v", src, u, fast, slow)
			}
		}
	}
}

func TestSelectQueryNaiveVsCompiled(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	cfg := hedge.RandConfig{Symbols: []string{"a", "b"}, Vars: []string{"x"}, MaxDepth: 4, MaxWidth: 3}
	queries := []string{
		"select(b*; a (a|b)*)",
		"select((a<~z>*^z); [* ; b ; *] (a | b)*)",
		"select(*; a*)",
		"select((b | $x)*; [() ; a ; b] [b ; a ; ()])",
	}
	for _, qsrc := range queries {
		q, err := ParseQuery(qsrc)
		if err != nil {
			t.Fatalf("%q: %v", qsrc, err)
		}
		names := ha.NewNames()
		names.Syms.Intern("a")
		names.Syms.Intern("b")
		names.Vars.Intern("x")
		cq, err := CompileQuery(q, names)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			h := hedge.Random(rng, cfg)
			fast := cq.Select(h)
			slow, err := SelectNaive(q, names, h)
			if err != nil {
				t.Fatal(err)
			}
			h.Visit(func(p hedge.Path, n *hedge.Node) bool {
				if fast.Located[n] != slow[n] {
					t.Fatalf("%q: disagreement at %v in %q", qsrc, p, h)
				}
				return true
			})
			checkPaths(t, qsrc, h, fast, slow)
		}
	}
}

func TestParseQueryForms(t *testing.T) {
	q, err := ParseQuery("a b*")
	if err != nil || q.Subhedge != nil {
		t.Fatalf("bare PHR form failed: %v", err)
	}
	q, err = ParseQuery("select(b*; a)")
	if err != nil || q.Subhedge == nil {
		t.Fatalf("select form failed: %v", err)
	}
	if q.String() != "select(b*; a)" {
		t.Fatalf("String = %q", q.String())
	}
	if _, err := ParseQuery("select(b*)"); err == nil {
		t.Fatal("select without ';' should fail")
	}
}

func TestParseQueryWhitespace(t *testing.T) {
	// The select(...) form must be recognized under leading whitespace and
	// CRLF line endings — previously the untrimmed prefix test fell through
	// to ParsePHR, which rejects 'select' syntax.
	for _, src := range []string{
		"  select(b*; a)",
		"\tselect(b*; a)",
		"\r\nselect(b*; a)\r\n",
		"select(b*; a)\r",
		"a b*\r",
		"\r\n a b* \r\n",
	} {
		q, err := ParseQuery(src)
		if err != nil {
			t.Fatalf("ParseQuery(%q): %v", src, err)
		}
		if _, err := ParseQuery(q.String()); err != nil {
			t.Fatalf("re-parse of %q → %q: %v", src, q.String(), err)
		}
	}
}

func TestParseQueryUnmatchedClosers(t *testing.T) {
	// A stray closer at depth 0 used to drive the depth negative, hiding a
	// later top-level ';' (depth -1 ≠ 0) and producing a misleading
	// trailing error. It must be reported at the offending byte.
	cases := []struct {
		src  string
		off  int // expected SyntaxError offset into src
		stop byte
	}{
		{"select(a); b)", 8, ')'},
		{"select(a]; b)", 8, ']'},
		{"select(a>; b)", 8, '>'},
		{"  select(a); b)", 10, ')'},
	}
	for _, c := range cases {
		_, err := ParseQuery(c.src)
		if err == nil {
			t.Fatalf("ParseQuery(%q) should fail", c.src)
		}
		se, ok := err.(*SyntaxError)
		if !ok {
			t.Fatalf("ParseQuery(%q) error type %T, want *SyntaxError", c.src, err)
		}
		if se.Offset != c.off || se.Input[se.Offset] != c.stop {
			t.Errorf("ParseQuery(%q) offset %d (byte %q), want %d (%q)",
				c.src, se.Offset, se.Input[se.Offset], c.off, c.stop)
		}
	}
	// The historical "select(e1)" shape keeps its dedicated message.
	_, err := ParseQuery("select(b*)")
	if se, ok := err.(*SyntaxError); !ok || se.Msg != "select(...) needs 'e1; phr'" {
		t.Errorf("ParseQuery(select(b*)) = %v, want needs-'e1; phr' syntax error", err)
	}
}

func TestPathExpressionHelper(t *testing.T) {
	// PathExpression turns a label regex into an all-sides-any PHR.
	phr := MustParsePHR("figure section*")
	if phr.Bases[0].Left != nil || phr.Bases[0].Right != nil {
		t.Fatal("sugar bases should have any sides")
	}
	h := hedge.MustParse("section<section<figure> figure> figure")
	got := locate(t, "figure section*", h)
	for _, p := range []string{"1.1.1", "1.2", "2"} {
		if !got[p] {
			t.Fatalf("missing %v in %v", p, got)
		}
	}
}

func TestLocateEmptyAndUnknownSymbols(t *testing.T) {
	names := ha.NewNames()
	names.Syms.Intern("a")
	c, err := CompilePHR(MustParsePHR("a*"), names)
	if err != nil {
		t.Fatal(err)
	}
	res := c.Locate(nil)
	if len(res.Located) != 0 {
		t.Fatal("empty hedge should locate nothing")
	}
	// Unknown symbols must not crash and must not match label a.
	h := hedge.Hedge{hedge.NewElem("zzz", hedge.NewElem("a"))}
	res = c.Locate(h)
	if res.Located[h[0]] {
		t.Fatal("zzz should not match")
	}
	// a under zzz: path a, zzz — "a*" requires ALL levels a, so not
	// located.
	if res.Located[h[0].Children[0]] {
		t.Fatal("a under zzz should not match a*")
	}
}
