package core

import (
	"fmt"
	"sync"

	"xpe/internal/alphabet"
	"xpe/internal/ha"
	"xpe/internal/hedge"
	"xpe/internal/hre"
	"xpe/internal/metrics"
	"xpe/internal/sfa"
)

// Query is a selection query select(e₁, e₂) (Definition 20): e₁ is a hedge
// regular expression constraining the subhedge of a node, e₂ a pointed
// hedge representation constraining its envelope. A nil Subhedge means "any
// subhedge".
type Query struct {
	Subhedge *hre.Expr // e₁ (nil = any)
	Envelope *PHR      // e₂
}

// ParseQuery parses "select(e1; phr)" or just "phr" (any subhedge).
// Surrounding whitespace (including CRLF line endings) is ignored; the
// select(...) form is recognized whether or not it is preceded by
// whitespace. SyntaxError offsets always index into the original input.
func ParseQuery(input string) (*Query, error) {
	trimmed := trim(input)
	// lead is how much leading whitespace trim dropped: every offset
	// computed against trimmed shifts by lead to index the original input.
	lead := 0
	for lead < len(input) && isSpace(input[lead]) {
		lead++
	}
	if len(trimmed) >= 7 && trimmed[:7] == "select(" {
		body := trimmed[7:]
		// Split at the top-level ';'. Closers at depth 0 before the split
		// point are unmatched: reporting them here (instead of letting the
		// depth go negative) keeps a later top-level ';' from being
		// silently skipped at depth -1.
		depth := 0
		for i := 0; i < len(body); i++ {
			switch body[i] {
			case '(', '<', '[':
				depth++
			case ')', '>', ']':
				if depth == 0 {
					if body[i] == ')' && i == len(body)-1 {
						return nil, &SyntaxError{Input: input, Offset: lead + 7 + i, Msg: "select(...) needs 'e1; phr'"}
					}
					return nil, &SyntaxError{Input: input, Offset: lead + 7 + i, Msg: fmt.Sprintf("unmatched %q before the top-level ';'", body[i])}
				}
				depth--
			case ';':
				if depth == 0 {
					var sub *hre.Expr
					left := trim(body[:i])
					if left != "*" {
						var err error
						sub, err = hre.Parse(left)
						if err != nil {
							return nil, err
						}
					}
					rest := trim(body[i+1:])
					if len(rest) == 0 || rest[len(rest)-1] != ')' {
						return nil, &SyntaxError{Input: input, Offset: lead + len(trimmed) - 1, Msg: "select(...) not closed"}
					}
					phr, err := ParsePHR(trim(rest[:len(rest)-1]))
					if err != nil {
						return nil, err
					}
					return &Query{Subhedge: sub, Envelope: phr}, nil
				}
			}
		}
		return nil, &SyntaxError{Input: input, Offset: lead + len(trimmed), Msg: "select(...) needs 'e1; phr'"}
	}
	phr, err := ParsePHR(trimmed)
	if err != nil {
		return nil, err
	}
	return &Query{Envelope: phr}, nil
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r'
}

func trim(s string) string {
	for len(s) > 0 && isSpace(s[0]) {
		s = s[1:]
	}
	for len(s) > 0 && isSpace(s[len(s)-1]) {
		s = s[:len(s)-1]
	}
	return s
}

// String renders the query.
func (q *Query) String() string {
	if q.Subhedge == nil {
		return q.Envelope.String()
	}
	return fmt.Sprintf("select(%s; %s)", q.Subhedge, q.Envelope)
}

// CompiledQuery is the executable form of a selection query: the Theorem 3
// machinery for e₁ (a complete DHA plus its final DFA, checked against each
// node's child-state sequence) and the Theorem 4 / Algorithm 1 machinery
// for e₂.
type CompiledQuery struct {
	Names *ha.Names

	// Gen is the alphabet generation (Names.Generation) this query was
	// compiled against. The compiled automata are closed-world over the
	// symbols interned at that generation: '.'-sides and completed side
	// automata silently exclude labels interned later. Callers that keep
	// interning (parsing more documents) should compare Gen against
	// Names.Generation() at evaluation time and recompile on mismatch —
	// the xpe facade does this transparently through its compiled-query
	// cache.
	Gen uint64

	phr *CompiledPHR
	sub *subChecker // nil = any subhedge

	// subExpr is the source e₁ expression (nil = any), retained for
	// required-label extraction (RequiredLabels).
	subExpr *hre.Expr

	// metrics, when non-nil, receives one flush of evaluation counters per
	// Select/SelectEach call (see CompiledPHR.metrics for the cost model).
	metrics *metrics.Eval
}

// SetMetrics attaches (or, with nil, detaches) an evaluation sink: every
// Select, SelectEach, and Locate through this query flushes its counters
// there. The sink must be attached before evaluation begins; concurrent
// evaluators (BulkSelect workers, streaming records) may share it — all
// cells are atomic.
func (cq *CompiledQuery) SetMetrics(m *metrics.Eval) {
	cq.metrics = m
	cq.phr.SetMetrics(m)
}

// subChecker decides "subhedge of n ∈ L(e₁)" per node in one bottom-up
// pass: it runs the complete DHA of e₁ and tests the child sequence against
// the final DFA — exactly the marking bit of Theorem 3's M↓e.
type subChecker struct {
	dha  *ha.DHA
	sink int
	fin  *sfa.DFA
	// arenas recycles marking slabs across calls, mirroring
	// CompiledPHR.arenas: repeated evaluation (BulkSelect workers, the
	// streaming record loop) reuses the slabs instead of allocating
	// per document.
	arenas sync.Pool

	// lazy, when non-nil, replaces dha/fin on the marking pass (see
	// component.lazy); nha is retained for on-demand materialization of the
	// eager structures, which schema-level constructions need.
	lazy  *ha.LazyDet
	nha   *ha.NHA
	eager sync.Once
}

// materialize builds the eager structures of a lazily compiled subChecker
// (see component.materialize).
func (s *subChecker) materialize() {
	if s.lazy == nil {
		return
	}
	s.eager.Do(func() {
		det := s.nha.Determinize()
		s.dha = det.DHA
		s.fin = det.DHA.Final.Complete()
	})
}

// flushLazy folds the since-last-flush lazy-determinization deltas of a
// lazily compiled e₁ automaton into the metrics sink; a no-op when eager.
func (s *subChecker) flushLazy(m *metrics.Eval) {
	if s.lazy == nil {
		return
	}
	d := s.lazy.FlushDelta()
	m.LazyStates.Add(d.StatesBuilt)
	m.LazyHits.Add(d.Hits)
	m.LazyEvictions.Add(d.Evictions)
}

// PreinternQuery interns every name the compilation of q will intern —
// element labels, variables, and the substitution variables of embeddings
// and '.' desugaring. Callers that compile against an immutable alphabet
// snapshot (the xpe facade) publish the query's names to the live alphabet
// with this first, so the subsequent compile performs only idempotent
// (read-locked) interns and never mutates the shared snapshot.
func PreinternQuery(q *Query, names *ha.Names) {
	internExprAlphabet(q.Subhedge, names)
	if q.Envelope != nil {
		internPHRAlphabet(q.Envelope, names)
	}
}

// CompileQuery compiles a selection query. Intern the document alphabet
// into names before calling for a closed-world reading of side conditions
// over those documents; the result is stamped with the alphabet generation
// it ranges over (see CompiledQuery.Gen), so callers can detect — and
// recover from — labels interned after compilation.
func CompileQuery(q *Query, names *ha.Names) (*CompiledQuery, error) {
	return CompileQueryOpt(q, names, Options{})
}

// CompileQueryOpt is CompileQuery with explicit options (lazy
// determinization, minimization).
func CompileQueryOpt(q *Query, names *ha.Names, opts Options) (*CompiledQuery, error) {
	// Intern the query's own alphabet up front so the generation captured
	// here is exact: the automaton builds below re-intern idempotently and
	// cannot move it (a concurrent ParseXML can, which the stamp then
	// reports as stale — the conservative direction).
	PreinternQuery(q, names)
	cq := &CompiledQuery{Names: names, Gen: names.Generation(), subExpr: q.Subhedge}
	phr, err := CompilePHROpt(q.Envelope, names, opts)
	if err != nil {
		return nil, err
	}
	cq.phr = phr
	if q.Subhedge != nil {
		nha, err := hre.Compile(q.Subhedge, names)
		if err != nil {
			return nil, err
		}
		if opts.LazyDeterminize {
			lz := nha.LazyDeterminize(ha.LazyOptions{TransitionBudget: opts.LazyTransitionBudget})
			cq.sub = &subChecker{lazy: lz, nha: nha, sink: lz.Sink()}
		} else {
			det := nha.Determinize()
			cq.sub = &subChecker{
				dha:  det.DHA,
				sink: det.Subsets.Lookup(nil),
				fin:  det.DHA.Final.Complete(),
			}
		}
	}
	return cq, nil
}

// Lazy reports whether the query was compiled with lazy determinization.
func (cq *CompiledQuery) Lazy() bool {
	for _, comp := range cq.phr.comps {
		if comp.lazy != nil {
			return true
		}
	}
	return cq.sub != nil && cq.sub.lazy != nil
}

// LazyStats sums the lazy-determinization counters across the query's side
// and subhedge automata; all-zero under eager compilation.
func (cq *CompiledQuery) LazyStats() ha.LazyStats {
	s := cq.phr.LazyStats()
	if cq.sub != nil && cq.sub.lazy != nil {
		s = s.Add(cq.sub.lazy.Stats())
	}
	return s
}

// materializeEager builds the eager determinizations of a lazily compiled
// query. Schema-level constructions (BuildMatchAutomaton) need the concrete
// DFAs; per-document evaluation keeps using the lazy path.
func (cq *CompiledQuery) materializeEager() {
	for _, comp := range cq.phr.comps {
		comp.materialize()
	}
	if cq.sub != nil {
		cq.sub.materialize()
	}
}

// Select returns the nodes of h located by the query (Definition 22).
func (cq *CompiledQuery) Select(h hedge.Hedge) *Result {
	res := newResult()
	cq.SelectEach(h, res.add)
	return res
}

// SelectEach runs Algorithm 1 and calls fn for every located node in
// document order with its Dewey path. It returns false when fn stopped the
// walk early, true when the whole document was traversed. The path slice is
// reused between calls to fn (clone it to retain), and all evaluation state
// comes from recycled arenas, so repeated evaluation — the streaming
// per-record hot loop — allocates nothing in steady state.
func (cq *CompiledQuery) SelectEach(h hedge.Hedge, fn func(p hedge.Path, n *hedge.Node) bool) bool {
	return cq.phr.each(h, cq.sub, cq.metrics, fn)
}

// each is Algorithm 1 over h: the annotation pass (plus the e₁ marking pass
// when sub is non-nil, walked in lockstep), then one top-down walk of the
// mirror automaton yielding every located node to fn. It flushes one
// document's counters to m when m is non-nil.
func (c *CompiledPHR) each(h hedge.Hedge, sub *subChecker, m *metrics.Eval, fn func(p hedge.Path, n *hedge.Node) bool) bool {
	phrRecs, ar := c.annotate(h)
	var subRecs []subAnnot
	var sar *subArena
	if sub != nil {
		subRecs, sar = sub.annotate(h)
	}
	w := eachPool.Get().(*eachWalker)
	w.phr, w.fn, w.marks = c, fn, 0
	done := w.walk(h, phrRecs, subRecs, c.mirror.start())
	if m != nil {
		m.Docs.Inc()
		m.Nodes.Add(int64(ar.size))
		m.Marks.Add(w.marks)
		steps := ar.steps + ar.elems
		c.flushLazy(m)
		if sar != nil {
			steps += sar.steps
			sub.flushLazy(m)
		}
		m.Transitions.Add(steps)
	}
	w.phr, w.fn = nil, nil
	w.path = w.path[:0]
	eachPool.Put(w)
	c.arenas.Put(ar)
	if sar != nil {
		sub.arenas.Put(sar)
	}
	return done
}

// eachWalker is the second traversal of Algorithm 1: the shared Dewey path
// buffer grows and shrinks in place as the walk descends.
type eachWalker struct {
	phr   *CompiledPHR
	fn    func(p hedge.Path, n *hedge.Node) bool
	path  hedge.Path
	marks int64 // located nodes yielded by this walk
}

var eachPool = sync.Pool{New: func() any { return &eachWalker{path: make(hedge.Path, 0, 32)} }}

func (w *eachWalker) walk(h hedge.Hedge, phrRecs []annot, subRecs []subAnnot, parentState int) bool {
	phr := w.phr
	for i, n := range h {
		if n.Kind != hedge.Elem {
			continue
		}
		ni := &phrRecs[i]
		cands := phr.candidates(n.Name, ni.leftBits, ni.rightBits)
		st := phr.mirror.step(parentState, cands)
		w.path = append(w.path, i)
		if phr.mirror.accepting(st) && (subRecs == nil || subRecs[i].marked) {
			w.marks++
			if !w.fn(w.path, n) {
				return false
			}
		}
		var childSub []subAnnot
		if subRecs != nil {
			childSub = subRecs[i].children
		}
		if !w.walk(n.Children, ni.children, childSub, st) {
			return false
		}
		w.path = w.path[:len(w.path)-1]
	}
	return true
}

// subAnnot is the per-node record of the e₁ marking pass (Theorem 3's bit).
type subAnnot struct {
	state    int
	marked   bool
	children []subAnnot
}

// subArena is the recycled slab of one marking pass, doubling as its
// per-call transition tally (see annotArena).
type subArena struct {
	buf   []subAnnot
	rest  []subAnnot
	steps int64 // e₁ DFA transitions taken (horizontal + final)
}

// annotate computes, per node, the e₁ automaton state and whether the
// node's subhedge is in L(e₁). Records are bump-allocated from one recycled
// slab; hand the returned arena back to s.arenas once the records are no
// longer referenced.
func (s *subChecker) annotate(h hedge.Hedge) ([]subAnnot, *subArena) {
	ar, _ := s.arenas.Get().(*subArena)
	if ar == nil {
		ar = &subArena{}
	}
	size := h.Size()
	if cap(ar.buf) < size {
		ar.buf = make([]subAnnot, size)
	}
	ar.rest = ar.buf[:size]
	ar.steps = 0
	return s.annotateIn(h, ar), ar
}

func (s *subChecker) annotateIn(h hedge.Hedge, ar *subArena) []subAnnot {
	recs := ar.rest[:len(h)]
	ar.rest = ar.rest[len(h):]
	for i, n := range h {
		a := &recs[i]
		// Slabs are recycled: clear the fields the switch below may leave
		// untouched for this node kind.
		a.marked = false
		a.children = nil
		switch n.Kind {
		case hedge.Var:
			a.state = s.sink
			if lz := s.lazy; lz != nil {
				if v := lz.Names.Vars.Lookup(n.Name); v != alphabet.None {
					a.state = lz.IotaState(v)
				}
			} else if v := s.dha.Names.Vars.Lookup(n.Name); v != alphabet.None && v < len(s.dha.Iota) {
				if q := s.dha.Iota[v]; q != alphabet.None {
					a.state = q
				}
			}
		case hedge.Elem:
			a.children = s.annotateIn(n.Children, ar)
			if lz := s.lazy; lz != nil {
				fs := lz.FwdStart()
				for j := range a.children {
					fs = lz.FwdStep(fs, a.children[j].state)
				}
				a.marked = lz.FwdAccepting(fs)
			} else {
				fs := s.fin.Start
				for j := range a.children {
					fs = s.fin.Step(fs, a.children[j].state)
				}
				a.marked = s.fin.Accepting(fs)
			}
			a.state = s.applyAlphaAnnot(n.Name, a.children)
			// One final-DFA step and one horizontal-DFA step per child.
			ar.steps += 2 * int64(len(a.children))
		default:
			a.state = s.sink
		}
	}
	return recs
}

func (s *subChecker) applyAlphaAnnot(symName string, children []subAnnot) int {
	if lz := s.lazy; lz != nil {
		sym := lz.Names.Syms.Lookup(symName)
		if sym == alphabet.None {
			return s.sink
		}
		st := lz.HorizStart(sym)
		if st < 0 {
			return s.sink
		}
		for j := range children {
			st = lz.HorizStep(sym, st, children[j].state)
		}
		return lz.HorizOut(sym, st)
	}
	sym := s.dha.Names.Syms.Lookup(symName)
	if sym == alphabet.None || sym >= len(s.dha.Horiz) || s.dha.Horiz[sym] == nil {
		return s.sink
	}
	hz := s.dha.Horiz[sym]
	st := hz.DFA.Start
	for j := range children {
		st = hz.DFA.Step(st, children[j].state)
		if st == sfa.Dead {
			return s.sink
		}
	}
	if q := hz.Out[st]; q != alphabet.None {
		return q
	}
	return s.sink
}

// SelectBindings is Select with variable capture: located nodes are
// returned together with the ancestors bound by named bases (see
// CompiledPHR.LocateBindings). The e₁ condition filters matches as usual.
func (cq *CompiledQuery) SelectBindings(h hedge.Hedge) []BoundMatch {
	ms := cq.phr.LocateBindings(h)
	if cq.sub == nil {
		return ms
	}
	subRecs, sar := cq.sub.annotate(h)
	marked := map[*hedge.Node]bool{}
	var collect func(h hedge.Hedge, recs []subAnnot)
	collect = func(h hedge.Hedge, recs []subAnnot) {
		for i, n := range h {
			if recs[i].marked {
				marked[n] = true
			}
			if n.Kind == hedge.Elem {
				collect(n.Children, recs[i].children)
			}
		}
	}
	collect(h, subRecs)
	cq.sub.arenas.Put(sar)
	out := ms[:0]
	for _, m := range ms {
		if marked[m.Node] {
			out = append(out, m)
		}
	}
	return out
}

// HasUniqueBindings reports (conservatively) whether the query's envelope
// determines bindings uniquely per match.
func (cq *CompiledQuery) HasUniqueBindings() bool {
	return cq.phr.HasUniqueBindings()
}

// SelectNaive evaluates the query from the definitions: per node, test the
// subhedge by automaton membership and the envelope by decomposition
// matching. Used as the oracle and as the E4 baseline.
func SelectNaive(q *Query, names *ha.Names, h hedge.Hedge) (map[*hedge.Node]bool, error) {
	matcher, err := NewNaiveMatcher(q.Envelope, names)
	if err != nil {
		return nil, err
	}
	var subNHA *ha.NHA
	if q.Subhedge != nil {
		subNHA, err = hre.Compile(q.Subhedge, names)
		if err != nil {
			return nil, err
		}
	}
	located, err := matcher.LocateAll(h)
	if err != nil {
		return nil, err
	}
	if subNHA == nil {
		return located, nil
	}
	out := map[*hedge.Node]bool{}
	for n := range located {
		if subNHA.Accepts(n.Children) {
			out[n] = true
		}
	}
	return out, nil
}
