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

// CompiledPHR is the executable form of a pointed hedge representation —
// the (M, ≡, L) triple of Theorem 4 in evaluation-ready shape:
//
//   - the component automata realize the single deterministic hedge
//     automaton M: one complete DHA per distinct side expression, run in
//     lockstep (their product is M; materializing the product is deferred
//     to the match-identifying construction, which needs it explicitly);
//   - the right-invariant equivalence ≡ is used only through which final
//     sets Fᵢ₁/Fᵢ₂ a class is contained in, so the evaluator computes
//     exactly those membership bits: forward DFA runs for elder siblings,
//     reversed-DFA runs for younger siblings;
//   - the regular set L is represented by the mirror automaton N
//     (Theorem 4's deterministic string automaton accepting the mirror
//     image of L), lazily determinized over the concrete membership-bit
//     symbols and evaluated top-down in the second traversal.
type CompiledPHR struct {
	PHR   *PHR
	Names *ha.Names

	// Gen is the alphabet generation (Names.Generation) the side automata
	// were compiled against. The closed-world machinery — component DHAs
	// complete over the interned alphabet, '.'-side desugaring — is exact
	// for documents whose labels were interned at or before Gen; callers
	// that intern labels afterwards must recompile (the xpe facade does so
	// transparently through its compiled-query cache).
	Gen uint64

	comps []*component // deduplicated side automata
	// Per base: component index of each side (-1 = any hedge).
	leftComp, rightComp []int
	labels              []int // base → interned label symbol

	mirror *mirrorDFA

	// arenas recycles annotation slabs across Locate/Select calls, so the
	// first traversal costs two slab reslices instead of zeroing fresh
	// pages per call (which would dominate on megabyte-scale documents).
	arenas sync.Pool

	// metrics, when non-nil, receives one flush of evaluation counters per
	// Locate call. Work counts accumulate in the per-call arena as plain
	// integer arithmetic regardless; the nil check gates only the atomic
	// flush, so detached evaluation pays no synchronization.
	metrics *metrics.Eval
}

// SetMetrics attaches (or, with nil, detaches) an evaluation sink: every
// Locate flushes its node, mark, and transition counts there. Do not call
// concurrently with evaluation.
func (c *CompiledPHR) SetMetrics(m *metrics.Eval) { c.metrics = m }

// component is one side automaton: a complete DHA plus its final membership
// DFAs in both directions — or, in lazy mode, an on-demand subset
// construction behind the same stepping surface.
type component struct {
	dha  *ha.DHA
	sink int      // state assigned to nodes outside the interned alphabet
	fwd  *sfa.DFA // complete final DFA over dha states (prefix membership)
	bwd  *sfa.DFA // complete DFA of the reversed final language (suffix membership)

	// lazy, when non-nil, replaces dha/fwd/bwd on the evaluation paths:
	// states and transitions materialize as documents demand them. The
	// source NHA is retained so schema-level constructions (which need the
	// concrete DFAs) can materialize the eager structures on first use.
	lazy     *ha.LazyDet
	nha      *ha.NHA
	eager    sync.Once
	minimize bool
}

// materialize builds the eager structures of a lazily compiled component.
// Evaluation keeps using the lazy path (stateOf and the membership passes
// branch on comp.lazy); the eager DFAs exist only for schema-level
// constructions like BuildMatchAutomaton, which run their own product
// exploration and never mix states with the lazy ids.
func (comp *component) materialize() {
	if comp.lazy == nil {
		return
	}
	comp.eager.Do(func() {
		det := comp.nha.Determinize()
		fwd := det.DHA.Final.Complete()
		bwd := det.DHA.Final.Reverse().Determinize().Complete()
		if comp.minimize {
			fwd = fwd.Minimize()
			bwd = bwd.Minimize()
		}
		comp.dha, comp.fwd, comp.bwd = det.DHA, fwd, bwd
	})
}

// Options tunes PHR compilation; the zero value is the default
// configuration (used by CompilePHR).
type Options struct {
	// SkipMinimize disables Hopcroft-style minimization of the sibling
	// membership DFAs. Minimization is a design choice the ablation
	// benchmark (BenchmarkAblationMinimize) measures: it shrinks the
	// machines the two traversals step through at some extra compile cost.
	SkipMinimize bool

	// LazyDeterminize defers the Theorem 1 subset construction: side and
	// subhedge automata are compiled into on-demand caches (ha.LazyDet)
	// whose states materialize only as documents demand them, so the
	// exponential eager worst case (the C1 caveat) is paid proportionally
	// to input diversity instead of up front. Membership answers are
	// identical to the eager construction (the differential suite pins
	// this); SkipMinimize is irrelevant on the lazy evaluation path.
	LazyDeterminize bool

	// LazyTransitionBudget caps the cached transitions per lazy automaton:
	// exceeding it flushes the transition maps (states survive, so ids stay
	// valid) and counts an eviction. Zero means
	// ha.DefaultLazyTransitionBudget; negative disables the bound. Ignored
	// unless LazyDeterminize is set.
	LazyTransitionBudget int
}

// CompilePHR compiles a pointed hedge representation for Algorithm 1
// evaluation. Symbols mentioned by the PHR and its side expressions are
// interned into names; callers should intern the document alphabet they
// care about into the same names before compiling, so the side automata are
// complete over it (side expressions constrain only interned symbols;
// unknown document symbols land in the automaton sink and fail side
// conditions, matching the closed-world reading of Definition 17).
func CompilePHR(phr *PHR, names *ha.Names) (*CompiledPHR, error) {
	return CompilePHROpt(phr, names, Options{})
}

// internExprAlphabet interns every symbol, variable, and substitution
// variable mentioned by e into names. Interning ahead of automaton
// construction pins the alphabet generation: the build that follows interns
// nothing new, so the captured generation is exact for the compiled
// machinery (absent concurrent interning, which the generation mismatch
// then reports conservatively).
func internExprAlphabet(e *hre.Expr, names *ha.Names) {
	if e == nil {
		return
	}
	syms, vars, substs := e.Names()
	for _, a := range syms {
		names.Syms.Intern(a)
	}
	for _, x := range vars {
		names.Vars.Intern(x)
	}
	for _, z := range substs {
		names.Vars.Intern(ha.SubstVarName(z))
	}
}

// internPHRAlphabet interns every name the PHR mentions (base labels and
// both side expressions of every base).
func internPHRAlphabet(phr *PHR, names *ha.Names) {
	for _, b := range phr.Bases {
		names.Syms.Intern(b.Label)
		internExprAlphabet(b.Left, names)
		internExprAlphabet(b.Right, names)
	}
}

// CompilePHROpt is CompilePHR with explicit options.
func CompilePHROpt(phr *PHR, names *ha.Names, opts Options) (*CompiledPHR, error) {
	if len(phr.Bases) > 60 {
		return nil, fmt.Errorf("core: at most 60 base representations supported, have %d", len(phr.Bases))
	}
	// Intern the PHR's own alphabet first, then capture the generation:
	// the automaton build below re-interns the same names idempotently, so
	// Gen is the exact closed world the side automata range over.
	internPHRAlphabet(phr, names)
	c := &CompiledPHR{PHR: phr, Names: names, Gen: names.Generation()}
	byKey := map[string]int{}
	compileSide := func(e *hre.Expr) (int, error) {
		if e == nil {
			return -1, nil
		}
		key := e.String()
		if idx, ok := byKey[key]; ok {
			return idx, nil
		}
		nha, err := hre.Compile(e, names)
		if err != nil {
			return 0, err
		}
		var comp *component
		if opts.LazyDeterminize {
			lz := nha.LazyDeterminize(ha.LazyOptions{TransitionBudget: opts.LazyTransitionBudget})
			comp = &component{lazy: lz, nha: nha, sink: lz.Sink(), minimize: !opts.SkipMinimize}
		} else {
			det := nha.Determinize()
			comp = &component{dha: det.DHA, sink: det.Subsets.Lookup(nil)}
			comp.fwd = comp.dha.Final.Complete()
			comp.bwd = comp.dha.Final.Reverse().Determinize().Complete()
			if !opts.SkipMinimize {
				comp.fwd = comp.fwd.Minimize()
				comp.bwd = comp.bwd.Minimize()
			}
		}
		idx := len(c.comps)
		c.comps = append(c.comps, comp)
		byKey[key] = idx
		return idx, nil
	}
	for _, b := range phr.Bases {
		c.labels = append(c.labels, names.Syms.Intern(b.Label))
		li, err := compileSide(b.Left)
		if err != nil {
			return nil, err
		}
		ri, err := compileSide(b.Right)
		if err != nil {
			return nil, err
		}
		c.leftComp = append(c.leftComp, li)
		c.rightComp = append(c.rightComp, ri)
	}
	nfa := phr.Expr.CompileNFA(namesForBases(len(phr.Bases)))
	nfa.GrowAlphabet(len(phr.Bases))
	c.mirror = newMirrorDFA(nfa.Reverse())
	return c, nil
}

// MaxComponentStates returns the largest membership-DFA state count among
// the compiled side automata — the determinization-size metric reported by
// the E3/E7 experiments. For sibling conditions the subset-construction
// blowup lives in the final (sequence-membership) DFA; for vertical
// conditions in the horizontal DFAs. Both are considered.
func (c *CompiledPHR) MaxComponentStates() int {
	max := 0
	for _, comp := range c.comps {
		if comp.lazy != nil {
			// Lazy components report the states materialized so far — the
			// pay-as-you-go reading of the same metric.
			if v := int(comp.lazy.Stats().StatesBuilt); v > max {
				max = v
			}
			continue
		}
		if comp.fwd.NumStates > max {
			max = comp.fwd.NumStates
		}
		for _, hz := range comp.dha.Horiz {
			if hz != nil && hz.DFA.NumStates > max {
				max = hz.DFA.NumStates
			}
		}
	}
	return max
}

// Result is the outcome of locating nodes in a hedge.
type Result struct {
	// Located maps each located node to true.
	Located map[*hedge.Node]bool
	// Paths lists the Dewey paths of located nodes in document order.
	Paths []hedge.Path
}

func newResult() *Result { return &Result{Located: map[*hedge.Node]bool{}} }

// add is the collecting match sink behind Locate and Select: it records
// the node and a retained copy of its (reused) path.
func (r *Result) add(p hedge.Path, n *hedge.Node) bool {
	r.Located[n] = true
	r.Paths = append(r.Paths, p.Clone())
	return true
}

// annot is the per-node record of the first traversal, arranged as a tree
// parallel to the hedge so both traversals run map-free in document order.
type annot struct {
	compStates []int  // state per component (index parallels c.comps)
	leftBits   uint64 // bit i: elder-sibling sequence ∈ F of component i
	rightBits  uint64 // bit i: younger-sibling sequence ∈ F of component i
	children   []annot
}

// Locate runs Algorithm 1: two depth-first traversals, time linear in the
// number of nodes (modulo lazy determinization of the mirror automaton,
// which is amortized over the finite concrete alphabet).
func (c *CompiledPHR) Locate(h hedge.Hedge) *Result {
	res := newResult()
	c.each(h, nil, c.metrics, res.add)
	return res
}

// flushLazy folds the since-last-flush lazy-determinization deltas of every
// lazily compiled component into the metrics sink. A no-op under eager
// compilation.
func (c *CompiledPHR) flushLazy(m *metrics.Eval) {
	for _, comp := range c.comps {
		if comp.lazy == nil {
			continue
		}
		d := comp.lazy.FlushDelta()
		m.LazyStates.Add(d.StatesBuilt)
		m.LazyHits.Add(d.Hits)
		m.LazyEvictions.Add(d.Evictions)
	}
}

// LazyStats sums the lazy-determinization counters across the side
// automata; all-zero under eager compilation.
func (c *CompiledPHR) LazyStats() ha.LazyStats {
	var s ha.LazyStats
	for _, comp := range c.comps {
		if comp.lazy != nil {
			s = s.Add(comp.lazy.Stats())
		}
	}
	return s
}

// annotArena bump-allocates every annot record (and component-state array)
// of one Locate call from two recycled slabs sized to the document. It
// doubles as the per-call tally of the first traversal's work (size, elems,
// steps): accumulating into the arena is single-goroutine plain arithmetic,
// flushed to the attached metrics sink — if any — once per call.
type annotArena struct {
	recsBuf   []annot
	statesBuf []int
	recs      []annot
	states    []int

	size  int   // nodes in the document being annotated
	elems int64 // element nodes (= mirror-automaton steps of the second pass)
	steps int64 // component membership-DFA transitions taken
}

func (ar *annotArena) reset(size, comps int) {
	if cap(ar.recsBuf) < size {
		ar.recsBuf = make([]annot, size)
	}
	if cap(ar.statesBuf) < size*comps {
		ar.statesBuf = make([]int, size*comps)
	}
	ar.recs = ar.recsBuf[:size]
	ar.states = ar.statesBuf[:size*comps]
	ar.size, ar.elems, ar.steps = size, 0, 0
}

func (ar *annotArena) take(n, comps int) ([]annot, []int) {
	recs := ar.recs[:n]
	ar.recs = ar.recs[n:]
	states := ar.states[:n*comps]
	ar.states = ar.states[n*comps:]
	return recs, states
}

// annotate is the first traversal: component states bottom-up, then the
// per-sibling-list membership bits (forward final DFAs for elder siblings,
// reversed final DFAs for younger siblings). The returned arena must be
// handed back to c.arenas once the records are no longer referenced.
func (c *CompiledPHR) annotate(h hedge.Hedge) ([]annot, *annotArena) {
	ar, _ := c.arenas.Get().(*annotArena)
	if ar == nil {
		ar = &annotArena{}
	}
	ar.reset(h.Size(), len(c.comps))
	return c.annotateIn(h, ar), ar
}

func (c *CompiledPHR) annotateIn(h hedge.Hedge, ar *annotArena) []annot {
	recs, states := ar.take(len(h), len(c.comps))
	for i, n := range h {
		a := &recs[i]
		// Slabs are recycled: every field is (re)assigned here, and the
		// membership bits accumulate with |=, so clear them explicitly.
		a.children = nil
		a.leftBits, a.rightBits = 0, 0
		if n.Kind == hedge.Elem {
			ar.elems++
			if len(n.Children) > 0 {
				a.children = c.annotateIn(n.Children, ar)
			}
		}
		a.compStates = states[i*len(c.comps) : (i+1)*len(c.comps)]
		for ci, comp := range c.comps {
			a.compStates[ci] = c.stateOf(ci, comp, n, a.children)
		}
		// stateOf steps each component's horizontal DFA once per child.
		ar.steps += int64(len(a.children)) * int64(len(c.comps))
	}
	// The membership passes below step each component's final DFAs once per
	// node in both directions.
	ar.steps += 2 * int64(len(recs)) * int64(len(c.comps))
	for ci, comp := range c.comps {
		bit := uint64(1) << uint(ci)
		if lz := comp.lazy; lz != nil {
			st := lz.FwdStart()
			for i := range recs {
				if lz.FwdAccepting(st) {
					recs[i].leftBits |= bit
				}
				st = lz.FwdStep(st, recs[i].compStates[ci])
			}
			rt := lz.BwdStart()
			for i := len(recs) - 1; i >= 0; i-- {
				if lz.BwdAccepting(rt) {
					recs[i].rightBits |= bit
				}
				rt = lz.BwdStep(rt, recs[i].compStates[ci])
			}
			continue
		}
		st := comp.fwd.Start
		for i := range recs {
			if comp.fwd.Accepting(st) {
				recs[i].leftBits |= bit
			}
			st = comp.fwd.Step(st, recs[i].compStates[ci])
		}
		rt := comp.bwd.Start
		for i := len(recs) - 1; i >= 0; i-- {
			if comp.bwd.Accepting(rt) {
				recs[i].rightBits |= bit
			}
			rt = comp.bwd.Step(rt, recs[i].compStates[ci])
		}
	}
	return recs
}

// stateOf computes the component state of a node from its children's
// records (already computed bottom-up).
func (c *CompiledPHR) stateOf(ci int, comp *component, n *hedge.Node, children []annot) int {
	if comp.lazy != nil {
		return c.stateOfLazy(ci, comp, n, children)
	}
	switch n.Kind {
	case hedge.Var:
		if v := c.Names.Vars.Lookup(n.Name); v != alphabet.None && v < len(comp.dha.Iota) {
			return comp.dha.Iota[v]
		}
		return c.sinkOf(comp)
	case hedge.Elem:
		sym := c.Names.Syms.Lookup(n.Name)
		if sym == alphabet.None || sym >= len(comp.dha.Horiz) || comp.dha.Horiz[sym] == nil {
			return c.sinkOf(comp)
		}
		hz := comp.dha.Horiz[sym]
		st := hz.DFA.Start
		for _, ch := range children {
			st = hz.DFA.Step(st, ch.compStates[ci])
			if st == sfa.Dead {
				return c.sinkOf(comp)
			}
		}
		if st == sfa.Dead || st >= len(hz.Out) {
			return c.sinkOf(comp)
		}
		if q := hz.Out[st]; q != alphabet.None {
			return q
		}
		return c.sinkOf(comp)
	default:
		return c.sinkOf(comp)
	}
}

// stateOfLazy is stateOf over a lazily determinized component: the same
// run, materializing horizontal states on demand. The lazy machines are
// total (HorizStep never goes dead), so only the symbol lookup can fall to
// the sink early.
func (c *CompiledPHR) stateOfLazy(ci int, comp *component, n *hedge.Node, children []annot) int {
	lz := comp.lazy
	switch n.Kind {
	case hedge.Var:
		if v := c.Names.Vars.Lookup(n.Name); v != alphabet.None {
			return lz.IotaState(v)
		}
		return comp.sink
	case hedge.Elem:
		sym := c.Names.Syms.Lookup(n.Name)
		if sym == alphabet.None {
			return comp.sink
		}
		st := lz.HorizStart(sym)
		if st < 0 {
			return comp.sink
		}
		for _, ch := range children {
			st = lz.HorizStep(sym, st, ch.compStates[ci])
		}
		return lz.HorizOut(sym, st)
	default:
		return comp.sink
	}
}

// sinkOf returns the component's sink state: the empty subset of its
// determinization, which is what the complete automaton assigns to any node
// outside the interned alphabet.
func (c *CompiledPHR) sinkOf(comp *component) int { return comp.sink }

// candidates returns the bit set of base representations matched by the
// pointed base hedge at a node: label equal and both side memberships hold
// (Definition 17 via the ξ mapping of Theorem 4).
func (c *CompiledPHR) candidates(label string, leftBits, rightBits uint64) uint64 {
	return c.candidatesSym(c.Names.Syms.Lookup(label), leftBits, rightBits)
}

// candidatesSym is candidates over an interned label symbol.
func (c *CompiledPHR) candidatesSym(sym int, leftBits, rightBits uint64) uint64 {
	var out uint64
	for i := range c.PHR.Bases {
		if c.labels[i] != sym {
			continue
		}
		if li := c.leftComp[i]; li >= 0 && leftBits&(1<<uint(li)) == 0 {
			continue
		}
		if ri := c.rightComp[i]; ri >= 0 && rightBits&(1<<uint(ri)) == 0 {
			continue
		}
		out |= 1 << uint(i)
	}
	return out
}

// MatchesPointed evaluates a single pointed hedge against the PHR using the
// compiled machinery (used for cross-checking; Locate is the linear bulk
// evaluator).
func (c *CompiledPHR) MatchesPointed(u hedge.Hedge) (bool, error) {
	etaPath, err := u.EtaPath()
	if err != nil {
		return false, err
	}
	// The node whose envelope u is: the parent of η.
	target := etaPath[:len(etaPath)-1]
	// Strip η: evaluate on the hedge with the η-parent made childless, then
	// ask whether that node is located. Locating needs the subhedge only
	// for component states BELOW the node, which do not influence its own
	// envelope bits — η's parent has no other children by construction.
	stripped := u.Clone()
	stripped.At(target).Children = nil
	res := c.Locate(stripped)
	return res.Located[stripped.At(target)], nil
}

// mirrorDFA lazily determinizes the reversed PHR automaton over concrete
// candidate-set symbols. Theorem 4's N is this automaton completed over the
// finite alphabet (Q*/≡)×Σ×(Q*/≡); laziness keeps Algorithm 1 linear with
// a small constant in practice. The memo tables grow under a mutex so
// BulkSelect can share one compiled query across goroutines.
type mirrorDFA struct {
	mu     sync.Mutex
	rev    *sfa.NFA
	sets   [][]int        // DFA state → NFA state set
	ids    map[string]int // set key → DFA state
	accept []bool
	trans  []map[uint64]int // DFA state → candidate bits → DFA state
	// startID memoizes the interned start ε-closure: start() sits on the
	// per-record streaming hot path, and recomputing the closure (plus its
	// set key) would cost two allocations per evaluation.
	startID int
}

func newMirrorDFA(rev *sfa.NFA) *mirrorDFA {
	m := &mirrorDFA{rev: rev, ids: map[string]int{}, startID: -1}
	return m
}

func setKey(set []int) string {
	b := make([]byte, 0, len(set)*4)
	for _, s := range set {
		b = append(b, byte(s), byte(s>>8), byte(s>>16), byte(s>>24))
	}
	return string(b)
}

func (m *mirrorDFA) intern(set []int) int {
	k := setKey(set)
	if id, ok := m.ids[k]; ok {
		return id
	}
	id := len(m.sets)
	m.ids[k] = id
	m.sets = append(m.sets, set)
	acc := false
	for _, s := range set {
		if m.rev.Accept[s] {
			acc = true
			break
		}
	}
	m.accept = append(m.accept, acc)
	m.trans = append(m.trans, map[uint64]int{})
	return id
}

func (m *mirrorDFA) start() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.startID < 0 {
		m.startID = m.intern(m.rev.EpsClosure(m.rev.Start))
	}
	return m.startID
}

func (m *mirrorDFA) accepting(state int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.accept[state]
}

// step advances on the candidate-bit symbol: the union of moves on every
// base index present in cands.
func (m *mirrorDFA) step(state int, cands uint64) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if to, ok := m.trans[state][cands]; ok {
		return to
	}
	next := map[int]bool{}
	for _, s := range m.sets[state] {
		for i := 0; cands>>uint(i) != 0; i++ {
			if cands&(1<<uint(i)) == 0 {
				continue
			}
			for _, t := range m.rev.Trans[s][i] {
				next[t] = true
			}
		}
	}
	lst := make([]int, 0, len(next))
	for s := range next {
		lst = append(lst, s)
	}
	closed := m.rev.EpsClosure(lst)
	to := m.intern(closed)
	m.trans[state][cands] = to
	return to
}
