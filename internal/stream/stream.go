// Package stream evaluates a compiled selection query over an XML input
// stream record by record: the input is split into records (top-level
// children of the document element, or subtrees rooted at a configured
// split element), each record is parsed into a recycled arena-backed hedge
// and evaluated with Algorithm 1, and the per-record results are delivered
// through a callback in document order — as soon as each record completes.
//
// One pipeline serves every worker count: a read stage fills a batch slot
// from the splitter, an evaluate stage runs Algorithm 1 on it, and a route
// stage applies the failure policy, commits the record's trace, and
// delivers it, in document order. With one worker the caller's goroutine
// runs the three stages inline, one record at a time; with more, producer,
// worker, and collector goroutines wrap the same stages around batches.
//
// Peak memory is O(largest record × in-flight records), never O(document):
// a parallel run holds Workers+2 batch arenas, and a single-worker run
// holds exactly one record arena. Records are independent evaluation units — each is
// treated as its own document, so a query's envelope conditions range over
// the record subtree only (the paper's Algorithm 1 run per record). That is
// the semantics that admits single-pass bounded-memory evaluation: sibling
// conditions of record ancestors would need the not-yet-read remainder of
// the document.
//
// # Fault containment
//
// Record independence also bounds the blast radius of a failure: a
// malformed record, a limit violation, or a panicking evaluation concerns
// exactly one record. Config.OnRecordError decides each failed record's
// fate — consulted in document order, on the caller's goroutine, with a
// typed *RecordError. Returning nil skips the record (the splitter skims
// or resynchronizes past it, see xmlhedge.RecordReader.Recover) and the
// stream continues; returning an error aborts the run with it. A nil
// policy aborts on the first failure, preserving the pre-policy behavior
// exactly. Failures that cannot be contained to a record — reader I/O
// errors, cancellation, the stream byte budget, malformed markup with no
// named split to resynchronize on — bypass the policy and abort.
package stream

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"xpe/internal/core"
	"xpe/internal/ha"
	"xpe/internal/hedge"
	"xpe/internal/metrics"
	"xpe/internal/trace"
	"xpe/internal/xmlhedge"
)

// Config tunes a streaming run; the zero value is the default
// configuration.
type Config struct {
	// Split names the record root element; empty splits at the document
	// element's children (see xmlhedge.RecordOptions.Split).
	Split string
	// Workers is the number of concurrent evaluation workers; <=0 means
	// GOMAXPROCS. Results are delivered in document order regardless.
	Workers int
	// BatchSize is the number of records per worker handoff in parallel
	// runs (0 = auto, currently 32; 1 restores record-at-a-time handoff).
	// Larger batches amortize channel and scheduler costs per record but
	// raise peak memory — the bound is O(largest record × BatchSize ×
	// (Workers+2)) — and delivery latency for slow producers. A one-worker
	// run ignores it: it runs the stages inline, one record at a time.
	BatchSize int
	// MaxRecordNodes / MaxRecordDepth bound individual records (0 =
	// unlimited); a violating record fails with *xmlhedge.LimitError,
	// routed through OnRecordError.
	MaxRecordNodes int
	MaxRecordDepth int
	// MaxRecordBytes bounds the raw input bytes one record may span;
	// MaxStreamBytes bounds total input consumption (0 = unlimited).
	// A record over its byte budget is a record-scoped failure; an
	// exhausted stream budget aborts the run regardless of policy.
	MaxRecordBytes int64
	MaxStreamBytes int64
	// RecordTimeout bounds one record's evaluation wall time (0 =
	// unlimited). Enforcement is cooperative — the deadline is checked
	// between matches and after the traversal — so it catches slow
	// records, not a wedged evaluation.
	RecordTimeout time.Duration
	// OnRecordError is the per-record failure policy. Nil aborts the run
	// on the first failure with the raw error (legacy behavior). When set,
	// it is called once per failed record, in document order, on the
	// goroutine that routes records (never concurrently): return nil to
	// skip the record, or an error to abort the run with it.
	OnRecordError func(*RecordError) error
	// Inject, when non-nil, is called at the fault-injection points (test
	// only; see internal/faultinject).
	Inject Injector
	// KeepWhitespace retains whitespace-only text nodes.
	KeepWhitespace bool
	// Prefilter controls the raw-byte record prefilter. PrefilterAuto (the
	// zero value) derives the query's required labels at Run time and skips
	// records whose bytes cannot contain them all — no parse, no eval —
	// falling back to a byte-identical normal parse whenever the skim is
	// unsure. PrefilterOff disables the cascade entirely; results are
	// identical either way, only Stats.Prefiltered and throughput differ.
	Prefilter PrefilterMode
	// Metrics, when non-nil, receives live instrumentation: splitter
	// counters (Metrics.Split, flushed per record by the RecordReader) and
	// per-stage timings plus worker occupancy (Metrics.Stream). Evaluation
	// counters flow through the sink attached to cq (see
	// core.CompiledQuery.SetMetrics). Timing costs two monotonic clock
	// reads per stage per record when attached and one nil check when not.
	Metrics *metrics.Metrics
	// Trace, when non-nil, receives one trace.RecordTrace per record that
	// reaches an in-order verdict — delivered, skipped, or aborting the
	// run, stream-fatal failures included; cancellation commits none for
	// the record it interrupts. Stage timings are assembled whenever Trace or
	// OnSlow is set, at the same cost as Metrics timing; splitter events
	// ride the trace of the record being produced when they fired, so
	// recovery activity for a skipped record lands on the *following*
	// record's trace (the event detail names the record it concerns).
	// Nil disables trace assembly entirely.
	Trace *trace.Tracer
	// RequestID, when non-empty, is stamped onto every RecordTrace the
	// run commits, correlating record spans with the serving-layer
	// request that caused them (the X-Request-Id contract in
	// internal/serve). Inert unless tracing is enabled.
	RequestID string
	// SlowThreshold routes records whose split+eval+deliver total meets
	// or exceeds it to OnSlow (0 disables the slow-record log).
	SlowThreshold time.Duration
	// OnSlow receives slow records' traces, on the goroutine delivering
	// results (never concurrently), after the trace is committed to Trace.
	OnSlow func(trace.RecordTrace)
	// Explain captures match provenance: each delivered Match carries a
	// Witness reconstructing the envelope evidence level by level (see
	// core.CompiledQuery.ExplainEach). Provenance allocates per match;
	// leave it off for steady-state throughput.
	Explain bool
}

// PrefilterMode selects whether the raw-byte record prefilter runs.
type PrefilterMode uint8

const (
	// PrefilterAuto enables the prefilter whenever the compiled query
	// requires at least one label (the default).
	PrefilterAuto PrefilterMode = iota
	// PrefilterOff never prefilters; every record is parsed and evaluated.
	PrefilterOff
)

// Injector is the fault-injection hook: BeforeEval runs at the start of
// each record's evaluation, inside the panic-containment scope, so an
// injected panic or stall exercises exactly the production failure path.
type Injector interface {
	BeforeEval(index int)
}

// Stats aggregates one streaming run.
type Stats struct {
	Records     int64 // records evaluated and delivered
	Nodes       int64 // total nodes across delivered records
	Matches     int64 // total located nodes
	Bytes       int64 // input bytes consumed by the XML decoder
	Skipped     int64 // failed records dropped by the OnRecordError policy
	TimedOut    int64 // records over RecordTimeout, whether skipped or aborting
	Recovered   int64 // evaluation panics caught and converted to errors
	Prefiltered int64 // records skipped by the raw-byte prefilter cascade
	// Lazy-determinization deltas over the run (zero for eagerly compiled
	// queries; approximate when several runs share one compilation).
	LazyStates    int64 // lazy-DHA states materialized during the run
	LazyHits      int64 // lazy transition-cache hits during the run
	LazyEvictions int64 // lazy transition-cache evictions during the run
}

// Match is one located node within a record.
type Match struct {
	// Query is the index (into RunMulti's query slice) of the query that
	// located this node. Always 0 for single-query Run.
	Query int
	// Path is the record-relative Dewey path (the record root is node 1).
	Path hedge.Path
	// Node is the located node; like Result.Hedge it is arena-backed and
	// valid only until the yield callback returns.
	Node *hedge.Node
	// Witness, when Config.Explain is set, is the match's provenance:
	// the envelope evidence level by level. Unlike Node it is freshly
	// allocated and safe to retain. Nil when Explain is off.
	Witness *core.Witness
}

// Result is one evaluated record.
type Result struct {
	// Index is the 0-based record sequence number.
	Index int
	// Path is the Dewey path of the record root within the input document.
	Path hedge.Path
	// Nodes is the record's node count.
	Nodes int
	// Matches lists the located nodes: document order for a single-query
	// run; for RunMulti, grouped by ascending Match.Query with document
	// order within each query's group.
	Matches []Match

	// curQuery is the query index stamped onto matches as they are
	// collected; safeEvaluate sets it before each query's traversal.
	curQuery int
	pathBuf  []int
	// collect and explain cache the bound SelectEach and ExplainEach match
	// sinks. The callbacks escape into pooled walkers on every evaluation,
	// so uncached closures would cost heap allocations per record; these
	// method values are allocated once per Result lifetime instead. reset
	// keeps them.
	collect func(p hedge.Path, n *hedge.Node) bool
	explain func(w core.Witness, n *hedge.Node) bool
	// deadline, when non-zero, is the record's evaluation deadline; the
	// sinks sample it every 64 matches (seen counts them) and set timedOut
	// when they stop the walk on it.
	deadline time.Time
	seen     int
	timedOut bool
	// fail marks a failure traveling the pipeline in place of matches:
	// a *RecordError for a contained failure the policy decides, or the
	// raw error of a stream-fatal splitter failure. route settles it at
	// the record's in-order position.
	fail error
	// await, on recoverable splitter-failure tombstones of a parallel run,
	// carries the policy verdict back to the producer, which is blocked
	// mid-recovery waiting for it.
	await chan error
	// splitNS/evalNS/events carry the read and evaluate stages' trace
	// contributions to route when tracing is on. They are not cleared by
	// reset — evaluation resets after read has already stamped them — so
	// every tracing-enabled path must set all three.
	splitNS int64
	evalNS  int64
	events  []trace.Event
}

// reset prepares a recycled Result for reuse.
func (r *Result) reset() {
	r.Matches = r.Matches[:0]
	r.pathBuf = r.pathBuf[:0]
	r.curQuery = 0
	r.deadline, r.seen, r.timedOut = time.Time{}, 0, false
	r.fail = nil
	r.await = nil
}

// addMatch copies the (reused) path into the result's backing buffer and
// appends a match for the query currently being evaluated.
func (r *Result) addMatch(p hedge.Path, n *hedge.Node) {
	start := len(r.pathBuf)
	r.pathBuf = append(r.pathBuf, p...)
	r.Matches = append(r.Matches, Match{Query: r.curQuery,
		Path: r.pathBuf[start:len(r.pathBuf):len(r.pathBuf)], Node: n})
}

// inBudget reports whether the walk may go on: always without a deadline,
// otherwise until a clock sample (one per 64 matches) finds it passed.
func (r *Result) inBudget() bool {
	if r.deadline.IsZero() {
		return true
	}
	if r.seen++; r.seen&63 == 0 && time.Now().After(r.deadline) {
		r.timedOut = true
		return false
	}
	return true
}

// collectMatch is the SelectEach match sink.
func (r *Result) collectMatch(p hedge.Path, n *hedge.Node) bool {
	r.addMatch(p, n)
	return r.inBudget()
}

// explainMatch is the ExplainEach match sink: each match carries its
// freshly allocated witness.
func (r *Result) explainMatch(w core.Witness, n *hedge.Node) bool {
	r.addMatch(w.Path, n)
	r.Matches[len(r.Matches)-1].Witness = &w
	return r.inBudget()
}

// sink returns the cached bound collectMatch, creating it on first use.
func (r *Result) sink() func(p hedge.Path, n *hedge.Node) bool {
	if r.collect == nil {
		r.collect = r.collectMatch
	}
	return r.collect
}

// explainSink returns the cached bound explainMatch, creating it on first
// use.
func (r *Result) explainSink() func(w core.Witness, n *hedge.Node) bool {
	if r.explain == nil {
		r.explain = r.explainMatch
	}
	return r.explain
}

// ErrStop, returned by a yield callback, ends the stream early with no
// error (mirroring fs.SkipAll). Recognition uses errors.Is, so a wrapped
// stop sentinel works too.
var ErrStop = errors.New("stream: stop")

// ErrRecordTimeout is the cause inside the *RecordError reported for a
// record whose evaluation exceeded Config.RecordTimeout.
var ErrRecordTimeout = errors.New("stream: record evaluation timed out")

// RecordError attributes a contained failure to one record: its index and
// Dewey path in the document, and the cause — a parse error
// (*xmlhedge.RecordParseError in Err's chain), a limit violation
// (*xmlhedge.LimitError), an evaluation panic (*PanicError), or
// ErrRecordTimeout.
type RecordError struct {
	Index int
	Path  hedge.Path
	Err   error
}

func (e *RecordError) Error() string {
	return fmt.Sprintf("stream: record %d at %s: %v", e.Index, e.Path, e.Err)
}

func (e *RecordError) Unwrap() error { return e.Err }

// PanicError is the cause inside the *RecordError reported for a record
// whose evaluation panicked: the recovered value and the stack captured at
// the panic site.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("stream: record evaluation panicked: %v", e.Value)
}

// Run streams records from r, evaluates cq on each, and calls yield once
// per record in document order. Hedge nodes referenced by the Result are
// recycled: they are valid only until yield returns. Run returns the stats
// accumulated over delivered records and the first error among: a parse or
// limit error from the splitter, an evaluation failure, a yield error
// (ErrStop is filtered to nil), or ctx cancellation — except for failures
// the cfg.OnRecordError policy chose to skip.
//
// cq must be resolved against the alphabet generation the caller wants
// before Run is entered: the compilation is shared by every worker and is
// never revalidated or recompiled per record (the facade resolves it once,
// pre-fork).
func Run(ctx context.Context, r io.Reader, cq *core.CompiledQuery, cfg Config, yield func(*Result) error) (Stats, error) {
	return runQueries(ctx, r, []*core.CompiledQuery{cq}, cfg, yield)
}

// RunMulti evaluates every query in cqs over one shared pass: the input is
// split and parsed once, and each record drives all the match automata
// instead of one scan per query. Matches carry Match.Query (the index into
// cqs); within one Result they are grouped by ascending query index, in
// document order within each group. Everything else behaves like Run —
// ordering, fault containment, budgets (Config.RecordTimeout bounds one
// record's evaluation across ALL queries, it is not a per-query budget).
//
// Under PrefilterAuto the skim runs against the union of the queries'
// required-label sets: a record is skipped whole only when no query's
// requirement set is fully present (requiring the union conjunctively
// would be unsound), and kept records carry a per-query verdict
// (xmlhedge.Record.Hint) that gates evaluation to the queries whose
// requirements the record can actually satisfy — the shared-pass scaling
// lever on selective workloads. Stats.Matches counts across all queries.
func RunMulti(ctx context.Context, r io.Reader, cqs []*core.CompiledQuery, cfg Config, yield func(*Result) error) (Stats, error) {
	if len(cqs) == 0 {
		return Stats{}, errors.New("stream: RunMulti needs at least one query")
	}
	return runQueries(ctx, r, cqs, cfg, yield)
}

func runQueries(ctx context.Context, r io.Reader, qs []*core.CompiledQuery, cfg Config, yield func(*Result) error) (Stats, error) {
	ropts := xmlhedge.RecordOptions{
		Split:          cfg.Split,
		MaxNodes:       cfg.MaxRecordNodes,
		MaxDepth:       cfg.MaxRecordDepth,
		MaxBytes:       cfg.MaxRecordBytes,
		MaxStreamBytes: cfg.MaxStreamBytes,
		KeepWhitespace: cfg.KeepWhitespace,
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &pipeline{qs: qs, cfg: cfg, yield: yield}
	if cfg.Metrics != nil {
		ropts.Metrics = &cfg.Metrics.Split
		p.ms = &cfg.Metrics.Stream
		p.ms.Runs.Inc()
		p.ms.Workers.Set(int64(workers))
		start := time.Now()
		defer func() { p.ms.WallTime.Observe(time.Since(start)) }()
	}
	if cfg.Trace != nil || cfg.OnSlow != nil {
		// Traces must be assembled: a ring to commit into, or a slow-record
		// callback to feed.
		p.sink = trace.NewEventSink()
		ropts.Events = p.sink
	}
	p.timed = p.ms != nil || p.sink.Enabled()
	if cfg.Prefilter == PrefilterAuto {
		if len(qs) == 1 {
			// NewPrefilter returns nil when the query has no required labels
			// (e.g. wildcard-only queries), which disables the cascade.
			ropts.Prefilter = xmlhedge.NewPrefilter(qs[0].RequiredLabels())
		} else {
			// One requirement group per query, indices aligned with qs, so
			// the skim verdict doubles as the per-query evaluation gate.
			groups := make([][]string, len(qs))
			for i, cq := range qs {
				groups[i] = cq.RequiredLabels()
			}
			ropts.Prefilter = xmlhedge.NewMultiPrefilter(groups)
		}
	}
	// Lazy-determinization counters live on the shared compilations; deltas
	// around the run attribute this run's share to its Stats. Repeated
	// pointers (the same compilation registered under several indices)
	// count once.
	lz0 := lazyTotals(qs)
	var err error
	if workers <= 1 {
		ropts.Ctx = ctx
		p.rr = xmlhedge.NewRecordReader(r, ropts)
		err = p.runInline(ctx)
	} else {
		err = p.runParallel(ctx, r, ropts, workers)
	}
	stats := p.stats
	stats.Bytes, stats.Prefiltered = p.rr.InputOffset(), p.rr.Prefiltered()
	lzd := lazyTotals(qs).Sub(lz0)
	stats.LazyStates = lzd.StatesBuilt
	stats.LazyHits = lzd.Hits
	stats.LazyEvictions = lzd.Evictions
	return stats, err
}

// lazyTotals sums lazy-DHA counters across distinct compilations.
func lazyTotals(qs []*core.CompiledQuery) ha.LazyStats {
	if len(qs) == 1 {
		return qs[0].LazyStats()
	}
	var total ha.LazyStats
	for i, cq := range qs {
		dup := false
		for _, prev := range qs[:i] {
			if prev == cq {
				dup = true
				break
			}
		}
		if !dup {
			total = total.Add(cq.LazyStats())
		}
	}
	return total
}

// safeEvaluate runs every live query over one parsed record with panics
// contained and the evaluation timeout enforced — the timeout budget spans
// the whole record, shared by all queries. A query whose verdict bit in
// rec.Hint is clear is provably matchless here (the prefilter found a
// required label absent) and is skipped without touching its automaton. A
// non-nil return is always a *RecordError; on success res holds the
// matches, grouped by query index.
func safeEvaluate(qs []*core.CompiledQuery, rec *xmlhedge.Record, res *Result, cfg *Config) (fail *RecordError) {
	defer func() {
		if v := recover(); v != nil {
			fail = &RecordError{Index: rec.Index, Path: rec.Path,
				Err: &PanicError{Value: v, Stack: debug.Stack()}}
		}
	}()
	res.reset()
	res.Index, res.Path, res.Nodes = rec.Index, rec.Path, rec.Nodes
	timeout := cfg.RecordTimeout
	var start time.Time
	if timeout > 0 {
		// Cooperative deadline: sampled every 64 matches during a traversal
		// (Algorithm 1 is linear and terminating — the budget targets slow
		// records, not infinite loops), between queries, and once more at
		// the end. The clock starts before the injection point, so injected
		// stalls count against the budget.
		start = time.Now()
		res.deadline = start.Add(timeout)
	}
	if cfg.Inject != nil {
		cfg.Inject.BeforeEval(rec.Index)
	}
	for qi, cq := range qs {
		if !rec.Hint.Allows(qi) {
			continue
		}
		if timeout > 0 && time.Now().After(res.deadline) {
			res.timedOut = true
			break
		}
		res.curQuery = qi
		if cfg.Explain {
			// Provenance capture: ExplainEach locates exactly what
			// SelectEach does, with each match carrying its witness.
			cq.ExplainEach(rec.Hedge, res.explainSink())
		} else {
			cq.SelectEach(rec.Hedge, res.sink())
		}
		if res.timedOut {
			break
		}
	}
	if timeout > 0 && (res.timedOut || time.Since(start) > timeout) {
		return &RecordError{Index: rec.Index, Path: rec.Path, Err: ErrRecordTimeout}
	}
	return nil
}

// recordFailure attributes a record-scoped splitter failure to its record,
// pulling index and path out of the typed error when present (limit
// violations and in-record parse errors carry them; truncations fall back
// to the reader's next index).
func recordFailure(rr *xmlhedge.RecordReader, err error) *RecordError {
	fail := &RecordError{Index: rr.NextIndex(), Err: err}
	var le *xmlhedge.LimitError
	var pe *xmlhedge.RecordParseError
	switch {
	case errors.As(err, &le):
		fail.Index, fail.Path = le.Record, le.Path
	case errors.As(err, &pe):
		fail.Index, fail.Path = pe.Index, pe.Path
	}
	return fail
}

// pipeline is one run's three stage functions and the state they share:
// read fills a batch slot from the splitter, evaluate runs the queries on
// it, and route settles each slot in document order. At one worker the
// caller's goroutine calls them back to back (runInline); otherwise the
// producer, worker, and collector goroutines of runParallel wrap the same
// functions, so both shapes apply the policy, count, trace, and deliver
// through one routine.
type pipeline struct {
	rr    *xmlhedge.RecordReader
	qs    []*core.CompiledQuery
	cfg   Config
	ms    *metrics.Stream  // nil: no metrics sink
	sink  *trace.EventSink // nil: tracing off
	timed bool             // stage clocks run (metrics or tracing)
	yield func(*Result) error
	stats Stats // written by route only
}

// read is the split stage. It fills slot it with the next record, parsed
// into arena, or with a tombstone for a splitter failure: fail carries a
// *RecordError when the policy may skip the record, and the raw error
// when the failure is stream-fatal (no policy, or a failure Recover cannot
// resume past — reader I/O, the stream byte budget, malformed markup with
// no named split). It returns io.EOF at the end of input and ctx's error
// once ctx is done, leaving the slot unfilled.
func (p *pipeline) read(ctx context.Context, arena *xmlhedge.Arena, it *batchItem) error {
	var t0 time.Time
	if p.timed {
		t0 = time.Now()
	}
	rec, err := p.rr.Read(arena)
	var splitNS int64
	if p.timed {
		d := time.Since(t0)
		splitNS = int64(d)
		if p.ms != nil {
			p.ms.SplitTime.Observe(d)
		}
	}
	r := &it.res
	switch {
	case err == nil:
		it.rec = rec
		// fail/await must be cleared here: evaluate's tombstone check reads
		// them before safeEvaluate's reset runs.
		r.fail, r.await = nil, nil
	case err == io.EOF:
		return err
	case ctx.Err() != nil:
		return ctx.Err()
	default:
		fail := recordFailure(p.rr, err)
		r.reset()
		r.Index, r.Path, r.Nodes = fail.Index, fail.Path, 0
		if p.cfg.OnRecordError != nil && p.rr.CanRecover() {
			r.fail = fail
		} else {
			r.fail = err
		}
	}
	r.splitNS, r.evalNS, r.events = splitNS, 0, p.sink.Drain()
	return nil
}

// evaluate is the eval stage: it runs the queries over a healthy slot,
// leaving a contained failure (always a *RecordError) in its fail.
// Tombstones pass through. Safe to call from several goroutines on
// distinct slots.
func (p *pipeline) evaluate(it *batchItem) {
	r := &it.res
	if r.fail != nil {
		return
	}
	var t0 time.Time
	if p.timed {
		t0 = time.Now()
	}
	if fail := safeEvaluate(p.qs, &it.rec, r, &p.cfg); fail != nil {
		r.fail = fail
	}
	if p.timed {
		d := time.Since(t0)
		r.evalNS = int64(d)
		if p.ms != nil {
			p.ms.EvalTime.Observe(d)
			p.ms.RecordLatency.Observe(d)
		}
	}
}

// route is the delivery stage, called in document order from one
// goroutine: the only place OnRecordError is consulted, Stats and the
// record-outcome counters move, traces are committed, and yield runs — so
// the policy and OnSlow are never invoked concurrently. A failure is
// skipped or aborts the run; a healthy record is delivered. route reports
// whether the run ends at this slot and with which error (nil when yield
// returned ErrStop). Stream-fatal tombstones abort without consulting the
// policy.
func (p *pipeline) route(r *Result) (bool, error) {
	ms := p.ms
	if r.fail != nil {
		verdict := r.fail
		if rerr, contained := r.fail.(*RecordError); contained {
			if _, isPanic := rerr.Err.(*PanicError); isPanic {
				p.stats.Recovered++
				if ms != nil {
					ms.PanicsRecovered.Inc()
				}
			}
			if errors.Is(rerr.Err, ErrRecordTimeout) {
				p.stats.TimedOut++
				if ms != nil {
					ms.RecordsTimedOut.Inc()
				}
			}
			if pol := p.cfg.OnRecordError; pol != nil {
				verdict = pol(rerr)
			}
		}
		if verdict != nil {
			p.commit(r, "aborted", verdict, 0)
			return true, verdict
		}
		p.stats.Skipped++
		if ms != nil {
			ms.RecordsSkipped.Inc()
		}
		p.commit(r, "skipped", r.fail, 0)
		return false, nil
	}
	p.stats.Records++
	p.stats.Nodes += int64(r.Nodes)
	p.stats.Matches += int64(len(r.Matches))
	var t0 time.Time
	if p.timed {
		t0 = time.Now()
	}
	err := p.yield(r)
	var deliverNS int64
	if p.timed {
		d := time.Since(t0)
		deliverNS = int64(d)
		if ms != nil {
			ms.DeliverTime.Observe(d)
		}
	}
	p.commit(r, "ok", nil, deliverNS)
	if err != nil {
		if errors.Is(err, ErrStop) {
			return true, nil
		}
		return true, err
	}
	return false, nil
}

// commit assembles a verdict-bearing record's trace from the contributions
// read and evaluate stamped on the Result, stores it in the flight-recorder
// ring, and routes it to the slow-record callback when it crossed the
// threshold. Commits happen in route only, so the ring sees records in
// delivery order.
func (p *pipeline) commit(r *Result, outcome string, cause error, deliverNS int64) {
	if !p.sink.Enabled() {
		return
	}
	rt := trace.RecordTrace{Index: r.Index, Path: r.Path.String(),
		SplitNS: r.splitNS, EvalNS: r.evalNS, DeliverNS: deliverNS,
		Nodes: r.Nodes, Matches: len(r.Matches), Outcome: outcome,
		Events: r.events, RequestID: p.cfg.RequestID}
	r.events = nil
	if cause != nil {
		rt.Error = cause.Error()
	}
	rt.TotalNS = rt.SplitNS + rt.EvalNS + rt.DeliverNS
	p.cfg.Trace.Commit(rt)
	if p.cfg.OnSlow != nil && p.cfg.SlowThreshold > 0 && rt.TotalNS >= int64(p.cfg.SlowThreshold) {
		p.cfg.OnSlow(rt)
	}
}

// runInline is the one-worker pipeline: the caller's goroutine reads,
// evaluates, and routes one record at a time — no goroutines, no channels,
// no batching (a match is delivered as soon as its record is evaluated),
// and no allocation per record.
func (p *pipeline) runInline(ctx context.Context) error {
	// The arena and Result ride in a pooled single-item batch so
	// back-to-back runs reuse warm storage: one short stream never
	// amortizes cold chunk growth on its own.
	b := getBatch(1)
	defer batchPool.Put(b)
	it := &b.items[0]
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		b.arena.Reset()
		if err := p.read(ctx, &b.arena, it); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		tombstone := it.res.fail != nil
		p.evaluate(it)
		if done, err := p.route(&it.res); done {
			return err
		}
		if tombstone {
			// The policy skipped a splitter failure: resume past it. A
			// failed Recover stays sticky in the reader, so the next read
			// turns it into a stream-fatal tombstone.
			_ = p.rr.Recover()
		}
	}
}

// defaultBatchSize is the auto records-per-handoff for parallel runs: big
// enough to amortize a channel exchange and a scheduler wakeup over many
// records, small enough that a batch of typical records stays cache- and
// memory-friendly.
const defaultBatchSize = 32

// batchItem is one record's slot in a batch: the parsed record and its
// evaluation result, both recycled with the batch.
type batchItem struct {
	rec xmlhedge.Record
	res Result
}

// batch is the unit of producer→worker→collector handoff: up to cap
// records parsed into the batch's own arena, sequence-numbered for the
// reorder ring. Batches are recycled through a free list, so a warm run
// allocates nothing per handoff.
type batch struct {
	seq   int
	n     int // items in use
	items []batchItem
	arena xmlhedge.Arena
}

// batchPool recycles batches across runs so short streams still evaluate
// into warm arenas: one Run sees only a handful of batches, far too few to
// amortize cold chunk and child-slice growth within the run itself.
var batchPool = sync.Pool{New: func() any { return new(batch) }}

// getBatch takes a pooled batch sized for batchSize items. items is
// allocated at full capacity once and never grown, so &items[i] pointers
// taken during fill and eval stay valid.
func getBatch(batchSize int) *batch {
	b := batchPool.Get().(*batch)
	if cap(b.items) < batchSize {
		b.items = make([]batchItem, batchSize)
	}
	b.items = b.items[:batchSize]
	return b
}

// runParallel wraps the stage functions in goroutines: a producer calls
// read to fill batches, a bounded worker pool calls evaluate on them, and
// this goroutine — the collector — reorders finished batches and calls
// route on each slot in document order. Batch objects (workers+2 of them,
// each owning one arena) are the memory bound: the producer blocks until a
// delivered batch is recycled. Workers publish finished batches into a
// sequence-indexed reorder ring with a non-blocking wakeup, so delivery
// order costs no per-record channel exchange and workers never block on a
// slow collector.
//
// A tombstone closes out its batch, so in-order delivery never stalls on
// the failed index. After a recoverable one the producer blocks on the
// tombstone's await channel for route's verdict — recovery rewires the
// reader's state, so the producer cannot run ahead of the decision. After
// a stream-fatal one it stops reading; route aborts the run when it
// reaches the slot.
func (p *pipeline) runParallel(ctx context.Context, r io.Reader, ropts xmlhedge.RecordOptions, workers int) error {
	ictx, cancel := context.WithCancel(ctx)
	defer cancel()
	// The splitter polls the internal context, so cancellation (external or
	// failure-induced) interrupts even a mid-record read.
	ropts.Ctx = ictx
	p.rr = xmlhedge.NewRecordReader(r, ropts)
	batchSize := p.cfg.BatchSize
	if batchSize <= 0 {
		batchSize = defaultBatchSize
	}

	nBatches := workers + 2
	free := make(chan *batch, nBatches)
	for i := 0; i < nBatches; i++ {
		free <- getBatch(batchSize)
	}
	jobs := make(chan *batch, nBatches)
	// Reorder ring: slot seq&ringMask holds the finished batch with that
	// sequence number. In-order recycling bounds the in-flight sequence
	// span to nBatches, and the ring is the next power of two above it, so
	// two live batches never share a slot.
	ringSize := 1
	for ringSize <= nBatches {
		ringSize <<= 1
	}
	ringMask := ringSize - 1
	ring := make([]atomic.Pointer[batch], ringSize)
	kick := make(chan struct{}, 1) // non-blocking wakeup: ring slot filled

	// Producer: fill batches of records into recycled batch arenas. It is
	// the reader's only user; prodDone orders its last use before the
	// caller reads the reader's final offsets.
	prodDone := make(chan struct{})
	go pprof.Do(ictx, pprof.Labels("xpe.stage", "stream-split"), func(ictx context.Context) {
		defer close(prodDone)
		defer close(jobs)
		verdict := make(chan error, 1) // reused: at most one tombstone is outstanding
		seq := 0
		// flush hands the batch to the workers; jobs' capacity equals the
		// total batch count, so the send cannot block.
		flush := func(b *batch) {
			b.seq = seq
			seq++
			jobs <- b
		}
		for {
			var b *batch
			select {
			case b = <-free:
			case <-ictx.Done():
				return
			}
			b.arena.Reset()
			b.n = 0
			for b.n < batchSize {
				it := &b.items[b.n]
				if err := p.read(ictx, &b.arena, it); err != nil {
					// EOF: ship what the batch holds and end the stream.
					// Cancellation: the run's outcome is decided elsewhere;
					// the partial batch is abandoned.
					if err == io.EOF && b.n > 0 {
						flush(b)
					} else {
						free <- b // cap nBatches: never blocks
					}
					return
				}
				b.n++
				if it.res.fail == nil {
					continue
				}
				_, recoverable := it.res.fail.(*RecordError)
				if recoverable {
					it.res.await = verdict
				}
				flush(b)
				if !recoverable {
					return
				}
				select {
				case d := <-verdict:
					if d != nil {
						return // route aborted the run with the policy's error
					}
				case <-ictx.Done():
					return
				}
				// A failed Recover stays sticky in the reader: the next
				// read turns it into a stream-fatal tombstone.
				_ = p.rr.Recover()
				b = nil
				break // batch flushed with the tombstone; start a fresh one
			}
			if b != nil {
				flush(b)
			}
		}
	})

	// Workers: evaluate batches; the mirror automaton and arenas inside cq
	// are concurrency-safe (locked / pooled). All stage-timer updates are
	// atomic (metrics.Timer), so concurrent flushes from workers and
	// snapshot reads race-cleanly. A panicking evaluation is contained in
	// safeEvaluate, so a worker goroutine never dies. Publishing is a ring
	// store plus an optional buffered wakeup — never a blocking send — so
	// workers drain jobs even when the collector has stopped consuming.
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go pprof.Do(ictx, pprof.Labels("xpe.stage", "stream-eval", "xpe.worker", strconv.Itoa(w)), func(context.Context) {
			defer wg.Done()
			for b := range jobs {
				for i := 0; i < b.n; i++ {
					p.evaluate(&b.items[i])
				}
				ring[b.seq&ringMask].Store(b)
				select {
				case kick <- struct{}{}:
				default:
				}
			}
		})
	}
	workersDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(workersDone)
	}()

	// Collector (this goroutine): consume the ring in sequence order and
	// route each slot. Once the run has ended, everything still in flight
	// is drained undelivered; a producer blocked on a tombstone is released
	// by the cancellation, not by an answer.
	var runErr error
	ended := false
	next := 0
	for {
		b := ring[next&ringMask].Load()
		if b == nil {
			select {
			case <-kick:
			case <-workersDone:
				if ring[next&ringMask].Load() == nil {
					// All workers exited and the next slot is still empty:
					// no batch with this sequence number is coming.
					goto drained
				}
			}
			continue
		}
		ring[next&ringMask].Store(nil)
		next++
		for i := 0; i < b.n && !ended; i++ {
			res := &b.items[i].res
			done, err := p.route(res)
			if res.await != nil {
				res.await <- err // nil: skipped, resume reading
				res.await = nil
			}
			if done {
				runErr, ended = err, true
				cancel()
			}
		}
		// Recycle: free's capacity equals the total batch count, so the
		// send cannot block even after the producer has exited.
		free <- b
	}
drained:
	// Workers exit only after jobs closes or cancellation fires; either way
	// the producer is on its way out, so this wait is bounded.
	<-prodDone
	// Return idle batches to the pool for the next run. Batches the
	// producer abandoned mid-cancellation are simply garbage-collected.
	for drainedFree := false; !drainedFree; {
		select {
		case b := <-free:
			batchPool.Put(b)
		default:
			drainedFree = true
		}
	}
	if runErr == nil {
		runErr = ctx.Err()
	}
	return runErr
}
