package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"time"

	"xpe"
	"xpe/internal/core"
	"xpe/internal/ha"
	"xpe/internal/hedge"
	"xpe/internal/stream"
	"xpe/internal/xmlhedge"
)

// neverLabel is a required label no post contains, so a prefilter on it
// skips every record: its Read loop measures the skim alone.
const neverLabel = "servebenchNeverOccurs"

// layerKit holds what the in-process layer rounds call into, built once
// before timing.
type layerKit struct {
	w      *workload
	cqs    []*core.CompiledQuery // eager, one shared alphabet, as the server compiles
	eng    *xpe.Engine
	xqs    []*xpe.Query
	never  *xmlhedge.Prefilter
	multi  *xmlhedge.Prefilter // the workload's own union prefilter
	recs   [][]hedge.Hedge     // per post: its records, pre-read into plain memory
	extent [][]int64           // per post: each record's input byte span
	arena  xmlhedge.Arena
}

// layerTotals accumulates what the rounds measured, beside their spans.
type layerTotals struct {
	posts, bytes           int64
	records, splitAllocs   int64
	recordBytes, keptBytes int64
	prefiltered, seen      int64
	evalNodes, matches     int64
	failed                 int
	firstErr               error
}

func newLayerKit(w *workload) (*layerKit, error) {
	k := &layerKit{w: w, eng: xpe.NewEngine(), never: xmlhedge.NewPrefilter([]string{neverLabel})}
	names := ha.NewNames()
	groups := make([][]string, len(w.regs))
	for i, r := range w.regs {
		q, err := core.ParseQuery(r.Query)
		if err != nil {
			return nil, err
		}
		cq, err := core.CompileQueryOpt(q, names, core.Options{})
		if err != nil {
			return nil, err
		}
		k.cqs = append(k.cqs, cq)
		groups[i] = cq.RequiredLabels()
		xq, err := k.eng.CompileQuery(r.Query)
		if err != nil {
			return nil, err
		}
		k.xqs = append(k.xqs, xq)
	}
	k.multi = xmlhedge.NewMultiPrefilter(groups)
	for _, p := range w.posts {
		rr := xmlhedge.NewRecordReader(bytes.NewReader(p.body), xmlhedge.RecordOptions{Split: w.split})
		var recs []hedge.Hedge
		var ext []int64
		for {
			before := rr.InputOffset()
			rec, err := rr.Read(nil)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return nil, fmt.Errorf("pre-read: %w", err)
			}
			recs, ext = append(recs, rec.Hedge), append(ext, rr.InputOffset()-before)
		}
		if len(recs) != p.records {
			return nil, fmt.Errorf("pre-read %d records, oracle counts %d", len(recs), p.records)
		}
		k.recs, k.extent = append(k.recs, recs), append(k.extent, ext)
	}
	return k, nil
}

// round calls every layer once per post, each call in its own span under
// the post's root span, and checks each layer's match count against the
// oracle.
func (k *layerKit) round(ctx context.Context, n int, rec *recorder, t *layerTotals) {
	for i, p := range k.w.posts {
		req := fmt.Sprintf("round%d-post%d", n, i)
		root := rec.begin("bench.post", req, 0)
		if err := k.post(ctx, i, p, req, root, rec, t); err != nil {
			t.failed++
			if t.firstErr == nil {
				t.firstErr = fmt.Errorf("%s: %w", req, err)
			}
		}
		rec.finish(root)
		t.posts++
		t.bytes += int64(len(p.body))
	}
}

func (k *layerKit) post(ctx context.Context, i int, p *post, req string, root int, rec *recorder, t *layerTotals) error {
	split := k.w.split
	want := int64(len(p.want))

	// Split: tokenize and build every record into the recycled arena,
	// prefilter off.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	sp := rec.begin("xmlhedge.split", req, root)
	records, _, err := k.readAll(p.body, xmlhedge.RecordOptions{Split: split}, nil)
	rec.finish(sp)
	runtime.ReadMemStats(&ms)
	t.splitAllocs += int64(ms.Mallocs - mallocs)
	t.records += int64(records)
	if err != nil {
		return err
	}

	// Skim: a prefilter no record satisfies, so every record is skimmed
	// and skipped.
	sp = rec.begin("xmlhedge.skim", req, root)
	kept, pf, err := k.readAll(p.body, xmlhedge.RecordOptions{Split: split, Prefilter: k.never}, nil)
	rec.finish(sp)
	if err != nil {
		return err
	}
	if kept != 0 || pf != int64(p.records) {
		return fmt.Errorf("never-label skim kept %d and skipped %d of %d records", kept, pf, p.records)
	}

	// The workload's own union prefilter: skim every record, parse the
	// kept ones.
	var keptIdx []int
	sp = rec.begin("xmlhedge.multiskim", req, root)
	kept, pf, err = k.readAll(p.body, xmlhedge.RecordOptions{Split: split, Prefilter: k.multi}, &keptIdx)
	rec.finish(sp)
	if err != nil {
		return err
	}
	t.prefiltered += pf
	t.seen += int64(kept) + pf
	for _, n := range k.extent[i] {
		t.recordBytes += n
	}
	for _, ri := range keptIdx {
		t.keptBytes += k.extent[i][ri]
	}

	// Algorithm 1, both passes, every query over every pre-read record.
	var matches int64
	sp = rec.begin("core.eval", req, root)
	for _, cq := range k.cqs {
		for _, h := range k.recs[i] {
			cq.SelectEach(h, func(hedge.Path, *hedge.Node) bool {
				matches++
				return true
			})
		}
	}
	rec.finish(sp)
	for _, h := range k.recs[i] {
		t.evalNodes += int64(h.Size() * len(k.cqs))
	}
	if matches != want {
		return fmt.Errorf("core.eval found %d matches, oracle expects %d", matches, want)
	}

	// The shared-pass pipeline with a no-op consumer.
	cfg := stream.Config{Split: split, Workers: k.w.workers}
	sp = rec.begin("stream.run", req, root)
	st, err := stream.RunMulti(ctx, bytes.NewReader(p.body), k.cqs, cfg, func(*stream.Result) error { return nil })
	rec.finish(sp)
	if err != nil {
		return err
	}
	if st.Matches != want {
		return fmt.Errorf("stream.RunMulti found %d matches, oracle expects %d", st.Matches, want)
	}

	// The facade, which adds path and term formatting per match.
	opts := xpe.SelectOptions{SplitElement: split, Workers: k.w.workers, OnError: xpe.Skip}
	sp = rec.begin("xpe.deliver", req, root)
	xst, err := k.eng.SelectStreamMulti(ctx, bytes.NewReader(p.body), k.xqs, opts,
		func(xpe.MultiStreamMatch) error { return nil })
	rec.finish(sp)
	if err != nil {
		return err
	}
	if xst.Matches != want {
		return fmt.Errorf("SelectStreamMulti found %d matches, oracle expects %d", xst.Matches, want)
	}
	t.matches += want
	return nil
}

// readAll runs a RecordReader over body to the end, recycling k's arena
// per record. It returns the records read and the records the prefilter
// skipped; keptIdx, when non-nil, receives the indices of records read.
func (k *layerKit) readAll(body []byte, opts xmlhedge.RecordOptions, keptIdx *[]int) (int, int64, error) {
	rr := xmlhedge.NewRecordReader(bytes.NewReader(body), opts)
	n := 0
	for {
		k.arena.Reset()
		rec, err := rr.Read(&k.arena)
		if errors.Is(err, io.EOF) {
			return n, rr.Prefiltered(), nil
		}
		if err != nil {
			return n, rr.Prefiltered(), err
		}
		n++
		if keptIdx != nil {
			*keptIdx = append(*keptIdx, rec.Index)
		}
	}
}

// maxCompiles caps the compile spans a traced run keeps; the cheap
// registered queries of the non-churn workloads would otherwise fill the
// span file with tens of thousands.
const maxCompiles = 2000

// compileRound times core.CompileQueryOpt, one span per source, until d
// has passed (at least once) or maxCompiles compiles were timed. The churn workload compiles its churn
// sources against one growing alphabet, as the server does; the others
// compile their registered queries cold, each round on a fresh alphabet.
func compileRound(w *workload, d time.Duration, rec *recorder) ([]time.Duration, error) {
	var out []time.Duration
	deadline := time.Now().Add(d)
	names := ha.NewNames()
	var churn *churnGen
	if w.churn {
		churn = newChurnGen(w.seed)
	}
	for n := 0; len(out) == 0 || (time.Now().Before(deadline) && len(out) < maxCompiles); n++ {
		var srcs []string
		if churn != nil {
			r, ok := churn.next()
			if !ok {
				break
			}
			srcs = []string{r.Query}
		} else {
			names = ha.NewNames()
			for _, r := range w.regs {
				srcs = append(srcs, r.Query)
			}
		}
		for _, src := range srcs {
			q, err := core.ParseQuery(src)
			if err != nil {
				return nil, err
			}
			start := time.Now()
			_, err = core.CompileQueryOpt(q, names, core.Options{})
			end := time.Now()
			if err != nil {
				return nil, fmt.Errorf("compile %q: %w", src, err)
			}
			rec.add("core.compile", fmt.Sprintf("compile%d", n), 0, start, end)
			out = append(out, end.Sub(start))
		}
	}
	return out, nil
}
