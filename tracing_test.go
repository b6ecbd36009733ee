package xpe

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"xpe/internal/faultinject"
)

// TestQueryExplainGolden pins the provenance surface end to end: the
// documented query/document pair from the README, the witness states and
// Dewey path, and the exact text rendering. The automaton states are
// stable for one compilation (fresh engine, fixed intern order), which is
// what this test constructs.
func TestQueryExplainGolden(t *testing.T) {
	eng := NewEngine()
	doc, err := eng.ParseTerm("doc<sec<sec<fig>>>")
	if err != nil {
		t.Fatal(err)
	}
	q, err := eng.CompileQuery("fig sec* [* ; doc ; *]")
	if err != nil {
		t.Fatal(err)
	}
	exps := q.Explain(doc)
	if len(exps) != 1 {
		t.Fatalf("explained %d matches, want 1", len(exps))
	}
	ex := exps[0]
	if ex.Path != "1.1.1.1" || ex.Subhedge {
		t.Fatalf("explanation = %+v, want path 1.1.1.1 without a subhedge condition", ex)
	}
	wantElems := []string{"doc", "sec", "sec", "fig"}
	wantFired := []string{"doc", "sec", "sec", "fig"}
	wantStates := []int{1, 2, 2, 3}
	if len(ex.Steps) != len(wantElems) {
		t.Fatalf("steps = %+v, want %d levels", ex.Steps, len(wantElems))
	}
	for i, st := range ex.Steps {
		if st.Element != wantElems[i] || st.Fired != wantFired[i] || st.State != wantStates[i] {
			t.Errorf("step %d = %+v, want element %s state %d fired %s",
				i, st, wantElems[i], wantStates[i], wantFired[i])
		}
		found := false
		for _, c := range st.Candidates {
			if c == st.Fired {
				found = true
			}
		}
		if !found {
			t.Errorf("step %d: fired base %q not among candidates %v", i, st.Fired, st.Candidates)
		}
	}

	const wantText = `1.1.1.1 matches "fig sec* [* ; doc ; *]"
  doc        state 1   fired doc
  sec        state 2   fired sec
  sec        state 2   fired sec
  fig        state 3   fired fig
`
	if got := ex.String(); got != wantText {
		t.Errorf("text rendering:\n--- got ---\n%s--- want ---\n%s", got, wantText)
	}

	// The JSON encoding is stable: fixed field order, round-trippable.
	js, err := ex.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(js, "{\n  \"query\":") {
		t.Errorf("JSON does not lead with the query field:\n%s", js)
	}
	var back Explanation
	if err := json.Unmarshal([]byte(js), &back); err != nil {
		t.Fatalf("JSON does not round-trip: %v", err)
	}
	if back.Path != ex.Path || len(back.Steps) != len(ex.Steps) || back.Steps[3].Fired != "fig" {
		t.Errorf("round-tripped explanation = %+v, want %+v", back, ex)
	}

	// Explain locates exactly what Select locates.
	if matches := q.Select(doc); len(matches) != 1 || matches[0].Path != ex.Path {
		t.Errorf("Select = %+v, disagrees with Explain path %s", matches, ex.Path)
	}
}

// streamCorpus is a two-record document where the query "fig sec*"
// locates the first child of each <sec> record.
const streamCorpus = "<doc><sec><fig/><tab/></sec><sec><fig/></sec></doc>"

func streamEngine(t *testing.T) (*Engine, *Query) {
	t.Helper()
	eng := NewEngine()
	if _, err := eng.ParseXMLString(streamCorpus); err != nil {
		t.Fatal(err)
	}
	q, err := eng.CompileQuery("fig sec*")
	if err != nil {
		t.Fatal(err)
	}
	return eng, q
}

func TestSelectStreamExplain(t *testing.T) {
	eng, q := streamEngine(t)
	for _, workers := range []int{1, 4} {
		var exps []*Explanation
		_, err := eng.SelectStream(context.Background(), strings.NewReader(streamCorpus), q,
			SelectOptions{Workers: workers, Explain: true},
			func(m StreamMatch) error {
				if m.Explanation == nil {
					t.Fatalf("workers=%d: match %s has no explanation", workers, m.Path)
				}
				if m.Explanation.Path != m.Path {
					t.Fatalf("workers=%d: explanation path %s, match path %s",
						workers, m.Explanation.Path, m.Path)
				}
				exps = append(exps, m.Explanation)
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		if len(exps) != 2 {
			t.Fatalf("workers=%d: %d explanations, want 2", workers, len(exps))
		}
		for i, ex := range exps {
			if len(ex.Steps) != 2 || ex.Steps[0].Element != "sec" || ex.Steps[1].Element != "fig" {
				t.Errorf("workers=%d: explanation %d steps = %+v, want sec/fig", workers, i, ex.Steps)
			}
			if ex.Query != "fig sec*" {
				t.Errorf("workers=%d: explanation %d query = %q", workers, i, ex.Query)
			}
		}
	}
}

func TestSelectStreamTrace(t *testing.T) {
	eng, q := streamEngine(t)
	for _, workers := range []int{1, 4} {
		fr := NewFlightRecorder(16)
		stats, err := eng.SelectStream(context.Background(), strings.NewReader(streamCorpus), q,
			SelectOptions{Workers: workers, Trace: fr},
			func(StreamMatch) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		traces := fr.Traces()
		if int64(len(traces)) != stats.Records || fr.Total() != stats.Records {
			t.Fatalf("workers=%d: %d traces for %d records", workers, len(traces), stats.Records)
		}
		for i, rt := range traces {
			if rt.Index != i || rt.Outcome != "ok" {
				t.Errorf("workers=%d: trace %d = %+v, want in-order ok", workers, i, rt)
			}
			if rt.TotalNS != rt.SplitNS+rt.EvalNS+rt.DeliverNS || rt.TotalNS <= 0 {
				t.Errorf("workers=%d: trace %d spans not closed: %+v", workers, i, rt)
			}
		}
	}
}

// TestSelectStreamRequestID pins the correlation contract: a RequestID
// set on the options is stamped onto every committed trace (at one worker
// and at several) and onto slow-record routing.
func TestSelectStreamRequestID(t *testing.T) {
	eng, q := streamEngine(t)
	for _, workers := range []int{1, 4} {
		fr := NewFlightRecorder(16)
		var slow []RecordTrace
		stats, err := eng.SelectStream(context.Background(), strings.NewReader(streamCorpus), q,
			SelectOptions{
				Workers:             workers,
				Trace:               fr,
				RequestID:           "req-abc123",
				SlowRecordThreshold: time.Nanosecond,
				OnSlowRecord:        func(rt RecordTrace) { slow = append(slow, rt) },
			},
			func(StreamMatch) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		traces := fr.Traces()
		if int64(len(traces)) != stats.Records {
			t.Fatalf("workers=%d: %d traces for %d records", workers, len(traces), stats.Records)
		}
		for i, rt := range traces {
			if rt.RequestID != "req-abc123" {
				t.Errorf("workers=%d: trace %d request id %q, want req-abc123", workers, i, rt.RequestID)
			}
		}
		for i, rt := range slow {
			if rt.RequestID != "req-abc123" {
				t.Errorf("workers=%d: slow trace %d request id %q, want req-abc123", workers, i, rt.RequestID)
			}
		}
	}
}

func TestSelectStreamSlowRecordCallback(t *testing.T) {
	eng, q := streamEngine(t)
	var slow []RecordTrace
	stats, err := eng.SelectStream(context.Background(), strings.NewReader(streamCorpus), q,
		SelectOptions{
			SlowRecordThreshold: time.Nanosecond,
			OnSlowRecord:        func(rt RecordTrace) { slow = append(slow, rt) },
		},
		func(StreamMatch) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(slow)) != stats.Records {
		t.Fatalf("%d slow records routed, want all %d", len(slow), stats.Records)
	}
}

func TestChaosFacadeTimedOutStats(t *testing.T) {
	spec := faultinject.FeedSpec{Records: 8}
	eng := NewEngine()
	if _, err := eng.ParseXMLString("<feed><rec><id>0</id><a/><b/></rec></feed>"); err != nil {
		t.Fatal(err)
	}
	q, err := eng.CompileQuery("[* ; a ; b .] rec")
	if err != nil {
		t.Fatal(err)
	}
	opts := SelectOptions{
		SplitElement:  "rec",
		RecordTimeout: 10 * time.Millisecond,
		OnError:       Skip,
	}
	opts.inject = faultinject.NewEvalFaults().StallOn(60*time.Millisecond, 2)
	stats, err := eng.SelectStream(context.Background(), spec.Reader(), q, opts,
		func(StreamMatch) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if stats.TimedOut != 1 || stats.Skipped != 1 {
		t.Fatalf("stats = %+v, want 1 timed out among 1 skipped", stats)
	}
}

// TestEngineFlightRecorder covers the engine-wide recorder: in-memory
// evaluations commit doc traces (Index -1), streaming runs without a
// per-run ring fall back to it, and a per-run ring takes precedence.
func TestEngineFlightRecorder(t *testing.T) {
	eng, q := streamEngine(t)
	rec := NewFlightRecorder(16)
	eng.SetFlightRecorder(rec)
	if eng.FlightRecorder() != rec {
		t.Fatal("recorder not attached")
	}

	doc, err := eng.ParseXMLString(streamCorpus)
	if err != nil {
		t.Fatal(err)
	}
	// The streaming query ranges over sec records; the in-memory document
	// needs the doc root admitted too.
	docQ, err := eng.CompileQuery("fig sec* doc*")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(docQ.Select(doc)); n != 2 {
		t.Fatalf("located %d, want 2", n)
	}
	traces := rec.Traces()
	if len(traces) != 1 {
		t.Fatalf("doc eval committed %d traces, want 1", len(traces))
	}
	if rt := traces[0]; rt.Index != -1 || rt.Query != "fig sec* doc*" || rt.Matches != 2 || rt.Outcome != "ok" {
		t.Fatalf("doc trace = %+v, want Index -1 for the query with 2 matches", rt)
	}

	stats, err := eng.SelectStream(context.Background(), strings.NewReader(streamCorpus), q,
		SelectOptions{}, func(StreamMatch) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if rec.Total() != 1+stats.Records {
		t.Fatalf("engine recorder holds %d traces after the stream, want %d", rec.Total(), 1+stats.Records)
	}

	// A per-run ring wins over the engine-wide one.
	perRun := NewFlightRecorder(8)
	before := rec.Total()
	stats, err = eng.SelectStream(context.Background(), strings.NewReader(streamCorpus), q,
		SelectOptions{Trace: perRun}, func(StreamMatch) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if perRun.Total() != stats.Records {
		t.Fatalf("per-run recorder holds %d traces, want %d", perRun.Total(), stats.Records)
	}
	if rec.Total() != before {
		t.Fatalf("engine recorder grew by %d during a per-run-traced stream", rec.Total()-before)
	}

	// Detaching stops doc-eval commits; evaluation still works.
	eng.SetFlightRecorder(nil)
	if n := len(docQ.Select(doc)); n != 2 {
		t.Fatalf("located %d after detach, want 2", n)
	}
	if rec.Total() != before {
		t.Fatalf("detached recorder grew to %d", rec.Total())
	}
}
