package stream

import (
	"context"
	"strings"
	"testing"

	"xpe/internal/ha"
	"xpe/internal/metrics"
)

// TestRunMetricsAccounting: one streaming run flushes consistent splitter
// and stage metrics at one worker (inline) and at several (goroutines).
func TestRunMetricsAccounting(t *testing.T) {
	for _, workers := range []int{1, 3} {
		names := ha.NewNames()
		cq := compile(t, names, "[* ; a ; b .] (entry|feed)*")
		reg := &metrics.Metrics{}
		input := feed(40)
		stats, err := Run(context.Background(), strings.NewReader(input), cq,
			Config{Workers: workers, Metrics: reg},
			func(*Result) error { return nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		s := reg.Snapshot()
		if s.Split.Records != stats.Records {
			t.Errorf("workers=%d: split records = %d, stats %d", workers, s.Split.Records, stats.Records)
		}
		if s.Split.Nodes != stats.Nodes {
			t.Errorf("workers=%d: split nodes = %d, stats %d", workers, s.Split.Nodes, stats.Nodes)
		}
		if s.Split.Bytes != stats.Bytes || s.Split.Bytes != int64(len(input)) {
			t.Errorf("workers=%d: split bytes = %d, stats %d, input %d", workers, s.Split.Bytes, stats.Bytes, len(input))
		}
		if s.Stream.Runs != 1 {
			t.Errorf("workers=%d: runs = %d, want 1", workers, s.Stream.Runs)
		}
		if s.Stream.Workers != int64(workers) {
			t.Errorf("workers=%d: workers gauge = %d", workers, s.Stream.Workers)
		}
		if s.Stream.EvalTime.Count != stats.Records || s.Stream.RecordLatency.Count != stats.Records {
			t.Errorf("workers=%d: eval count %d latency count %d, want %d records",
				workers, s.Stream.EvalTime.Count, s.Stream.RecordLatency.Count, stats.Records)
		}
		if s.Stream.DeliverTime.Count != stats.Records {
			t.Errorf("workers=%d: deliver count = %d, want %d", workers, s.Stream.DeliverTime.Count, stats.Records)
		}
		if s.Stream.WallTime.Count != 1 || s.Stream.WallTime.TotalNs <= 0 {
			t.Errorf("workers=%d: wall time = %+v, want one positive run", workers, s.Stream.WallTime)
		}
		if s.Split.ArenaNodesReused+s.Split.ArenaChunkAllocs == 0 {
			t.Errorf("workers=%d: arena counters empty", workers)
		}
	}
}

// TestRunParallelBytesAfterStop regression-tests the producer/collector
// ordering fix: when a yield stops the stream early, the collector must
// wait for the producer's final input-offset store before reading it —
// Stats.Bytes has to reflect real consumption, not a stale zero.
func TestRunParallelBytesAfterStop(t *testing.T) {
	for i := 0; i < 20; i++ {
		names := ha.NewNames()
		cq := compile(t, names, "[* ; a ; b .] (entry|feed)*")
		stats, err := Run(context.Background(), strings.NewReader(feed(200)), cq,
			Config{Workers: 4},
			func(*Result) error { return ErrStop })
		if err != nil {
			t.Fatal(err)
		}
		if stats.Bytes <= 0 {
			t.Fatalf("iteration %d: stats.Bytes = %d after ErrStop, want > 0", i, stats.Bytes)
		}
	}
}

// TestRunMetricsDifferential: attaching a sink must not change what the
// stream delivers.
func TestRunMetricsDifferential(t *testing.T) {
	for _, workers := range []int{1, 4} {
		names := ha.NewNames()
		cq := compile(t, names, "[* ; a ; b .] (entry|feed)*")
		input := feed(30)
		plain, plainStats := collectRun(t, input, cq, Config{Workers: workers})
		sunk, sunkStats := collectRun(t, input, cq, Config{Workers: workers, Metrics: &metrics.Metrics{}})
		if len(plain) != len(sunk) {
			t.Fatalf("workers=%d: %d matches without sink, %d with", workers, len(plain), len(sunk))
		}
		for i := range plain {
			if plain[i] != sunk[i] {
				t.Errorf("workers=%d: match %d = %q without sink, %q with", workers, i, plain[i], sunk[i])
			}
		}
		if plainStats != sunkStats {
			t.Errorf("workers=%d: stats diverge: %+v vs %+v", workers, plainStats, sunkStats)
		}
	}
}
