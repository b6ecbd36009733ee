package stream

import (
	"context"
	"strings"
	"testing"

	"xpe/internal/ha"
)

// TestRunAllocsFlatInRecords: a warm run allocates a per-run constant.
// Splitting, evaluating, routing and delivering a record allocates
// nothing, at one worker (the inline path) and at four (the goroutine
// pipeline), so a 16× longer feed costs no more allocations.
func TestRunAllocsFlatInRecords(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector drops sync.Pool items at random, perturbing AllocsPerRun")
	}
	cq := compile(t, ha.NewNames(), "[* ; a ; b .] entry")
	for _, workers := range []int{1, 4} {
		allocs := func(n int) float64 {
			input := feed(n)
			run := func() {
				_, err := Run(context.Background(), strings.NewReader(input), cq,
					Config{Workers: workers}, func(*Result) error { return nil })
				if err != nil {
					t.Fatal(err)
				}
			}
			run() // warm the pooled batches and evaluation arenas
			return testing.AllocsPerRun(10, run)
		}
		small, large := allocs(100), allocs(1600)
		t.Logf("workers=%d: %.0f allocs at 100 records, %.0f at 1600", workers, small, large)
		// A few allocations of slack absorb pool misses across the warm
		// runs; one per record would add 1500.
		if large > small+8 {
			t.Errorf("workers=%d: %.0f allocs at 1600 records vs %.0f at 100: allocations grow with record count",
				workers, large, small)
		}
	}
}
