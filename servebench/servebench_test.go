package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// Every workload's inputs are a pure function of the seed: the same seed
// gives byte-identical posts and registration bodies, another seed gives
// other posts.
func TestWorkloadDeterministicPerSeed(t *testing.T) {
	for _, name := range []string{"docbook-broad", "topic-selective", "register-churn"} {
		a, err := newWorkload(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newWorkload(name, 7)
		c, _ := newWorkload(name, 8)
		if len(a.posts) != len(b.posts) || len(a.posts) == 0 {
			t.Fatalf("%s: %d vs %d posts", name, len(a.posts), len(b.posts))
		}
		same := true
		for i := range a.posts {
			if !bytes.Equal(a.posts[i].body, b.posts[i].body) {
				t.Fatalf("%s: post %d differs between two runs of seed 7", name, i)
			}
			same = same && bytes.Equal(a.posts[i].body, c.posts[i].body)
		}
		if same {
			t.Fatalf("%s: seeds 7 and 8 gave identical posts", name)
		}
		ra, _ := json.Marshal(a.regs)
		rb, _ := json.Marshal(b.regs)
		if !bytes.Equal(ra, rb) {
			t.Fatalf("%s: registrations differ for one seed", name)
		}
	}
	ga, gb := newChurnGen(7), newChurnGen(7)
	seen := map[string]bool{}
	for i := 0; i < 2*churnKths; i++ {
		ra, oka := ga.next()
		rb, _ := gb.next()
		if ra != rb {
			t.Fatalf("churn registration %d differs for one seed: %+v vs %+v", i, ra, rb)
		}
		if !oka {
			break
		}
		if seen[ra.Query] {
			t.Fatalf("churn registration %d repeats source %q", i, ra.Query)
		}
		seen[ra.Query] = true
	}
	if len(seen) < churnKths {
		t.Fatalf("churn yielded only %d distinct sources", len(seen))
	}
}

// oraclePost returns the first docbook post with its oracle answer and
// the response a correct server sends for it.
func oraclePost(t *testing.T) (*post, []byte) {
	t.Helper()
	w, err := newWorkload("docbook-broad", 3)
	if err != nil {
		t.Fatal(err)
	}
	p := w.posts[0]
	if err := expect(p, w.split, w.regs); err != nil {
		t.Fatal(err)
	}
	if len(p.want) == 0 {
		t.Fatal("oracle found no matches in the first post")
	}
	var resp bytes.Buffer
	enc := json.NewEncoder(&resp)
	for _, m := range p.want {
		enc.Encode(m)
	}
	enc.Encode(map[string]summary{"summary": {Records: int64(p.records), Matches: int64(len(p.want)), Queries: len(w.regs)}})
	return p, resp.Bytes()
}

func check(p *post, resp []byte) error {
	_, err := checkStream(bufio.NewReader(bytes.NewReader(resp)), p, nil, nil)
	return err
}

func TestOracleAcceptsCorrectResponse(t *testing.T) {
	p, resp := oraclePost(t)
	if err := check(p, resp); err != nil {
		t.Fatalf("a correct response failed the check: %v", err)
	}
	// The same matches encoded differently (fields reordered, no HTML
	// escaping) miss the byte-level fast path and must still pass.
	var other bytes.Buffer
	for _, m := range p.want {
		fmt.Fprintf(&other, `{"term":%q,"path":%q,"recordPath":%q,"record":%d,"query":%q,"tenant":%q}`+"\n",
			m.Term, m.Path, m.RecordPath, m.Record, m.Query, m.Tenant)
	}
	lines := strings.SplitAfter(string(resp), "\n")
	other.WriteString(lines[len(lines)-2])
	if bytes.Contains(resp, other.Bytes()[:20]) {
		t.Fatal("the re-encoded response is byte-identical to the original")
	}
	if err := check(p, other.Bytes()); err != nil {
		t.Fatalf("a correct response in another encoding failed the check: %v", err)
	}
}

// A wrong, missing or extra match line, a bad summary, or a missing
// summary must each count as a wrong answer.
func TestOracleFlagsBadResponses(t *testing.T) {
	p, resp := oraclePost(t)
	lines := strings.SplitAfter(string(resp), "\n")
	lines = lines[:len(lines)-1] // the empty string after the last newline
	last := len(lines) - 1
	join := func(ls []string) []byte { return []byte(strings.Join(ls, "")) }
	with := func(i int, s string) []byte {
		ls := append([]string(nil), lines...)
		ls[i] = s
		return join(ls)
	}
	corrupt := strings.Replace(lines[0], `"path":"`, `"path":"9.`, 1)
	cases := map[string][]byte{
		"corrupted path":  with(0, corrupt),
		"missing match":   join(lines[1:]),
		"missing last":    join(append(append([]string(nil), lines[:last-1]...), lines[last])),
		"extra match":     join(append([]string{lines[0]}, lines...)),
		"missing summary": join(lines[:last]),
		"truncated":       join(lines[:last/2]),
		"error line":      with(last, `{"error":"xpe: parse error: http: invalid Read on closed Body"}`+"\n"),
		"summary count":   with(last, strings.Replace(lines[last], `"matches":`, `"matches":1`, 1)),
		"line after summary": join(append(append([]string(nil), lines...),
			lines[0])),
	}
	for name, bad := range cases {
		err := check(p, bad)
		var wa *wrongAnswer
		if !errors.As(err, &wa) {
			t.Errorf("%s: got %v, want a wrong answer", name, err)
		}
	}
}

// A failed operation counts in failed; a wrong answer also makes the run
// incorrect, a refusal does not.
func TestFailuresAreCounted(t *testing.T) {
	p, resp := oraclePost(t)
	lines := strings.SplitAfter(string(resp), "\n")
	_, wrongErr := checkStream(bufio.NewReader(strings.NewReader(strings.Join(lines[:2], ""))), p, nil, nil)
	b := &bench{}
	b.count([]sample{
		{kind: opFeed, post: p, lat: time.Millisecond},
		{kind: opFeed, post: p, err: wrongErr},
		{kind: opFeed, post: p, err: fmt.Errorf("feed: 429 Too Many Requests")},
		{kind: opRegister, lat: time.Millisecond},
	})
	if b.attempted != 4 || b.failed != 2 || b.wrong != 1 || b.correct() {
		t.Fatalf("attempted %d failed %d wrong %d correct %v; want 4, 2, 1, false",
			b.attempted, b.failed, b.wrong, b.correct())
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		// Children overlapping each other and spilling past the parent:
		// their union inside [0,100] is [10,60] and [90,100].
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "a", Start: 90, End: 120},
		{ID: 5, Parent: 4, Name: "c", Start: 95, End: 105},
		// A child wholly inside another child's interval adds nothing.
		{ID: 6, Parent: 1, Name: "d", Start: 15, End: 20},
		{ID: 7, Name: "root", Start: 200, End: 210},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"root": 40 + 10, "a": 30 + 20, "b": 30, "c": 10, "d": 5}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self(%s) = %d, want %d", name, got[name], w)
		}
	}
}

func TestRecorderNilAndNesting(t *testing.T) {
	var none *recorder
	if id := none.begin("x", "r", 0); id != 0 {
		t.Fatalf("nil recorder returned span %d", id)
	}
	none.finish(0)
	r := newRecorder()
	root := r.begin("root", "r1", 0)
	child := r.begin("child", "r1", root)
	r.finish(child)
	r.finish(root)
	ss := r.snapshot()
	if len(ss) != 2 || ss[1].Parent != ss[0].ID || ss[0].End < ss[1].End || ss[1].Req != "r1" {
		t.Fatalf("spans %+v", ss)
	}
}

func TestParseProcStat(t *testing.T) {
	// The command name holds spaces and a parenthesis.
	stat := "4242 (xpe serve) x) S 1 4242 4242 0 -1 4194560 1000 0 0 0 250 75 0 0 20 0 9 0 12345 1000000 2000 " +
		"18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0\n"
	got, err := parseStatCPU([]byte(stat))
	if err != nil {
		t.Fatal(err)
	}
	if want := (250 + 75) * time.Second / clockTicks; got != want {
		t.Fatalf("cpu = %v, want %v", got, want)
	}
	if _, err := parseStatCPU([]byte("4242 (short) S 1 2\n")); err == nil {
		t.Fatal("a truncated stat line parsed")
	}
	status := "Name:\txpeserve\nVmPeak:\t  900000 kB\nVmHWM:\t   13764 kB\nVmRSS:\t   12000 kB\n"
	hwm, err := parseVmHWM([]byte(status))
	if err != nil || hwm != 13764<<10 {
		t.Fatalf("VmHWM = %d, %v; want %d", hwm, err, 13764<<10)
	}
	if _, err := parseVmHWM([]byte("Name:\tx\n")); err == nil {
		t.Fatal("a status without VmHWM parsed")
	}
}

func TestQuantile(t *testing.T) {
	var ds []time.Duration
	for i := 100; i >= 1; i-- {
		ds = append(ds, time.Duration(i)*time.Millisecond)
	}
	for q, want := range map[float64]float64{0.5: 50, 0.99: 99, 1: 100, 0.001: 1} {
		if got := quantile(ds, q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
}
