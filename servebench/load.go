package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// opKind tells feed posts from registrations.
type opKind uint8

const (
	opFeed opKind = iota
	opRegister
)

// sample is one timed operation of a closed-loop client.
type sample struct {
	kind      opKind
	post      *post
	lat       time.Duration // send until the summary line (feed) or the 201 (register) was read
	ttfm      time.Duration // send until the first NDJSON line was read
	respBytes int
	matches   int
	err       error
}

// target is where the closed-loop clients send their operations: the
// xpeserve process over loopback HTTP, or an in-process serve.Server
// called through ServeHTTP. Each client index owns its connection.
type target interface {
	feed(client int, p *post, req string, rec *recorder) sample
	register(client int, r registration) sample
}

// loadResult is what one closed-loop phase produced.
type loadResult struct {
	samples []sample
	elapsed time.Duration
}

// requestTimeout bounds one request, so a hung server fails the run
// instead of stalling it.
const requestTimeout = 30 * time.Second

// churnPause is the churn registrant's think time after each 201. It keeps
// the registration rate, and with it the registry's growth, steady from
// run to run, while eager compiles still take a good share of a core.
const churnPause = 50 * time.Millisecond

// runLoad drives w's traffic mix against t for d: one client (index 0)
// posts the workload's posts round-robin, and a churn workload adds a
// second client (index 1) registering churn's sources. Every client is a
// closed loop: it sends its next operation only after the previous
// response has been read to its end (the summary line, for a feed). rec,
// when non-nil, receives a span tree per feed request.
func runLoad(t target, w *workload, d time.Duration, nextPost *atomic.Int64, churn *churnGen, rec *recorder, reqPrefix string) loadResult {
	start := time.Now()
	deadline := start.Add(d)
	var feeds, regs []sample
	var wg sync.WaitGroup
	if churn != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				r, ok := churn.next()
				if !ok {
					return
				}
				regs = append(regs, t.register(1, r))
				time.Sleep(churnPause)
			}
		}()
	}
	for time.Now().Before(deadline) {
		n := nextPost.Add(1) - 1
		p := w.posts[int(n)%len(w.posts)]
		feeds = append(feeds, t.feed(0, p, fmt.Sprintf("%s-%d", reqPrefix, n), rec))
	}
	wg.Wait()
	return loadResult{samples: append(feeds, regs...), elapsed: time.Since(start)}
}

// warm posts every post once, so lazy set-up and caches settle before
// anything is timed.
func warm(t target, w *workload, reqPrefix string) []sample {
	var out []sample
	for i, p := range w.posts {
		out = append(out, t.feed(0, p, fmt.Sprintf("%s-%d", reqPrefix, i), nil))
	}
	return out
}

// httpTarget talks to an xpeserve process. Each client has its own
// transport, so it holds at most one connection. Registrations keep their
// connection alive; each feed post opens its own and sends
// "Connection: close" unless keepAliveFeeds is set: over a kept-alive
// HTTP/1.1 connection xpeserve truncates a feed post it has not read to
// the end when it flushes its first match line (see keepAliveProbe).
type httpTarget struct {
	base           string
	feedURL        string
	clients        []*http.Client
	readers        []*bufio.Reader
	keepAliveFeeds bool
}

func newHTTPTarget(base string, w *workload, clients int) *httpTarget {
	t := &httpTarget{base: base, feedURL: base + "/v1/feed/" + w.feed}
	if w.split != "" {
		t.feedURL += "?split=" + w.split
	}
	for i := 0; i < clients; i++ {
		t.clients = append(t.clients, &http.Client{Timeout: requestTimeout, Transport: &http.Transport{
			MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}})
		t.readers = append(t.readers, bufio.NewReaderSize(nil, 64<<10))
	}
	return t
}

func (t *httpTarget) close() {
	for _, c := range t.clients {
		c.CloseIdleConnections()
	}
}

func (t *httpTarget) feed(client int, p *post, req string, rec *recorder) sample {
	s := sample{kind: opFeed, post: p}
	hreq, err := http.NewRequest(http.MethodPost, t.feedURL, bytes.NewReader(p.body))
	if err != nil {
		s.err = err
		return s
	}
	hreq.Header.Set("Content-Type", "application/xml")
	hreq.Header.Set("X-Request-Id", req)
	hreq.Close = !t.keepAliveFeeds
	start := time.Now()
	resp, err := t.clients[client].Do(hreq)
	if err != nil {
		s.err = err
		return s
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		s.err = fmt.Errorf("feed: %s", resp.Status)
		return s
	}
	var first, done time.Time
	br := t.readers[client]
	br.Reset(resp.Body)
	chk, err := checkStream(br, p, func() { first = time.Now() }, func() { done = time.Now() })
	br.Reset(nil)
	s.respBytes, s.matches, s.err = chk.bytes, chk.matches, err
	if err != nil {
		return s
	}
	s.ttfm, s.lat = first.Sub(start), done.Sub(start)
	if root := rec.add("client.request", req, 0, start, done); root != 0 {
		rec.add("client.first_line", req, root, start, first)
		rec.add("client.rest", req, root, first, done)
	}
	return s
}

// register posts one registration; anything but a 201 is a failure.
func (t *httpTarget) register(client int, r registration) sample {
	s := sample{kind: opRegister}
	body, err := json.Marshal(r)
	if err != nil {
		s.err = err
		return s
	}
	start := time.Now()
	resp, err := t.clients[client].Post(t.base+"/v1/queries", "application/json", bytes.NewReader(body))
	if err != nil {
		s.err = err
		return s
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.lat = time.Since(start)
	if resp.StatusCode != http.StatusCreated {
		s.err = fmt.Errorf("register %s/%s: %s: %s", r.Tenant, r.Name, resp.Status, bytes.TrimSpace(msg))
	}
	return s
}

// localTarget calls an in-process handler directly, with a response
// recorder in place of the socket: the same requests without the
// transport.
type localTarget struct {
	h        http.Handler
	feedPath string
}

func newLocalTarget(h http.Handler, w *workload) *localTarget {
	t := &localTarget{h: h, feedPath: "/v1/feed/" + w.feed}
	if w.split != "" {
		t.feedPath += "?split=" + w.split
	}
	return t
}

func (t *localTarget) feed(_ int, p *post, req string, rec *recorder) sample {
	s := sample{kind: opFeed, post: p}
	hreq := httptest.NewRequest(http.MethodPost, t.feedPath, bytes.NewReader(p.body))
	hreq.Header.Set("X-Request-Id", req)
	rw := httptest.NewRecorder()
	start := time.Now()
	t.h.ServeHTTP(rw, hreq)
	end := time.Now()
	rec.add("serve.handler", req, 0, start, end)
	if rw.Code != http.StatusOK {
		s.err = fmt.Errorf("feed: status %d", rw.Code)
		return s
	}
	chk, err := checkStream(bufio.NewReader(rw.Body), p, nil, nil)
	s.respBytes, s.matches, s.err = chk.bytes, chk.matches, err
	s.lat = end.Sub(start)
	return s
}

func (t *localTarget) register(_ int, r registration) sample {
	s := sample{kind: opRegister}
	body, err := json.Marshal(r)
	if err != nil {
		s.err = err
		return s
	}
	hreq := httptest.NewRequest(http.MethodPost, "/v1/queries", bytes.NewReader(body))
	rw := httptest.NewRecorder()
	start := time.Now()
	t.h.ServeHTTP(rw, hreq)
	s.lat = time.Since(start)
	if rw.Code != http.StatusCreated {
		s.err = fmt.Errorf("register %s/%s: status %d: %s", r.Tenant, r.Name, rw.Code, bytes.TrimSpace(rw.Body.Bytes()))
	}
	return s
}

// tally summarises a set of samples.
type tally struct {
	feeds, regs, failed   int
	wrong                 int             // failures that are wrong or truncated answers
	feedLat, ttfm, regLat []time.Duration // successful operations only
	bytesIn, bytesOK      int64           // posted body bytes: all feeds, completed feeds
	nodesOK               int64
	respBytes, matches    int64
	firstErr              error
}

func tallySamples(ss []sample) tally {
	var t tally
	for _, s := range ss {
		if s.err != nil {
			t.failed++
			var wa *wrongAnswer
			if errors.As(s.err, &wa) {
				t.wrong++
			}
			if t.firstErr == nil {
				t.firstErr = s.err
			}
		}
		switch s.kind {
		case opFeed:
			t.feeds++
			t.bytesIn += int64(len(s.post.body))
			if s.err == nil {
				t.feedLat = append(t.feedLat, s.lat)
				t.ttfm = append(t.ttfm, s.ttfm)
				t.bytesOK += int64(len(s.post.body))
				t.nodesOK += s.post.nodes
				t.respBytes += int64(s.respBytes)
				t.matches += int64(s.matches)
			}
		case opRegister:
			t.regs++
			if s.err == nil {
				t.regLat = append(t.regLat, s.lat)
			}
		}
	}
	return t
}

// quantile returns the q-quantile of ds by nearest rank, in milliseconds.
func quantile(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := min(max(int(math.Ceil(float64(len(s))*q))-1, 0), len(s)-1)
	return float64(s[i]) / float64(time.Millisecond)
}

// keepAliveProbe posts the workload's first post twice over one kept-alive
// connection and reports whether either answer was wrong. xpeserve
// flushes match lines while it is still reading the post, and net/http
// then discards the unread rest of an HTTP/1.1 request body on a
// connection it keeps alive, so a post longer than the server's first read
// comes back truncated. The outcome is reported beside the metrics, not
// counted in them: the timed clients close each connection instead.
func keepAliveProbe(base string, w *workload) error {
	t := newHTTPTarget(base, w, 1)
	t.keepAliveFeeds = true
	defer t.close()
	for i := 0; i < 2; i++ {
		if s := t.feed(0, w.posts[0], fmt.Sprintf("keepalive-probe-%d", i), nil); s.err != nil {
			return s.err
		}
	}
	return nil
}

// median returns the median of vs (the mean of the middle two when even).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}
