package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"

	"xpe/internal/core"
	"xpe/internal/ha"
	"xpe/internal/hedge"
	"xpe/internal/xmlhedge"
)

// matchLine is one NDJSON match line of a feed response.
type matchLine struct {
	Tenant     string `json:"tenant"`
	Query      string `json:"query"`
	Record     int    `json:"record"`
	RecordPath string `json:"recordPath"`
	Path       string `json:"path"`
	Term       string `json:"term"`
}

// summary is the {"summary":...} line that closes every feed response.
type summary struct {
	Records     int64 `json:"records"`
	Matches     int64 `json:"matches"`
	Prefiltered int64 `json:"prefiltered"`
	Skipped     int64 `json:"skipped"`
	TimedOut    int64 `json:"timedOut"`
	Recovered   int64 `json:"recovered"`
	Queries     int   `json:"queries"`
}

// expectAll runs the oracle over every post of w, on as many goroutines
// as there are CPUs.
func expectAll(w *workload) error {
	errs := make([]error, len(w.posts))
	var wg sync.WaitGroup
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(w.posts); i += runtime.GOMAXPROCS(0) {
				errs[i] = expect(w.posts[i], w.split, w.regs)
			}
		}(g)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// expect fills in p's record count, node count and expected match lines.
// It shares no code with the stream or serve packages: the post is parsed
// whole by the encoding/xml-based xmlhedge.Parse, cut into records here,
// and every record is matched by core.SelectNaive, the reference matcher
// that evaluates a query straight from its definitions. Expected lines
// come in delivery order: by record, then by registration order, then in
// document order.
func expect(p *post, split string, regs []registration) error {
	h, err := xmlhedge.Parse(bytes.NewReader(p.body), xmlhedge.Options{})
	if err != nil {
		return fmt.Errorf("oracle parse: %w", err)
	}
	qs := make([]*core.Query, len(regs))
	for i, r := range regs {
		if qs[i], err = core.ParseQuery(r.Query); err != nil {
			return fmt.Errorf("oracle query %q: %w", r.Query, err)
		}
	}
	names := ha.NewNames()
	names.Vars.Intern(hedge.TextVar)
	recs, paths := splitRecords(h, split)
	p.records, p.nodes, p.want, p.wantJSON = len(recs), int64(h.Size()-1), nil, nil
	for ri, rec := range recs {
		one := hedge.Hedge{rec}
		for qi, q := range qs {
			located, err := core.SelectNaive(q, names, one)
			if err != nil {
				return fmt.Errorf("oracle %q: %w", regs[qi].Query, err)
			}
			one.Visit(func(path hedge.Path, n *hedge.Node) bool {
				if located[n] {
					p.want = append(p.want, matchLine{Tenant: regs[qi].Tenant, Query: regs[qi].Name,
						Record: ri, RecordPath: paths[ri].String(), Path: path.String(), Term: n.String()})
				}
				return true
			})
		}
	}
	for _, m := range p.want {
		b, err := json.Marshal(m)
		if err != nil {
			return err
		}
		p.wantJSON = append(p.wantJSON, append(b, '\n'))
	}
	return nil
}

// splitRecords cuts a parsed document into records the way the feed's
// split does: with a split name, every outermost element of that name;
// without one, every element child of the document element. It returns
// the records with their Dewey paths in the document (0-based, as
// hedge.Path stores them).
func splitRecords(h hedge.Hedge, split string) ([]*hedge.Node, []hedge.Path) {
	var recs []*hedge.Node
	var paths []hedge.Path
	if split == "" {
		for ri, root := range h {
			if root.Kind != hedge.Elem {
				continue
			}
			for ci, c := range root.Children {
				if c.Kind == hedge.Elem {
					recs = append(recs, c)
					paths = append(paths, hedge.Path{ri, ci})
				}
			}
			break
		}
		return recs, paths
	}
	var walk func(hh hedge.Hedge, prefix hedge.Path)
	walk = func(hh hedge.Hedge, prefix hedge.Path) {
		for i, n := range hh {
			if n.Kind != hedge.Elem {
				continue
			}
			p := append(prefix.Clone(), i)
			if n.Name == split {
				recs, paths = append(recs, n), append(paths, p)
				continue
			}
			walk(n.Children, p)
		}
	}
	walk(h, nil)
	return recs, paths
}

// wrongAnswer is a response that disagrees with the oracle: a wrong,
// missing or extra match line, a bad summary, or no summary at all.
type wrongAnswer struct{ msg string }

func (e *wrongAnswer) Error() string { return e.msg }

func wrong(format string, a ...any) error { return &wrongAnswer{fmt.Sprintf(format, a...)} }

var errNoSummary = &wrongAnswer{"response ended without a summary line"}

// checker compares one feed response, line by line, against its post's
// expected matches.
type checker struct {
	p       *post
	next    int // index of the next expected match line
	done    bool
	bytes   int
	matches int
}

// line checks one NDJSON line. It returns done once the summary line has
// been read and checked.
func (c *checker) line(b []byte) (done bool, err error) {
	c.bytes += len(b)
	if c.done {
		return true, wrong("line after the summary: %.80s", b)
	}
	// Fast path: a line byte-identical to the expected encoding is that
	// match. Any other line is decoded and compared field by field below,
	// so a change of encoding costs speed, not correctness.
	if c.next < len(c.p.wantJSON) && bytes.Equal(b, c.p.wantJSON[c.next]) {
		c.next++
		c.matches++
		return false, nil
	}
	if bytes.HasPrefix(b, []byte(`{"summary"`)) {
		var s struct {
			Summary *summary `json:"summary"`
		}
		if err := json.Unmarshal(b, &s); err != nil || s.Summary == nil {
			return false, wrong("bad summary line %.80q: %v", b, err)
		}
		c.done = true
		sm := s.Summary
		switch {
		case c.next != len(c.p.want):
			return true, wrong("got %d match lines, oracle expects %d", c.next, len(c.p.want))
		case sm.Matches != int64(len(c.p.want)):
			return true, wrong("summary counts %d matches, oracle expects %d", sm.Matches, len(c.p.want))
		case sm.Records+sm.Prefiltered != int64(c.p.records):
			return true, wrong("summary counts %d+%d records, oracle expects %d",
				sm.Records, sm.Prefiltered, c.p.records)
		case sm.Skipped != 0 || sm.TimedOut != 0 || sm.Recovered != 0:
			return true, wrong("summary reports failed records: %+v", *sm)
		}
		return true, nil
	}
	var m matchLine
	if err := json.Unmarshal(b, &m); err != nil {
		return false, wrong("bad line %.80q: %v", b, err)
	}
	if m.Query == "" {
		return false, wrong("not a match line: %.80q", b)
	}
	if c.next >= len(c.p.want) {
		return false, wrong("extra match line %.80q", b)
	}
	if want := c.p.want[c.next]; m != want {
		return false, wrong("match line %d is %+v, oracle expects %+v", c.next, m, want)
	}
	c.next++
	c.matches++
	return false, nil
}

// checkStream reads a whole feed response from r and checks it. firstLine,
// when non-nil, is called as soon as the first line has been read, and
// summaryRead once the summary line has been checked.
func checkStream(r *bufio.Reader, p *post, firstLine, summaryRead func()) (*checker, error) {
	c := &checker{p: p}
	first := true
	var buf []byte
	for {
		line, err := r.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			buf = append(buf[:0], line...)
			for err == bufio.ErrBufferFull {
				line, err = r.ReadSlice('\n')
				buf = append(buf, line...)
			}
			line = buf
		}
		if len(line) > 0 {
			if first && firstLine != nil {
				firstLine()
			}
			first = false
			done, cerr := c.line(line)
			if cerr != nil {
				return c, cerr
			}
			if done && summaryRead != nil {
				summaryRead()
				summaryRead = nil
			}
		}
		if err == io.EOF {
			if !c.done {
				return c, errNoSummary
			}
			return c, nil
		}
		if err != nil {
			return c, err
		}
	}
}
