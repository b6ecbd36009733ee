package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"

	"xpe/internal/experiments"
	"xpe/internal/gen"
	"xpe/internal/xmlhedge"
)

const workloadsString = "docbook-broad, topic-selective, register-churn"

// Feed names the workloads post to. The churn registrations go to
// idleFeed, which no client ever posts to.
const (
	docsFeed   = "docs"
	topicsFeed = "topics"
	idleFeed   = "idle"
)

// Post shapes. A docbook post is docRecords generated documents of
// docNodes..docNodes+docNodesJitter nodes each (~28 KB); a topic post is
// topicRecords records of topicParas paragraphs (~225 KB), one in four
// carrying a topic. Either costs the server a few milliseconds, so a run
// gathers well over a thousand requests and p99 has at least ten samples
// beyond it, while per-request overhead does not swamp the skim on the
// selective feed. Docbook records stay near 200 nodes because the oracle's
// reference matcher is quadratic in record size.
const (
	postsPerWorkload = 32
	docRecords       = 12
	docNodes         = 175
	docNodesJitter   = 50
	topicRecords     = 128
	topicParas       = 24
	topicWords       = 10
	topicCount       = 8
)

// churn source shapes: a k-th-from-end query at churnK costs tens of
// milliseconds to compile eagerly; path sources cost about a millisecond.
// Every source carries a distinct binary chain of ancestor steps so the
// engine's compiled-query cache never turns a registration into a hit.
const (
	churnK         = 10
	churnKthBits   = 10
	churnKths      = 1 << churnKthBits
	churnPathBits  = 8
	churnPaths     = topicCount << churnPathBits
	churnPerTenant = 128
)

// registration is one POST /v1/queries body.
type registration struct {
	Tenant string `json:"tenant"`
	Name   string `json:"name"`
	Query  string `json:"query"`
	Feed   string `json:"feed"`
}

// post is one generated feed request body with its oracle answer.
type post struct {
	body    []byte
	records int
	nodes   int64       // logical input nodes (every node but the corpus root)
	want    []matchLine // expected match lines, in delivery order
	// wantJSON holds want[i] encoded as encoding/json writes it, newline
	// included: the checker's fast path compares raw lines against it.
	wantJSON [][]byte
}

// workload is one traffic mix: the server flags it needs, the setup
// registrations, the feed posts, and whether a registrant churns.
type workload struct {
	name     string
	seed     int64
	feed     string
	split    string // split element for the feed posts ("" = default split)
	workers  int    // xpeserve -workers
	stateDir bool   // run xpeserve with -state-dir on a fresh directory
	churn    bool
	regs     []registration
	posts    []*post
}

// newWorkload generates every input of the named workload from seed. The
// same name and seed always give byte-identical posts and registrations.
func newWorkload(name string, seed int64) (*workload, error) {
	w := &workload{name: name, seed: seed}
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "docbook-broad", "register-churn":
		w.feed, w.split = docsFeed, "doc"
		for i, q := range []string{experiments.PathQuery, experiments.SiblingQuery, experiments.SelectQuery} {
			w.regs = append(w.regs, registration{Tenant: "docs",
				Name: []string{"path", "sibling", "select"}[i], Query: q, Feed: docsFeed})
		}
		for i := 0; i < postsPerWorkload; i++ {
			body, err := docbookPost(rng)
			if err != nil {
				return nil, err
			}
			w.posts = append(w.posts, &post{body: body})
		}
		if name == "docbook-broad" {
			w.workers = 1
		} else {
			w.workers, w.stateDir, w.churn = 2, true, true
		}
	case "topic-selective":
		w.feed, w.workers = topicsFeed, 1
		for t := 0; t < topicCount; t++ {
			w.regs = append(w.regs, registration{Tenant: fmt.Sprintf("tenant%d", t),
				Name: fmt.Sprintf("topic%d", t), Query: fmt.Sprintf("figure topic%d doc*", t), Feed: topicsFeed})
		}
		for i := 0; i < postsPerWorkload; i++ {
			w.posts = append(w.posts, &post{body: topicPost(rng)})
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, workloadsString)
	}
	return w, nil
}

// docbookPost is a corpus of generated docbook documents, one record per
// doc element.
func docbookPost(rng *rand.Rand) ([]byte, error) {
	var b bytes.Buffer
	b.WriteString("<corpus>")
	for i := 0; i < docRecords; i++ {
		cfg := gen.DefaultDocConfig()
		cfg.Seed = rng.Int63()
		s, err := xmlhedge.ToString(gen.Document(cfg, docNodes+rng.Intn(docNodesJitter)))
		if err != nil {
			return nil, err
		}
		b.WriteString(s)
	}
	b.WriteString("</corpus>")
	return b.Bytes(), nil
}

// proseWords are the paragraph vocabulary of topic posts; none is an
// element name any query mentions.
var proseWords = strings.Fields("plain prose about nothing in particular that no registered " +
	"query selects while the skim walks every byte of it once")

// topicPost is the shared-pass feed shape: every fourth record files under
// one of the topics, and the rest are prose no query is interested in.
func topicPost(rng *rand.Rand) []byte {
	var b bytes.Buffer
	b.WriteString("<corpus>")
	for i := 0; i < topicRecords; i++ {
		b.WriteString("<doc>")
		if i%4 == 0 {
			t := rng.Intn(topicCount)
			fmt.Fprintf(&b, "<topic%d><figure/><table/></topic%d>", t, t)
		}
		for j := 0; j < topicParas; j++ {
			b.WriteString("<para>")
			for k := 0; k < topicWords; k++ {
				if k > 0 {
					b.WriteByte(' ')
				}
				b.WriteString(proseWords[rng.Intn(len(proseWords))])
			}
			b.WriteString("</para>")
		}
		b.WriteString("</doc>")
	}
	b.WriteString("</corpus>")
	return b.Bytes()
}

// churnGen yields the register-churn registrant's stream of distinct
// query registrations, deterministic in the seed: every third is a path
// source and the rest are k-th-from-end sources, so the registration
// median falls among the expensive compiles and does not swing between
// the two kinds; each kind walks its source space from a seeded offset.
type churnGen struct {
	rng         *rand.Rand
	n           int // registrations issued
	path0, kth0 int // seeded starting points in each source space
	nPath, nKth int // sources issued of each kind
}

func newChurnGen(seed int64) *churnGen {
	rng := rand.New(rand.NewSource(seed ^ 0x6368726e))
	return &churnGen{path0: rng.Intn(churnPaths), kth0: rng.Intn(churnKths)}
}

// next returns the next registration, or false once a kind's source space
// is used up (a repeat would be a cache hit).
func (g *churnGen) next() (registration, bool) {
	var src string
	if g.n%3 == 2 {
		if g.nPath == churnPaths {
			return registration{}, false
		}
		src = churnPathSource((g.path0 + g.nPath) % churnPaths)
		g.nPath++
	} else {
		if g.nKth == churnKths {
			return registration{}, false
		}
		src = churnKthSource((g.kth0 + g.nKth) % churnKths)
		g.nKth++
	}
	r := registration{Tenant: fmt.Sprintf("churn%02d", g.n/churnPerTenant),
		Name: fmt.Sprintf("q%05d", g.n), Query: src, Feed: idleFeed}
	g.n++
	return r, true
}

// churnPathSource is a topic-style path query whose ancestor chain spells
// n's high bits in sections and tables.
func churnPathSource(n int) string {
	return fmt.Sprintf("figure topic%d %s doc*", n%topicCount,
		chain(n/topicCount, churnPathBits, "section", "table"))
}

// churnKthSource is gen.KthFromEndPHR(churnK) under an ancestor chain that
// spells n in r and s steps.
func churnKthSource(n int) string {
	return gen.KthFromEndPHR(churnK) + " " + chain(n, churnKthBits, "[* ; r ; *]", "[* ; s ; *]")
}

func chain(n, bits int, zero, one string) string {
	steps := make([]string, bits)
	for i := range steps {
		steps[i] = zero
		if n>>i&1 == 1 {
			steps[i] = one
		}
	}
	return strings.Join(steps, " ")
}
