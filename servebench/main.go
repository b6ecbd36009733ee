// Command servebench is the served end-to-end benchmark of xpeserve: it
// execs the xpeserve binary on a loopback port, drives one workload's
// traffic mix at it from a closed loop of one feed client (plus one
// registering client on register-churn), checks every response against an
// oracle, and prints the metrics as the last line of its output. See README.md for the workloads, the metrics
// and how to read the trace.
//
//	bash servebench/run.sh --workload docbook-broad --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"xpe"
	"xpe/internal/serve"
)

// window is the length of each of the consecutive windows the timed loop
// of an end-to-end run is cut into, one per measured second; most metrics
// are the median over windows. Before each window the run also starts,
// sets up and stops one extra server, so the windows+1 set-ups behind
// setup_s (and, off register-churn, behind register_p50_ms) are spread
// over the whole run as well.
const window = time.Second

// p99Block is the fewest feed requests behind one p99 figure, so that at
// least ten samples lie beyond it. latency_p99_ms is the median over
// consecutive blocks of whole windows that each reach this count.
const p99Block = 1000

// setups is how many times the in-process traced run builds a server and
// registers the workload's queries, for serve.register_ms_p50.
const setups = 11

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the human-facing line printed before the result: the seed,
// sample counts, and the CPU both processes burned.
type report struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Trace      bool           `json:"trace"`
	PrepS      float64        `json:"prep_s"` // input generation and the oracle
	Samples    map[string]int `json:"samples"`
	ErrorRate  float64        `json:"error_rate"`
	ServerCPUS float64        `json:"server_cpu_s"`
	LoadgenCPU float64        `json:"loadgen_cpu_s"`
	FirstError string         `json:"first_error,omitempty"`
	TraceFile  string         `json:"trace_file,omitempty"`
	// KeepAliveProbe is the outcome of keepAliveProbe: "ok", or why a
	// post over a kept-alive connection came back wrong.
	KeepAliveProbe string `json:"keepalive_probe,omitempty"`
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	root     string
	server   string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: "+workloadsString)
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&o.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&o.trace, "trace", 0, "1: in-process per-layer traced run instead of the end-to-end one")
	flag.StringVar(&o.root, "root", ".", "checkout root; scratch files go under its .bench_build")
	flag.StringVar(&o.server, "server", "", "xpeserve binary")
	flag.Parse()
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
}

func run(o options, out io.Writer) error {
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) || o.server == "" || flag.NArg() > 0 {
		return errors.New("usage: servebench -server BIN --workload NAME --seed N --seconds S --trace 0|1")
	}
	prep := time.Now()
	w, err := newWorkload(o.workload, o.seed)
	if err != nil {
		return err
	}
	if err := expectAll(w); err != nil {
		return err
	}
	workDir := filepath.Join(o.root, ".bench_build", "servebench")
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	b := &bench{o: o, w: w, workDir: workDir, rep: report{Workload: w.name, Seed: o.seed,
		Trace: o.trace == 1, PrepS: time.Since(prep).Seconds(), Samples: map[string]int{}},
		metrics: map[string]metric{}}
	if o.trace == 1 {
		err = b.traced()
	} else {
		err = b.endToEnd()
	}
	if err != nil {
		return err
	}
	if b.firstErr != nil {
		b.rep.FirstError = b.firstErr.Error()
	}
	if b.attempted > 0 {
		b.rep.ErrorRate = float64(b.failed) / float64(b.attempted)
	}
	enc := json.NewEncoder(out)
	if err := enc.Encode(b.rep); err != nil {
		return err
	}
	return enc.Encode(result{Correct: b.correct(), Attempted: b.attempted, Failed: b.failed, Metrics: b.metrics})
}

// bench is one run's state.
type bench struct {
	o         options
	w         *workload
	workDir   string
	rep       report
	metrics   map[string]metric
	attempted int
	failed    int
	wrong     int // failures that are wrong or truncated answers, not refusals
	firstErr  error
}

func (b *bench) correct() bool { return b.wrong == 0 }

func (b *bench) set(name, unit string, v float64) { b.metrics[name] = metric{Value: v, Unit: unit} }

// count folds a tally's operations into the run's attempted/failed totals.
func (b *bench) count(ss []sample) tally {
	t := tallySamples(ss)
	b.attempted += t.feeds + t.regs
	b.failed += t.failed
	b.wrong += t.wrong
	if b.firstErr == nil {
		b.firstErr = t.firstErr
	}
	return t
}

// setUp starts a server and registers the workload's queries. It returns
// the running server, the set-up time from exec until every registration
// was acknowledged, and each registration's latency.
func (b *bench) setUp() (*server, time.Duration, []time.Duration, error) {
	start := time.Now()
	s, err := startServer(b.o.server, b.w, b.workDir, b.logPath())
	if err != nil {
		return nil, 0, nil, err
	}
	t := newHTTPTarget(s.base, b.w, 1)
	defer t.close()
	var lat []time.Duration
	for _, r := range b.w.regs {
		smp := t.register(0, r)
		if smp.err != nil {
			s.stop()
			return nil, 0, nil, smp.err
		}
		lat = append(lat, smp.lat)
	}
	return s, time.Since(start), lat, nil
}

func (b *bench) logPath() string { return filepath.Join(b.workDir, b.w.name+".xpeserve.log") }

// endToEnd is the untraced run: set-up, warm-up, then the workload's
// closed loop against xpeserve for the measured seconds.
func (b *bench) endToEnd() error {
	os.Remove(b.logPath())
	s, setup, setupRegs, err := b.setUp()
	if err != nil {
		return err
	}
	defer s.stop()
	setupDurs := []time.Duration{setup}
	t := newHTTPTarget(s.base, b.w, 2)
	defer t.close()
	b.count(warm(t, b.w, fmt.Sprintf("warm-%d", b.o.seed)))

	var churn *churnGen
	if b.w.churn {
		churn = newChurnGen(b.o.seed)
	}
	// The timed loop runs as consecutive windows. Each metric of a window
	// is computed from that window alone, and the reported figure is the
	// median over windows, so a few seconds of interference from outside
	// the benchmark move it little.
	var all []sample
	var mbs, nodes, p50s, p99s, ttfms, cpus []float64
	var block []time.Duration // feed latencies of the p99 block being filled
	var serverCPU, genCPU time.Duration
	var next atomic.Int64
	windows := int(time.Duration(b.o.seconds) * time.Second / window)
	for i := 0; i < windows; i++ {
		// Collect the generator's garbage first, so its background GC
		// does not slow the set-up being timed.
		runtime.GC()
		extra, setup, regs, err := b.setUp()
		if err != nil {
			return err
		}
		extra.stop()
		setupDurs, setupRegs = append(setupDurs, setup), append(setupRegs, regs...)

		cpu0, err := cpuTime(s.pid())
		if err != nil {
			return err
		}
		gen0 := selfCPU()
		lr := runLoad(t, b.w, window, &next, churn, nil, fmt.Sprintf("run%d-%d", i, b.o.seed))
		gen1 := selfCPU()
		cpu1, err := cpuTime(s.pid())
		if err != nil {
			return err
		}
		serverCPU, genCPU = serverCPU+cpu1-cpu0, genCPU+gen1-gen0
		all = append(all, lr.samples...)
		tw := tallySamples(lr.samples)
		if len(tw.feedLat) == 0 {
			continue
		}
		secs := lr.elapsed.Seconds()
		mbs = append(mbs, float64(tw.bytesOK)/1e6/secs)
		nodes = append(nodes, float64(tw.nodesOK)/secs)
		p50s = append(p50s, quantile(tw.feedLat, 0.50))
		if block = append(block, tw.feedLat...); len(block) >= p99Block {
			p99s, block = append(p99s, quantile(block, 0.99)), block[:0]
		}
		ttfms = append(ttfms, quantile(tw.ttfm, 0.50))
		cpus = append(cpus, float64((cpu1-cpu0).Milliseconds())/(float64(tw.bytesIn)/1e6))
	}
	hwm, err := peakRSS(s.pid())
	if err != nil {
		return err
	}
	tl := b.count(all)
	if len(tl.feedLat) == 0 {
		return fmt.Errorf("no feed request succeeded: %v", tl.firstErr)
	}
	if len(p99s) == 0 { // a run too short to fill one block
		p99s = append(p99s, quantile(tl.feedLat, 0.99))
	}
	b.set("feed_mb_s", "MB/s", median(mbs))
	b.set("feed_nodes_s", "nodes/s", median(nodes))
	b.set("latency_p50_ms", "ms", median(p50s))
	b.set("latency_p99_ms", "ms", median(p99s))
	b.set("ttfm_p50_ms", "ms", median(ttfms))
	b.set("server_cpu_ms_per_mb", "ms/MB", median(cpus))
	b.set("server_rss_mb", "MiB", float64(hwm)/(1<<20))
	b.set("setup_s", "s", quantile(setupDurs, 0.5)/1e3)
	regLat := setupRegs
	if b.w.churn {
		regLat = tl.regLat
	}
	if len(regLat) == 0 {
		return errors.New("no registration succeeded")
	}
	b.set("register_p50_ms", "ms", quantile(regLat, 0.50))
	b.rep.Samples["feed_requests"] = len(tl.feedLat)
	b.rep.Samples["registrations"] = len(regLat)
	b.rep.Samples["windows"] = len(mbs)
	b.rep.Samples["p99_blocks"] = len(p99s)
	b.rep.Samples["setups"] = len(setupDurs)
	b.rep.ServerCPUS, b.rep.LoadgenCPU = serverCPU.Seconds(), genCPU.Seconds()
	if err := keepAliveProbe(s.base, b.w); err != nil {
		b.rep.KeepAliveProbe = err.Error()
	} else {
		b.rep.KeepAliveProbe = "ok"
	}
	return nil
}

// traced is the per-layer run on the same inputs: the served load with and
// without client spans (the tracing overhead), then in-process calls into
// serve, xpe, stream, core and xmlhedge, each wrapped in a span.
func (b *bench) traced() error {
	total := time.Duration(b.o.seconds) * time.Second
	rec := newRecorder()
	ctx := context.Background()

	tp, ts, err := b.served(total*4/10, rec)
	if err != nil {
		return err
	}
	loopP50 := quantile(tp.feedLat, 0.5)
	b.set("trace.overhead_ms", "ms", quantile(ts.feedLat, 0.5)-loopP50)
	b.set("serve.ndjson_bytes_per_match", "B", float64(tp.respBytes+ts.respBytes)/float64(max(1, tp.matches+ts.matches)))
	postedMB := float64(tp.bytesIn+ts.bytesIn) / 1e6
	b.set("loadgen.cpu_ms_per_mb", "ms/MB", b.rep.LoadgenCPU*1e3/postedMB)

	// In-process serve: the same traffic mix through ServeHTTP.
	handlerLat, regLat, handlerMB, err := b.inProcess(total/5, rec)
	if err != nil {
		return err
	}
	handlerP50 := quantile(handlerLat, 0.5)
	b.set("serve.handler_ms_p50", "ms", handlerP50)
	b.set("serve.transport_ms_p50", "ms", loopP50-handlerP50)
	b.set("serve.register_ms_p50", "ms", quantile(regLat, 0.5))
	b.rep.Samples["handler"] = len(handlerLat)
	b.rep.Samples["register"] = len(regLat)

	// Layer rounds.
	kit, err := newLayerKit(b.w)
	if err != nil {
		return err
	}
	var lt layerTotals
	kit.round(ctx, -1, nil, &layerTotals{}) // warm-up, untimed
	deadline := time.Now().Add(total * 3 / 10)
	for n := 0; n == 0 || time.Now().Before(deadline); n++ {
		kit.round(ctx, n, rec, &lt)
	}
	b.attempted += int(lt.posts)
	b.failed += lt.failed
	b.wrong += lt.failed
	if b.firstErr == nil {
		b.firstErr = lt.firstErr
	}
	b.rep.Samples["layer_posts"] = int(lt.posts)

	compiles, err := compileRound(b.w, total/10, rec)
	if err != nil {
		return err
	}
	b.set("core.compile_ms_p50", "ms", quantile(compiles, 0.5))
	b.set("core.compile_ms_max", "ms", quantile(compiles, 1))
	b.rep.Samples["compiles"] = len(compiles)

	self := selfTimes(rec.snapshot())
	mb := float64(lt.bytes) / 1e6
	sec := func(name string) float64 { return self[name].Seconds() }
	b.set("xmlhedge.split_mb_s", "MB/s", mb/sec("xmlhedge.split"))
	b.set("xmlhedge.split_allocs_per_record", "allocs", float64(lt.splitAllocs)/float64(lt.records))
	b.set("xmlhedge.skim_mb_s", "MB/s", mb/sec("xmlhedge.skim"))
	b.set("xmlhedge.skim_skip_ratio", "ratio", float64(lt.prefiltered)/float64(lt.seen))
	b.set("xmlhedge.skim_wasted_bytes_ratio", "ratio", float64(lt.keptBytes)/float64(lt.recordBytes))
	b.set("core.eval_nodes_s", "nodes/s", float64(lt.evalNodes)/sec("core.eval"))
	b.set("stream.run_mb_s", "MB/s", mb/sec("stream.run"))
	b.set("stream.overhead_ratio", "ratio", sec("stream.run")/(sec("xmlhedge.split")+sec("xmlhedge.skim")+sec("core.eval")))
	b.set("xpe.deliver_ns_per_match", "ns", (sec("xpe.deliver")-sec("stream.run"))*1e9/float64(max(1, lt.matches)))
	for _, name := range layerSpans {
		b.set(name+".self_ms_per_mb", "ms/MB", self[name].Seconds()*1e3/mb)
	}
	b.set("serve.handler.self_ms_per_mb", "ms/MB", self["serve.handler"].Seconds()*1e3/handlerMB)

	b.rep.TraceFile = filepath.Join(b.workDir, fmt.Sprintf("%s-seed%d.spans.ndjson", b.w.name, b.o.seed))
	return rec.writeFile(b.rep.TraceFile)
}

// served runs the workload's load against xpeserve for d, in four slices
// that alternate untraced and client-traced, so drift (the churn registry
// grows) charges both alike. It returns the tallies of both kinds.
func (b *bench) served(d time.Duration, rec *recorder) (plain, traced tally, err error) {
	os.Remove(b.logPath())
	s, _, _, err := b.setUp()
	if err != nil {
		return plain, traced, err
	}
	defer s.stop()
	t := newHTTPTarget(s.base, b.w, 2)
	defer t.close()
	b.count(warm(t, b.w, fmt.Sprintf("warm-%d", b.o.seed)))
	var churn *churnGen
	if b.w.churn {
		churn = newChurnGen(b.o.seed)
	}
	var next atomic.Int64
	var ps, ts []sample
	gen0 := selfCPU()
	cpu0, err := cpuTime(s.pid())
	if err != nil {
		return plain, traced, err
	}
	for i := 0; i < 4; i++ {
		var r *recorder
		if i%2 == 1 {
			r = rec
		}
		lr := runLoad(t, b.w, d/4, &next, churn, r, fmt.Sprintf("served%d-%d", i, b.o.seed))
		if r == nil {
			ps = append(ps, lr.samples...)
		} else {
			ts = append(ts, lr.samples...)
		}
	}
	gen1 := selfCPU()
	cpu1, err := cpuTime(s.pid())
	if err != nil {
		return plain, traced, err
	}
	b.rep.ServerCPUS, b.rep.LoadgenCPU = (cpu1 - cpu0).Seconds(), (gen1 - gen0).Seconds()
	plain, traced = b.count(ps), b.count(ts)
	b.rep.Samples["served_untraced"] = len(plain.feedLat)
	b.rep.Samples["served_traced"] = len(traced.feedLat)
	if len(plain.feedLat) == 0 || len(traced.feedLat) == 0 {
		return plain, traced, fmt.Errorf("no served feed request succeeded: %v", b.firstErr)
	}
	return plain, traced, nil
}

// layerSpans are the spans of the layer rounds whose self time is
// reported per MB posted.
var layerSpans = []string{"xmlhedge.split", "xmlhedge.skim", "xmlhedge.multiskim",
	"core.eval", "stream.run", "xpe.deliver"}

// inProcess runs the workload's traffic mix through an in-process
// serve.Server configured as xpeserve is, for d. It returns the feed
// handler latencies and the registration latencies: the churn
// registrant's on register-churn, the set-up registrations (repeated on
// fresh servers) elsewhere; and the MB the timed feed requests posted.
func (b *bench) inProcess(d time.Duration, rec *recorder) (handler, regs []time.Duration, mb float64, err error) {
	var srv *serve.Server
	var stop func()
	for i := 0; i < setups; i++ {
		if stop != nil {
			stop()
		}
		if srv, stop, err = b.localServer(); err != nil {
			return nil, nil, 0, err
		}
		lt := newLocalTarget(srv, b.w)
		for _, r := range b.w.regs {
			s := lt.register(0, r)
			if s.err != nil {
				stop()
				return nil, nil, 0, s.err
			}
			regs = append(regs, s.lat)
		}
	}
	defer stop()
	lt := newLocalTarget(srv, b.w)
	b.count(warm(lt, b.w, "local-warm"))
	var churn *churnGen
	if b.w.churn {
		churn = newChurnGen(b.o.seed)
	}
	var next atomic.Int64
	tl := b.count(runLoad(lt, b.w, d, &next, churn, rec, "local").samples)
	if len(tl.feedLat) == 0 {
		return nil, nil, 0, fmt.Errorf("no in-process feed request succeeded: %v", tl.firstErr)
	}
	if b.w.churn {
		regs = tl.regLat
	}
	return tl.feedLat, regs, float64(tl.bytesIn) / 1e6, nil
}

// localServer builds an in-process serve.Server with xpeserve's defaults
// and the workload's flags, and the function that closes it.
func (b *bench) localServer() (*serve.Server, func(), error) {
	opts := serve.Options{Engine: xpe.NewEngine(), Workers: b.w.workers,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}
	if b.w.stateDir {
		dir, err := os.MkdirTemp(b.workDir, "state-")
		if err != nil {
			return nil, nil, err
		}
		opts.StateDir = dir
	}
	srv, err := serve.NewServer(opts)
	if err != nil {
		os.RemoveAll(opts.StateDir)
		return nil, nil, err
	}
	return srv, func() { srv.Close(); os.RemoveAll(opts.StateDir) }, nil
}
