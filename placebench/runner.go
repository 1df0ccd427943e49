package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	placemon "repro"
	"repro/internal/loadgen"
	"repro/internal/trace"
	"repro/placemonclient"
)

// setupReps is how many times a run boots a daemon and creates its
// scenarios; setup_s is the median, and the last boot serves the load.
const setupReps = 25

// runner executes one workload run.
type runner struct {
	in     *inputs
	traced bool
	work   string
	nproc  int
	rep    *report

	d      *daemon
	client *placemonclient.Client
	sent   *countingTransport
	spans  *handlerSpans // traced runs only

	// confirmed counts the reports of every acknowledged ingest.
	confirmed atomic.Int64
	attempted atomic.Int64
	failed    atomic.Int64

	trace *traceSamples
}

func newRunner(in *inputs, traced bool, work string) *runner {
	r := &runner{
		in: in, traced: traced, work: work, nproc: runtime.NumCPU(), rep: newReport(),
	}
	if traced {
		r.spans = &handlerSpans{dur: map[string]time.Duration{}}
		r.trace = newTraceSamples()
	}
	return r
}

// scratchDir names a directory under the run's work directory.
func (r *runner) scratchDir(name string) string {
	return filepath.Join(r.work, name)
}

// daemon is one booted placemond on a loopback port.
type daemon struct {
	url   string
	srv   *placemon.Server
	close func() error
}

// bootDaemon starts a daemon: loadgen's local daemon for untraced runs,
// and for traced runs the same server handler wrapped in spans.
func bootDaemon(cfg placemon.ServerConfig, spans *handlerSpans) (*daemon, error) {
	if spans == nil {
		ld, err := loadgen.StartLocalDaemon(cfg)
		if err != nil {
			return nil, err
		}
		return &daemon{url: ld.URL, srv: ld.Server, close: ld.Close}, nil
	}
	srv, err := placemon.NewScenarioServer(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	hs := &http.Server{Handler: spans.wrap(srv.Handler()), ReadHeaderTimeout: 5 * time.Second}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	return &daemon{url: "http://" + ln.Addr().String(), srv: srv, close: func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		err := hs.Shutdown(ctx)
		<-done
		if cerr := srv.Close(); err == nil {
			err = cerr
		}
		return err
	}}, nil
}

// handlerSpans times the daemon's public Handler() per request, keyed by
// the request's Placemond-Trace-Id, while on.
type handlerSpans struct {
	on  atomic.Bool
	mu  sync.Mutex
	dur map[string]time.Duration
}

func (h *handlerSpans) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !h.on.Load() {
			next.ServeHTTP(w, req)
			return
		}
		start := time.Now()
		next.ServeHTTP(w, req)
		d := time.Since(start)
		id := req.Header.Get(trace.Header)
		h.mu.Lock()
		h.dur[id] = d
		h.mu.Unlock()
	})
}

func (h *handlerSpans) get(id string) (time.Duration, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	d, ok := h.dur[id]
	return d, ok
}

// countingTransport counts request body bytes of ingest calls while on.
type countingTransport struct {
	base  http.RoundTripper
	on    atomic.Bool
	bytes atomic.Int64
	calls atomic.Int64
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if t.on.Load() && strings.HasSuffix(req.URL.Path, "/observations") {
		t.bytes.Add(req.ContentLength)
		t.calls.Add(1)
	}
	return t.base.RoundTrip(req)
}

// newClient builds the benchmark's client: at most nproc connections.
func (r *runner) newClient(url string) (*placemonclient.Client, error) {
	r.sent = &countingTransport{base: &http.Transport{
		MaxConnsPerHost:     r.nproc,
		MaxIdleConnsPerHost: r.nproc,
		IdleConnTimeout:     time.Minute,
	}}
	return placemonclient.New(placemonclient.Config{
		BaseURL:    url,
		HTTPClient: &http.Client{Transport: r.sent},
		Seed:       r.in.seed,
	})
}

// setup boots the daemon and creates the scenarios setupReps times; all
// but the last boot are closed again.
func (r *runner) setup(ctx context.Context) error {
	var setupS, createMs []float64
	for rep := 0; rep < setupReps; rep++ {
		last := rep == setupReps-1
		var spans *handlerSpans
		if last {
			spans = r.spans
		}
		start := time.Now()
		d, err := bootDaemon(placemon.ServerConfig{}, spans)
		if err != nil {
			return fmt.Errorf("boot daemon: %w", err)
		}
		client, err := r.newClient(d.url)
		if err != nil {
			d.close()
			return err
		}
		docs := r.in.scenarios()
		t := time.Now()
		for _, sc := range docs {
			if _, err := client.CreateScenario(ctx, sc.id, sc.doc); err != nil {
				d.close()
				return fmt.Errorf("create scenario %s: %w", sc.id, err)
			}
		}
		createMs = append(createMs, time.Since(t).Seconds()*1e3/float64(len(docs)))
		setupS = append(setupS, time.Since(start).Seconds())
		if last {
			r.d, r.client = d, client
			break
		}
		if err := d.close(); err != nil {
			return fmt.Errorf("close daemon: %w", err)
		}
	}
	r.rep.set(r.rep.e2e, "setup_s", median(setupS), "s", fmt.Sprintf("median of %d boots", setupReps))
	r.rep.set(r.rep.layer, "scenario.create_ms", median(createMs), "ms", fmt.Sprintf("median over %d boots of the mean per scenario", len(createMs)))
	return nil
}

// execute runs the whole workload: setup, the three phases, the checks,
// and (traced) the per-layer replays.
func (r *runner) execute(ctx context.Context) error {
	if err := r.setup(ctx); err != nil {
		return err
	}
	defer r.d.close()
	stopPoll := r.startTracePoller(ctx)
	err := r.load(ctx)
	stopPoll()
	if err != nil {
		return err
	}
	if err := r.serverCounters(ctx); err != nil {
		return err
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.rep.set(r.rep.e2e, "heap_mb", float64(ms.HeapAlloc)/1e6, "MB", "live heap after a forced GC")
	if r.traced {
		if err := r.layers(ctx); err != nil {
			return err
		}
	}
	att, fail := r.attempted.Load(), r.failed.Load()
	r.rep.attempted, r.rep.failed = att, fail
	r.rep.set(r.rep.e2e, "success_frac", float64(att-fail)/float64(att), "ratio",
		fmt.Sprintf("%d of %d requests succeeded", att-fail, att))
	r.rep.sortLines()
	return nil
}

// cycles is how many times a run goes through its three phases. Each
// cycle runs a slice of the paced schedule, then closed-loop windows,
// then placement rounds, for its share of the run: every metric is
// sampled across the whole run, so a stretch of machine noise lasting a
// few seconds moves each metric a little instead of one phase's metrics a
// lot. A traced run traces the closed loop of odd cycles only.
const cycles = 4

// load drives the workload's traffic, then reports its metrics and runs
// its checks.
func (r *runner) load(ctx context.Context) error {
	def, S := r.in.def, float64(r.in.seconds)
	ig, err := r.newIngest(ctx)
	if err != nil {
		return err
	}
	pl := r.newPlacing()
	offsets := r.in.sched.Offsets
	for c := 0; c < cycles; c++ {
		ig.pacedSlice(ctx, offsets[len(offsets)*c/cycles:len(offsets)*(c+1)/cycles])
		if err := ig.closedSlice(ctx, time.Duration(def.closedShare*S/cycles), r.traced && c%2 == 1); err != nil {
			return err
		}
		pl.rounds(ctx, time.Duration(def.placeShare*S/cycles), c == cycles-1)
	}
	if err := ig.finish(ctx); err != nil {
		return err
	}
	return pl.finish()
}

// record counts one request outcome.
func (r *runner) record(err error) bool {
	r.attempted.Add(1)
	if err != nil {
		r.failed.Add(1)
		return false
	}
	return true
}

// sumSeries adds up every series of a counter or gauge family in a
// Prometheus text exposition whose labels satisfy keep (nil keeps all).
func sumSeries(text []byte, name string, keep func(labels string) bool) float64 {
	total := 0.0
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		labels := ""
		switch {
		case strings.HasPrefix(rest, "{"):
			end := strings.LastIndex(rest, "}")
			if end < 0 {
				continue
			}
			labels, rest = rest[1:end], rest[end+1:]
		case strings.HasPrefix(rest, " "):
		default:
			continue
		}
		if keep != nil && !keep(labels) {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64); err == nil {
			total += v
		}
	}
	return total
}

// serverCounters reads the daemon's request, error and replay counters
// from /metrics.
func (r *runner) serverCounters(ctx context.Context) error {
	text, err := r.client.MetricsText(ctx)
	if err != nil {
		return err
	}
	L := r.rep.layer
	r.rep.set(L, "server.requests", sumSeries(text, "placemond_http_requests_total", nil), "count", "")
	r.rep.set(L, "server.errors", sumSeries(text, "placemond_http_requests_total", func(l string) bool {
		i := strings.Index(l, `code="`)
		return i >= 0 && len(l) > i+6 && l[i+6] >= '4'
	}), "count", "responses with status >= 400")
	r.rep.set(L, "server.replayed", sumSeries(text, "placemond_ingest_replayed_total", nil), "count", "")
	return nil
}
