package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/loadgen"
	"repro/internal/trace"
	"repro/placemonclient"
)

// minWindowsPerCycle is the fewest closed-loop windows a cycle measures.
// A window lasts only until both latency series have enough samples for a
// p99, and windows repeat until the cycle's closed-loop share has passed,
// so a faster workload gets more of them.
const minWindowsPerCycle = 2

// diagEvery makes every diagEvery-th request a diagnosis read (9 ingests
// to 1 read).
const diagEvery = 10

// ingest holds the ingest side of a run: the batch streams, and the
// samples the paced and closed-loop slices of every cycle add up.
type ingest struct {
	r      *runner
	srcs   []*loadgen.BatchSource
	start  time.Time
	before float64 // placemond_observations_ingested_total at the start

	paced, lag []float64
	// wins summarises the closed-loop windows the end-to-end metrics come
	// from: every window of an untraced run, the traced ones of a traced
	// run.
	wins []windowStats
	// A traced run pools its traced windows in cl, for the span
	// percentiles, and its untraced ones in plain.
	cl, plain closedResult
}

// windowStats is one closed-loop window's exact percentiles (seconds)
// and rate.
type windowStats struct {
	ingestP50, ingestP99, diagP50, diagP99 float64
	nIngest, nDiag                         int
	rate                                   float64
}

// summarise computes a window's percentiles. Every window holds enough
// samples of both series for a p99 (closed ends it no sooner).
func summarise(c closedResult) (windowStats, error) {
	w := windowStats{nIngest: len(c.ingest), nDiag: len(c.diag), rate: c.rate()}
	for _, p := range []struct {
		dst     *float64
		samples []float64
		q       float64
	}{
		{&w.ingestP50, c.ingest, 0.5}, {&w.ingestP99, c.ingest, 0.99},
		{&w.diagP50, c.diag, 0.5}, {&w.diagP99, c.diag, 0.99},
	} {
		v, err := percentile(p.samples, p.q)
		if err != nil {
			return w, err
		}
		*p.dst = v
	}
	return w, nil
}

func (r *runner) newIngest(ctx context.Context) (*ingest, error) {
	text, err := r.client.MetricsText(ctx)
	if err != nil {
		return nil, err
	}
	ig := &ingest{r: r, before: sumSeries(text, "placemond_observations_ingested_total", nil), start: time.Now()}
	for i := range r.in.ids {
		ig.srcs = append(ig.srcs, r.in.stream.NewBatchSource(r.in.streamSeed(i)))
	}
	return ig, nil
}

// prepare builds request n: it goes to scenario n mod len(srcs), and
// every diagEvery-th request of each scenario is a diagnosis read. A
// batch is generated before its request is timed, stamped with the time
// it is due.
func (ig *ingest) prepare(n int, at time.Time) request {
	sc := n % len(ig.srcs)
	q := request{scenario: ig.r.client.Scenario(ig.r.in.ids[sc])}
	if (n/len(ig.srcs))%diagEvery == diagEvery-1 {
		q.diag = true
		return q
	}
	q.batch = ig.srcs[sc].Next(at.Sub(ig.start).Seconds())
	return q
}

// pacedSlice replays part of the seeded open-loop schedule.
func (ig *ingest) pacedSlice(ctx context.Context, offsets []time.Duration) {
	lat, lag := ig.r.paced(ctx, offsets, ig.prepare)
	ig.paced = append(ig.paced, lat...)
	ig.lag = append(ig.lag, lag...)
}

// closedSlice runs closed-loop windows for at least dur.
func (ig *ingest) closedSlice(ctx context.Context, dur time.Duration, traced bool) error {
	start := time.Now()
	for w := 0; w < minWindowsPerCycle || time.Since(start) < dur; w++ {
		part, err := ig.r.closed(ctx, ig.prepare, traced)
		if err != nil {
			return err
		}
		if !ig.r.traced || traced {
			ws, err := summarise(part)
			if err != nil {
				return fmt.Errorf("closed-loop window: %w", err)
			}
			ig.wins = append(ig.wins, ws)
		}
		if !ig.r.traced {
			continue
		}
		dst := &ig.cl
		if !traced {
			dst = &ig.plain
		}
		dst.ingest = append(dst.ingest, part.ingest...)
		dst.diag = append(dst.diag, part.diag...)
		dst.elapsed += part.elapsed
		dst.handler = append(dst.handler, part.handler...)
		dst.call = append(dst.call, part.call...)
		dst.allocBytes += part.allocBytes
		dst.gcCycles += part.gcCycles
	}
	return nil
}

// finish reports the ingest metrics and runs the ingest checks: one last
// checked batch per scenario, the incremental-diagnosis cross-check, and
// the ingested-report count.
func (ig *ingest) finish(ctx context.Context) error {
	r := ig.r
	E, L := r.rep.e2e, r.rep.layer
	if err := r.rep.pct(E, "paced_p50_ms", ig.paced, 0.5, 1e3, "ms"); err != nil {
		return err
	}
	for _, p := range []struct {
		name    string
		samples []float64
		q       float64
	}{
		{"bench.paced_p99_ms", ig.paced, 0.99},
		{"bench.gen_lag_p50_ms", ig.lag, 0.5},
		{"bench.gen_lag_p99_ms", ig.lag, 0.99},
	} {
		if err := r.rep.pct(L, p.name, p.samples, p.q, 1e3, "ms"); err != nil {
			return err
		}
	}

	if r.traced {
		// Untraced and traced cycles alternate, so warm-up and drift fall
		// on both sides; the ratio of their rates is the tracing overhead.
		cl := ig.cl
		if err := r.reportTraced(cl, ig.plain); err != nil {
			return err
		}
		r.rep.set(L, "bench.trace_overhead", cl.rate()/ig.plain.rate(), "ratio",
			fmt.Sprintf("traced %.0f / untraced %.0f batches/s", cl.rate(), ig.plain.rate()))
	}
	// Every closed-loop metric is the median over the windows of the
	// window's own figure, so a burst of machine noise moves only the
	// windows it falls in; a pooled p99 moves with the share of the run
	// such bursts cover.
	var nIngest, nDiag int
	for _, w := range ig.wins {
		nIngest += w.nIngest
		nDiag += w.nDiag
	}
	for _, m := range []struct {
		name  string
		pick  func(windowStats) float64
		scale float64
		unit  string
		n     int
	}{
		{"ingest_rps", func(w windowStats) float64 { return w.rate }, 1, "1/s", nIngest},
		{"ingest_p50_ms", func(w windowStats) float64 { return w.ingestP50 }, 1e3, "ms", nIngest},
		{"ingest_p99_ms", func(w windowStats) float64 { return w.ingestP99 }, 1e3, "ms", nIngest},
		{"diag_p50_ms", func(w windowStats) float64 { return w.diagP50 }, 1e3, "ms", nDiag},
		{"diag_p99_ms", func(w windowStats) float64 { return w.diagP99 }, 1e3, "ms", nDiag},
	} {
		per := make([]float64, len(ig.wins))
		for i, w := range ig.wins {
			per[i] = m.pick(w)
		}
		r.rep.set(E, m.name, median(per)*m.scale, m.unit,
			fmt.Sprintf("median of %d windows (each n>=%d), n=%d", len(per), int(minSamples(0.99)), m.n))
	}

	if err := r.checkFinalBatches(ctx); err != nil {
		return err
	}
	verr := r.d.srv.VerifyIncremental()
	r.rep.check(verr == nil, "incremental diagnosis diverges from a from-scratch recompute: %v", verr)
	text, err := r.client.MetricsText(ctx)
	if err != nil {
		return err
	}
	delta := int64(sumSeries(text, "placemond_observations_ingested_total", nil) - ig.before)
	r.rep.check(delta == r.confirmed.Load(), "client confirmed %d reports but placemond_observations_ingested_total grew by %d", r.confirmed.Load(), delta)
	return nil
}

// request is one prepared ingest or diagnosis read. Preparing it (the
// batch above all) is harness work, so it happens before the request is
// timed.
type request struct {
	scenario *placemonclient.ScenarioClient
	diag     bool
	batch    placemonclient.ObservationBatch
}

// send issues the request and counts its outcome.
func (r *runner) send(ctx context.Context, q request) error {
	if q.diag {
		_, err := q.scenario.Diagnosis(ctx)
		r.record(err)
		return err
	}
	_, err := q.scenario.ReportObservations(ctx, q.batch)
	if r.record(err) {
		r.confirmed.Add(int64(len(q.batch.Reports)))
	}
	return err
}

// paced replays a slice of the seeded open-loop schedule, shifted to start
// now: a generator prepares each request ahead of its due time, releases
// it at the due time onto a queue that never blocks it, and nproc workers
// drain the queue. Latency is timed from the due time; the generator's own
// lateness is recorded separately as lag.
func (r *runner) paced(ctx context.Context, offsets []time.Duration, prepare func(int, time.Time) request) (lat, lag []float64) {
	type arrival struct {
		q   request
		due time.Time
	}
	// One slot per planned request, so the generator never waits on the
	// workers: that is what keeps the loop open.
	queue := make(chan arrival, len(offsets))
	lag = make([]float64, len(offsets))
	perWorker := make([][]float64, r.nproc)
	var wg sync.WaitGroup
	for w := 0; w < r.nproc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for a := range queue {
				r.send(ctx, a.q) // failures are counted by send
				perWorker[w] = append(perWorker[w], time.Since(a.due).Seconds())
			}
		}(w)
	}
	start := time.Now().Add(10 * time.Millisecond)
	for n, off := range offsets {
		due := start.Add(off - offsets[0])
		q := prepare(n, due)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		lag[n] = time.Since(due).Seconds()
		queue <- arrival{q: q, due: due}
	}
	close(queue)
	wg.Wait()
	for _, s := range perWorker {
		lat = append(lat, s...)
	}
	return lat, lag
}

type closedResult struct {
	ingest, diag []float64 // seconds, from send
	elapsed      time.Duration
	// The process's allocation and GC deltas over the window.
	allocBytes uint64
	gcCycles   uint32

	// Traced only: handler spans and client span minus handler span
	// (both seconds, per ingest).
	handler, call []float64
}

// rate is acknowledged ingest batches per second.
func (c closedResult) rate() float64 { return float64(len(c.ingest)) / c.elapsed.Seconds() }

// closed runs one window of nproc clients, each sending its next request
// as soon as the previous one answered, until both latency series can
// report a p99. With traced set it also records client and handler spans
// and request bytes.
func (r *runner) closed(ctx context.Context, prepare func(int, time.Time) request, traced bool) (closedResult, error) {
	need := int64(minSamples(0.99))
	var nIngest, nDiag atomic.Int64
	type clientSamples struct {
		ingest, diag []float64
		ids          []string
	}
	per := make([]clientSamples, r.nproc)
	var ms0, ms1 runtime.MemStats
	if traced {
		r.spans.on.Store(true)
		r.sent.on.Store(true)
	}
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	hardStop := start.Add(10 * time.Second)
	var wg sync.WaitGroup
	for c := 0; c < r.nproc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cs := &per[c]
			for i := 0; ; i++ {
				now := time.Now()
				if now.After(hardStop) || (nIngest.Load() >= need && nDiag.Load() >= need) {
					return
				}
				q := prepare(i*r.nproc+c, now)
				octx, id := ctx, ""
				if traced {
					id = trace.NewID()
					octx = trace.NewContext(ctx, trace.NewSpan(id))
				}
				t := time.Now()
				err := r.send(octx, q)
				d := time.Since(t).Seconds()
				if err != nil {
					continue
				}
				if q.diag {
					cs.diag = append(cs.diag, d)
					nDiag.Add(1)
				} else {
					cs.ingest = append(cs.ingest, d)
					cs.ids = append(cs.ids, id)
					nIngest.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	var res closedResult
	res.elapsed = time.Since(start)
	runtime.ReadMemStats(&ms1)
	res.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	res.gcCycles = ms1.NumGC - ms0.NumGC
	var ids []string
	for _, cs := range per {
		res.ingest = append(res.ingest, cs.ingest...)
		res.diag = append(res.diag, cs.diag...)
		ids = append(ids, cs.ids...)
	}
	if !traced {
		return res, nil
	}
	r.spans.on.Store(false)
	r.sent.on.Store(false)
	for i, id := range ids {
		if h, ok := r.spans.get(id); ok {
			res.handler = append(res.handler, h.Seconds())
			res.call = append(res.call, res.ingest[i]-h.Seconds())
		}
	}
	return res, nil
}

// reportTraced reports the per-layer metrics of the closed-loop windows:
// spans from the traced ones, and allocation and GC counts from the
// untraced ones, which carry none of the tracing's own costs.
func (r *runner) reportTraced(cl, plain closedResult) error {
	L := r.rep.layer
	reqs := float64(len(plain.ingest) + len(plain.diag))
	r.rep.set(L, "runtime.alloc_bytes_per_req", float64(plain.allocBytes)/reqs, "B", "client and daemon, whole process, untraced cycles")
	r.rep.set(L, "runtime.gc_cycles", float64(plain.gcCycles), "count", "during the untraced closed-loop windows")
	r.rep.set(L, "placemonclient.req_bytes", float64(r.sent.bytes.Load())/float64(max(r.sent.calls.Load(), 1)), "B", "ingest request body")
	for _, p := range []struct {
		name    string
		samples []float64
		q       float64
	}{
		{"server.handler_p50_us", cl.handler, 0.5}, {"server.handler_p99_us", cl.handler, 0.99},
		{"placemonclient.call_p50_us", cl.call, 0.5}, {"placemonclient.call_p99_us", cl.call, 0.99},
	} {
		if err := r.rep.pct(L, p.name, p.samples, p.q, 1e6, "us"); err != nil {
			return err
		}
	}
	return nil
}

// checkFinalBatches sends each scenario one last batch, sequentially, for a
// known failure set, and requires the daemon's diagnosis to equal an
// offline Network.Localize of the same observation.
func (r *runner) checkFinalBatches(ctx context.Context) error {
	in := r.in
	for i, id := range in.ids {
		obs, err := in.network.Observe(in.services, in.hosts, in.def.alpha, in.finalFailures[i])
		if err != nil {
			return fmt.Errorf("offline observe: %w", err)
		}
		want, err := in.network.Localize(obs, in.k)
		if err != nil {
			return fmt.Errorf("offline localize: %w", err)
		}
		batch := placemonclient.ObservationBatch{Time: 1e9}
		for c, failed := range obs.Failed {
			batch.Reports = append(batch.Reports, placemonclient.Report{Connection: c, Up: !failed})
		}
		sc := r.client.Scenario(id)
		_, err = sc.ReportObservations(ctx, batch)
		if r.record(err) {
			r.confirmed.Add(int64(len(batch.Reports)))
		}
		got, err := sc.Diagnosis(ctx)
		if !r.record(err) {
			r.rep.check(false, "scenario %s: diagnosis read failed: %v", id, err)
			continue
		}
		if err := compareDiagnosis(got.Diagnosis, diagnosisOf(want)); err != nil {
			r.rep.check(false, "scenario %s, failed nodes %v: %v", id, in.finalFailures[i], err)
		}
	}
	return nil
}
