package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/bitset"
	"repro/internal/monitord"
	"repro/internal/placement"
	"repro/internal/routing"
	"repro/internal/tomography"
	"repro/internal/trace"
	"repro/internal/wal"
	"repro/placemonclient"
)

// Per-layer replays run each layer's public functions from this file on
// the workload's own inputs, repeated until layerBudget has passed (at
// least layerMinReps and at most layerMaxReps times).
const (
	layerBudget  = 300 * time.Millisecond
	layerMinReps = 3
	layerMaxReps = 2000
)

// timeReps runs f repeatedly within the layer budget and returns each
// call's duration in seconds.
func timeReps(f func() error) ([]float64, error) {
	var out []float64
	start := time.Now()
	for len(out) < layerMaxReps && (len(out) < layerMinReps || time.Since(start) < layerBudget) {
		t := time.Now()
		if err := f(); err != nil {
			return nil, err
		}
		out = append(out, time.Since(t).Seconds())
	}
	return out, nil
}

// traceSamples gathers stage durations from the daemon's /debug/traces
// ring, which is bounded: it holds only the newest requests, so these are
// samples of the traffic, not every request.
type traceSamples struct {
	mu     sync.Mutex
	seen   map[string]bool
	stages map[string][]float64 // "<route>/<stage>" → seconds
}

func newTraceSamples() *traceSamples {
	return &traceSamples{seen: map[string]bool{}, stages: map[string][]float64{}}
}

func (ts *traceSamples) add(recs []trace.Record) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	for _, rec := range recs {
		if ts.seen[rec.TraceID] {
			continue
		}
		ts.seen[rec.TraceID] = true
		route := rec.Path[strings.LastIndex(rec.Path, "/")+1:]
		for _, st := range rec.Stages {
			key := route + "/" + st.Name
			ts.stages[key] = append(ts.stages[key], st.DurationSeconds)
		}
	}
}

// startTracePoller polls /debug/traces every 50ms during a traced run and
// returns the function that stops it and waits for it to exit.
func (r *runner) startTracePoller(ctx context.Context) (stop func()) {
	if !r.traced {
		return func() {}
	}
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				if recs, err := r.client.Traces(ctx, placemonclient.TraceQuery{}); err == nil {
					r.trace.add(recs)
				}
			}
		}
	}()
	return func() {
		close(done)
		<-exited
	}
}

// layers reports the per-layer metrics of a traced run.
func (r *runner) layers(ctx context.Context) error {
	L := r.rep.layer
	for _, s := range []struct{ name, key, unit string }{
		{"server.stage.decode_us", "observations/decode", "us"},
		{"server.stage.dedup_us", "observations/dedup", "us"},
		{"server.stage.ingest_us", "observations/ingest", "us"},
		{"server.stage.diagnose_us", "diagnosis/diagnose", "us"},
		{"server.stage.queue_wait_ms", "placements/queue wait", "ms"},
		{"server.stage.place_ms", "placements/place", "ms"},
	} {
		scale := 1e6
		if s.unit == "ms" {
			scale = 1e3
		}
		samples := r.trace.stages[s.key]
		r.rep.set(L, s.name, median(samples)*scale, s.unit, fmt.Sprintf("median of n=%d from the bounded /debug/traces ring", len(samples)))
	}

	text := new(strings.Builder)
	if err := r.client.Registry().WriteText(text); err != nil {
		return err
	}
	calls := sumSeries([]byte(text.String()), "placemonclient_requests_total", nil)
	retries := sumSeries([]byte(text.String()), "placemonclient_retries_total", nil)
	r.rep.set(L, "placemonclient.attempts_per_call", (calls+retries)/calls, "ratio", fmt.Sprintf("%.0f calls", calls))

	if err := r.monitordAndWAL(); err != nil {
		return err
	}
	return r.placementLayers(ctx)
}

// walObservations and walDiagnosis mirror the daemon's WAL payloads, so
// the replay appends records of the sizes the server appends.
type walObservations struct {
	Scenario string  `json:"scenario"`
	BatchID  string  `json:"batch_id,omitempty"`
	Time     float64 `json:"time"`
	Conns    []int   `json:"conns"`
	Ups      []bool  `json:"ups"`
}

type walDiagnosis struct {
	Scenario  string                    `json:"scenario"`
	Time      float64                   `json:"time"`
	Kind      string                    `json:"kind"`
	Diagnosis *placemonclient.Diagnosis `json:"diagnosis,omitempty"`
}

// walReplayBatches caps how many batches the WAL replay appends: each
// costs an fsync.
const walReplayBatches = 300

// monitordAndWAL replays the first scenario's batch stream through
// monitord.Loop, then appends the resulting records through wal.Log
// under the "always" policy. The benchmark's daemons run without a WAL,
// so this replay is the WAL layer's only measurement.
func (r *runner) monitordAndWAL() error {
	in, L := r.in, r.rep.layer
	paths := make([]*bitset.Set, len(in.wl.Paths))
	for i, p := range in.wl.Paths {
		paths[i] = bitset.New(in.wl.NumNodes)
		for _, v := range p {
			paths[i].Add(v)
		}
	}
	m, err := monitord.New(in.wl.NumNodes, in.k, paths)
	if err != nil {
		return err
	}
	loop := monitord.NewLoop(m)
	defer loop.Close()
	src := in.stream.NewBatchSource(in.streamSeed(0))
	conns := make([]int, len(paths))
	for i := range conns {
		conns[i] = i
	}
	var apply, diagnose []float64
	var ops [][]wal.Op
	events, batches := 0, 0
	start := time.Now()
	for batches < layerMaxReps && (batches < layerMinReps || time.Since(start) < layerBudget) {
		batch := src.Next(float64(batches))
		ups := make([]bool, len(batch.Reports))
		for i, rep := range batch.Reports {
			ups[i] = rep.Up
		}
		t := time.Now()
		evs, err := loop.ReportBatch(batch.Time, conns, ups)
		apply = append(apply, time.Since(t).Seconds())
		if err != nil {
			return err
		}
		events += len(evs)
		batches++
		if batches%diagEvery == 0 && loop.InOutage() {
			t := time.Now()
			if _, err := loop.Diagnosis(); err != nil {
				return err
			}
			diagnose = append(diagnose, time.Since(t).Seconds())
		}
		if len(ops) < walReplayBatches {
			ops = append(ops, walOps(in.ids[0], batch.Time, conns, ups, evs))
		}
	}
	r.rep.set(L, "monitord.apply_us", median(apply)*1e6, "us", fmt.Sprintf("Loop.ReportBatch, n=%d", len(apply)))
	r.rep.set(L, "monitord.diagnosis_us", median(diagnose)*1e6, "us", fmt.Sprintf("Loop.Diagnosis, n=%d", len(diagnose)))
	r.rep.set(L, "monitord.events_per_batch", float64(events)/float64(batches), "count", "")

	var fsyncs []float64
	var fmu sync.Mutex
	dir := r.scratchDir("wal-replay")
	log, _, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways, OnFsync: func(d time.Duration) {
		fmu.Lock()
		fsyncs = append(fsyncs, d.Seconds())
		fmu.Unlock()
	}})
	if err != nil {
		return err
	}
	var appendS []float64
	for _, batchOps := range ops {
		t := time.Now()
		if _, err := log.AppendBatch(batchOps); err != nil {
			log.Close()
			return err
		}
		appendS = append(appendS, time.Since(t).Seconds())
	}
	size := dirBytes(dir)
	if err := log.Close(); err != nil {
		return err
	}
	fmu.Lock()
	defer fmu.Unlock()
	r.rep.set(L, "wal.append_us", median(appendS)*1e6, "us", fmt.Sprintf("Log.AppendBatch under always, n=%d", len(appendS)))
	r.rep.set(L, "wal.fsync_p50_us", median(fsyncs)*1e6, "us", fmt.Sprintf("OnFsync samples of the replay, n=%d", len(fsyncs)))
	r.rep.set(L, "wal.fsyncs_per_batch", float64(len(fsyncs))/float64(len(ops)), "count", "OnFsync calls of the replay per appended batch")
	r.rep.set(L, "wal.bytes_per_batch", float64(size)/float64(len(ops)), "B", "")
	return nil
}

// walOps builds the records the daemon appends for one accepted batch:
// the observations plus one diagnosis record per emitted event.
func walOps(scenario string, t float64, conns []int, ups []bool, evs []monitord.Event) []wal.Op {
	obs, _ := json.Marshal(walObservations{Scenario: scenario, BatchID: trace.NewID(), Time: t, Conns: conns, Ups: ups})
	ops := []wal.Op{{Type: wal.TypeObservations, Payload: obs}}
	for _, ev := range evs {
		rec := walDiagnosis{Scenario: scenario, Time: ev.Time, Kind: ev.Kind.String()}
		if ev.Diagnosis != nil {
			rec.Diagnosis = wireDiagnosis(ev.Diagnosis)
		}
		p, _ := json.Marshal(rec) // plain data; cannot fail
		ops = append(ops, wal.Op{Type: wal.TypeDiagnosis, Payload: p})
	}
	return ops
}

func wireDiagnosis(d *tomography.Diagnosis) *placemonclient.Diagnosis {
	return &placemonclient.Diagnosis{
		Candidates: d.Consistent, DefinitelyFailed: d.DefinitelyFailed,
		PossiblyFailed: d.PossiblyFailed, Healthy: d.Healthy, Unobserved: d.Unobserved,
	}
}

func dirBytes(dir string) int64 {
	entries, _ := os.ReadDir(dir) // a missing directory holds no bytes
	var n int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			n += info.Size()
		}
	}
	return n
}

// placementLayers times routing, instance build, lazy greedy and warm
// re-placement on the scenario's base network and its first chord
// revision — the work a placement job and a revision do.
func (r *runner) placementLayers(ctx context.Context) error {
	in, L := r.in, r.rep.layer
	base, chord := in.place.nets[0].g, in.place.nets[1].g
	svcs := make([]placement.Service, len(in.place.services))
	for i, s := range in.place.services {
		svcs[i] = placement.Service{Name: s.Name, Clients: s.Clients}
	}
	obj, err := placement.NewDistinguishability(in.k)
	if err != nil {
		return err
	}

	build, err := timeReps(func() error {
		rt, err := routing.NewLazy(base)
		if err != nil {
			return err
		}
		for s, h := range in.place.hosts {
			for _, c := range svcs[s].Clients {
				rt.PathNodes(c, h)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.rep.set(L, "routing.build_ms", median(build)*1e3, "ms", fmt.Sprintf("NewLazy + the scenario's paths, n=%d", len(build)))

	rtBase, err := routing.NewLazy(base)
	if err != nil {
		return err
	}
	rtChord, err := routing.NewLazy(chord)
	if err != nil {
		return err
	}
	// One untimed build per router computes the shortest-path trees, as
	// the daemon's long-lived network has them after its first job.
	instBase, err := placement.NewInstance(rtBase, svcs, in.place.alpha)
	if err != nil {
		return err
	}
	instChord, err := placement.NewInstance(rtChord, svcs, in.place.alpha)
	if err != nil {
		return err
	}
	instance, err := timeReps(func() error {
		_, err := placement.NewInstance(rtBase, svcs, in.place.alpha)
		return err
	})
	if err != nil {
		return err
	}
	r.rep.set(L, "placement.instance_ms", median(instance)*1e3, "ms", fmt.Sprintf("NewInstance, n=%d", len(instance)))

	evaluations := 0
	greedy, err := timeReps(func() error {
		res, err := placement.GreedyLazyCtx(ctx, instBase, obj, nil)
		if err == nil {
			evaluations = res.Evaluations
		}
		return err
	})
	if err != nil {
		return err
	}
	r.rep.set(L, "placement.greedy_ms", median(greedy)*1e3, "ms", fmt.Sprintf("GreedyLazyCtx, n=%d", len(greedy)))
	r.rep.set(L, "placement.evaluations", float64(evaluations), "count", "objective evaluations of one GreedyLazyCtx run")

	wp := placement.NewWarmPlacer()
	if _, _, err := wp.Place(ctx, instBase, obj, 0, nil); err != nil {
		return err
	}
	var reused, total int
	n := 0
	warm, err := timeReps(func() error {
		inst := instChord
		if n%2 == 1 {
			inst = instBase
		}
		n++
		_, st, err := wp.Place(ctx, inst, obj, 0, nil)
		reused += st.Reused
		total += st.Reused + st.Recomputed
		return err
	})
	if err != nil {
		return err
	}
	r.rep.set(L, "placement.warm_ms", median(warm)*1e3, "ms", fmt.Sprintf("WarmPlacer.Place alternating base and chord, n=%d", len(warm)))
	r.rep.set(L, "placement.warm_reuse", float64(reused)/float64(max(total, 1)), "ratio", fmt.Sprintf("%d of %d round-0 gains reused", reused, total))
	return nil
}
