package main

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"time"

	placemon "repro"
	"repro/placemonclient"
)

// placed is one placement answer and the network version it ran on.
type placed struct {
	version int
	hosts   []int
}

// jobsPerClient is how many placement jobs each client sends back to back
// in a round. The daemon's pool runs one job per worker (one worker on two
// cores, by default), so every job but a round's first waits in the queue
// behind another client's: with two per client, three jobs in four queue,
// and the median sits inside that queued mode rather than on its edge.
const jobsPerClient = 2

// placing holds the placement side of a run: the scenario's network
// version and the answers the rounds of every cycle add up.
type placing struct {
	r   *runner
	sc  *placemonclient.ScenarioClient
	req placemonclient.PlacementRequest

	// revisions counts successful revisions; the network is the base one
	// after an even number.
	revisions int
	version   int

	mu        sync.Mutex
	placeLat  []float64 // guarded by mu
	reviseLat []float64
	answers   []placed // guarded by mu
}

func (r *runner) newPlacing() *placing {
	return &placing{r: r, sc: r.client.Scenario(r.in.place.id), req: r.in.placementRequest()}
}

// rounds runs placement rounds on the placement scenario for at least dur, and
// on the last call until both series can report a p90. In a round nproc
// clients send POST …/placements at once, jobsPerClient each, closed loop;
// once all have answered, one PUT …/network revises the network. Jobs
// never race a revision (the daemon would refuse them with 409), so every
// answer is tied to a known network version. Rounds stop only with the
// base network back in place, which the ingest traffic is generated for.
func (p *placing) rounds(ctx context.Context, dur time.Duration, last bool) {
	r, in := p.r, p.r.in
	need := int(minSamples(0.9))
	start := time.Now()
	deadline, hardStop := start.Add(dur), start.Add(4*dur+10*time.Second)
	for {
		now := time.Now()
		done := now.After(deadline) && p.revisions%2 == 0
		if last {
			done = done && len(p.placeLat) >= need && len(p.reviseLat) >= need
		}
		if done || now.After(hardStop) {
			return
		}
		var wg sync.WaitGroup
		for c := 0; c < r.nproc; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < jobsPerClient; j++ {
					t := time.Now()
					res, err := p.sc.Place(ctx, p.req)
					d := time.Since(t)
					if r.record(err) {
						p.mu.Lock()
						p.placeLat = append(p.placeLat, d.Seconds())
						p.answers = append(p.answers, placed{version: p.version, hosts: res.Hosts})
						p.mu.Unlock()
					}
				}
			}()
		}
		wg.Wait()

		target := versionFor(p.revisions)
		t := time.Now()
		_, err := p.sc.ReplaceNetwork(ctx, in.place.nets[target].change)
		d := time.Since(t)
		if !r.record(err) {
			continue
		}
		p.version = target
		p.revisions++
		diag, err := p.sc.Diagnosis(ctx)
		if !r.record(err) {
			r.rep.check(false, "read hosts after revision %d: %v", p.revisions, err)
			continue
		}
		hosts := make([]int, len(in.place.services))
		for _, conn := range diag.Connections {
			if conn.Service >= 0 && conn.Service < len(hosts) {
				hosts[conn.Service] = conn.Host
			}
		}
		p.reviseLat = append(p.reviseLat, d.Seconds())
		p.answers = append(p.answers, placed{version: target, hosts: hosts})
	}
}

// finish reports the placement metrics. Every job's hosts must equal an
// in-process Network.Place of the same inputs, and every revision's hosts
// a cold lazy greedy run on the revised network.
func (p *placing) finish() error {
	r := p.r
	r.rep.check(p.version == 0, "placement rounds left network version %d in place, not the base", p.version)
	E := r.rep.e2e
	for _, m := range []struct {
		name    string
		samples []float64
		q       float64
	}{
		{"place_p50_ms", p.placeLat, 0.5}, {"place_p90_ms", p.placeLat, 0.9},
		{"revise_p50_ms", p.reviseLat, 0.5}, {"revise_p90_ms", p.reviseLat, 0.9},
	} {
		if err := r.rep.pct(E, m.name, m.samples, m.q, 1e3, "ms"); err != nil {
			return err
		}
	}
	return r.checkPlacements(p.answers)
}

// checkPlacements compares every answer with a cold in-process placement
// on the network version it ran on.
func (r *runner) checkPlacements(answers []placed) error {
	in := r.in
	want := map[int][]int{}
	for _, a := range answers {
		if _, ok := want[a.version]; ok {
			continue
		}
		ch := in.place.nets[a.version].change
		edges := make([]placemon.Edge, len(ch.Edges))
		for i, e := range ch.Edges {
			edges[i] = placemon.Edge{U: e[0], V: e[1]}
		}
		nw, err := placemon.NewNetwork(ch.Nodes, edges)
		if err != nil {
			return fmt.Errorf("oracle network %d: %w", a.version, err)
		}
		res, err := nw.Place(in.place.services, placemon.PlaceConfig{Alpha: in.place.alpha, K: in.k})
		if err != nil {
			return fmt.Errorf("oracle placement %d: %w", a.version, err)
		}
		want[a.version] = res.Hosts
	}
	bad := 0
	for _, a := range answers {
		if !reflect.DeepEqual(a.hosts, want[a.version]) {
			bad++
			if bad == 1 {
				r.rep.check(false, "network version %d: daemon placed hosts %v, offline lazy greedy %v", a.version, a.hosts, want[a.version])
			}
		}
	}
	r.rep.check(bad == 0, "%d of %d placements differ from the offline oracle", bad, len(answers))
	return nil
}
