package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	placemon "repro"
	"repro/internal/graph"
	"repro/internal/loadgen"
	"repro/internal/topology"
	"repro/placemonclient"
)

// workloadDef is one named traffic mix. Every workload runs the same three
// phases against its own scenarios — paced ingest, closed-loop ingest, and
// closed-loop placement/revision — so every end-to-end metric exists on
// every workload; the shares of the run each phase gets, and the scenario
// shapes, decide which layers dominate.
type workloadDef struct {
	name string

	// Ingest scenarios: copies of one built-in topology's placement
	// (loadgen.BuildWorkload).
	topology  string
	scenarios int
	services  int
	alpha     float64

	// The placement scenario: with hierarchyNodes > 0 a generated
	// hierarchy sent inline, placeServices services of clientsPerSvc
	// clients each placed at placeAlpha; otherwise the first ingest
	// scenario.
	hierarchyNodes int
	placeServices  int
	clientsPerSvc  int
	placeAlpha     float64

	pacedRPS float64
	// Shares of --seconds for the paced, closed-ingest and placement
	// phases.
	pacedShare, closedShare, placeShare float64
}

var workloads = []workloadDef{
	{
		name:     "ingest-fanout",
		topology: "AT&T", scenarios: 8, services: 7, alpha: 0.3,
		pacedRPS: 3000, pacedShare: 0.3, closedShare: 0.5, placeShare: 0.2,
	},
	{
		name:     "place-revise",
		topology: "Abovenet", scenarios: 2, services: 2, alpha: 1,
		hierarchyNodes: 1000, placeServices: 4, clientsPerSvc: 6, placeAlpha: 0.85,
		pacedRPS: 1500, pacedShare: 0.1, closedShare: 0.4, placeShare: 0.5,
	},
}

func workloadByName(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// netVersion is one network the placement phase revises the scenario to:
// version 0 is the base network, the others add one chord each.
type netVersion struct {
	change placemonclient.NetworkChange
	g      *graph.Graph
}

// inputs is everything a run sends, generated from the seed alone: the
// daemon receives nothing else.
type inputs struct {
	def     workloadDef
	seed    int64
	seconds time.Duration
	k       int

	// The ingest scenarios.
	wl *loadgen.Workload
	// stream is wl with its nodes renumbered to the ones some connection
	// traverses: batch streams draw failures among monitored nodes only,
	// so about half the batches carry an outage whatever the network's
	// size. A failure no connection sees changes no report.
	stream   *loadgen.Workload
	ids      []string
	network  *placemon.Network // the scenario network, for offline oracles
	services []placemon.Service
	hosts    []int
	sched    loadgen.Schedule
	// finalFailures[i] is the failure set of scenario i's last, checked
	// batch.
	finalFailures [][]int

	place placeInputs
}

// placeInputs is the scenario the placement phase runs on.
type placeInputs struct {
	id       string
	spec     []byte // nil when the placement scenario is ids[0]
	services []placemon.Service
	hosts    []int
	alpha    float64
	nets     []netVersion
}

// chordVersions is how many chord networks the placement phase revises
// through.
const chordVersions = 3

// shapeSeed fixes the size of the problem: the generated reference
// hierarchy, its services, and the chords revisions add, as the built-in
// topologies are fixed. The run seed varies the traffic: batch streams,
// the paced schedule and the checked failure sets. A seeded chord would
// make placement cost a property of the seed — one expensive chord moves
// a run's p90 — rather than of the code.
const shapeSeed = 2016

// streamSeed is scenario i's batch-stream seed.
func (in *inputs) streamSeed(i int) int64 { return in.seed*7919 + int64(i) + 1 }

func buildInputs(def workloadDef, seed int64, seconds time.Duration) (*inputs, error) {
	in := &inputs{def: def, seed: seed, seconds: seconds, k: 1}
	rng := rand.New(rand.NewSource(seed))
	var err error
	in.wl, err = loadgen.BuildWorkload(loadgen.WorkloadConfig{
		Topology: def.topology, Services: def.services, Alpha: def.alpha, K: in.k, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	sp, err := placemon.ParseScenarioSpec(in.wl.Spec)
	if err != nil {
		return nil, err
	}
	in.services, in.hosts = sp.Placement.ToServices(), sp.Placement.Hosts
	if in.network, err = placemon.BuildTopology(def.topology); err != nil {
		return nil, err
	}
	for i := 0; i < def.scenarios; i++ {
		in.ids = append(in.ids, fmt.Sprintf("%s-%d", def.name, i))
	}
	in.stream = &loadgen.Workload{Spec: in.wl.Spec, K: in.k}
	index := map[int]int{}
	var onPath []int
	for _, p := range in.wl.Paths {
		var q []int
		for _, v := range p {
			if _, ok := index[v]; !ok {
				index[v] = len(onPath)
				onPath = append(onPath, v)
			}
			q = append(q, index[v])
		}
		in.stream.Paths = append(in.stream.Paths, q)
	}
	in.stream.NumNodes = len(onPath)
	// Every checked batch fails one monitored node, so the scenario is in
	// outage and the diagnosis is non-trivial.
	for range in.ids {
		in.finalFailures = append(in.finalFailures, []int{onPath[rng.Intn(len(onPath))]})
	}
	pacedDur := time.Duration(def.pacedShare * float64(seconds))
	// One planned request more than the p99 needs: BuildSchedule floors
	// rps·duration.
	if min := time.Duration(float64(time.Second) * (minSamples(0.99) + 1) / def.pacedRPS); pacedDur < min {
		pacedDur = min
	}
	if in.sched, err = loadgen.BuildSchedule(def.pacedRPS, pacedDur, seed); err != nil {
		return nil, err
	}
	return in, in.buildPlacement()
}

// buildPlacement builds the placement scenario and the chord networks its
// revisions switch to.
func (in *inputs) buildPlacement() error {
	def := in.def
	shape := rand.New(rand.NewSource(shapeSeed))
	var g *graph.Graph
	if def.hierarchyNodes > 0 {
		topo, err := topology.BuildHierarchy(topology.HierarchyForNodes("placebench", def.hierarchyNodes, shapeSeed))
		if err != nil {
			return err
		}
		g = topo.Graph
		if err := in.buildHierarchyScenario(g, topo.CandidateClients, shape); err != nil {
			return err
		}
	} else {
		spec, err := topology.ByName(def.topology)
		if err != nil {
			return err
		}
		topo, err := topology.Build(spec)
		if err != nil {
			return err
		}
		g = topo.Graph
		in.place = placeInputs{id: in.ids[0], services: in.services, hosts: in.hosts, alpha: def.alpha}
	}
	in.place.nets = append(in.place.nets, netVersion{change: changeOf(g), g: g})
	for c := 0; c < chordVersions; c++ {
		cg := g.Clone()
		u, v := pickChord(cg, shape)
		if err := cg.AddEdge(u, v); err != nil {
			return err
		}
		in.place.nets = append(in.place.nets, netVersion{change: changeOf(cg), g: cg})
	}
	return nil
}

// buildHierarchyScenario draws distinct clients for each service from the
// host tier, places them offline, and packages the result as an inline
// scenario document.
func (in *inputs) buildHierarchyScenario(g *graph.Graph, hosts []int, rng *rand.Rand) error {
	def := in.def
	perm := rng.Perm(len(hosts))
	services := make([]placemon.Service, def.placeServices)
	for s := range services {
		services[s].Name = fmt.Sprintf("svc-%d", s)
		for c := 0; c < def.clientsPerSvc; c++ {
			services[s].Clients = append(services[s].Clients, hosts[perm[s*def.clientsPerSvc+c]])
		}
	}
	ch := changeOf(g)
	edges := make([]placemon.Edge, len(ch.Edges))
	for i, e := range ch.Edges {
		edges[i] = placemon.Edge{U: e[0], V: e[1]}
	}
	nw, err := placemon.NewNetwork(g.NumNodes(), edges)
	if err != nil {
		return err
	}
	res, err := nw.Place(services, placemon.PlaceConfig{Alpha: def.placeAlpha, K: in.k})
	if err != nil {
		return err
	}
	spec, err := json.Marshal(placemon.ScenarioSpec{
		Nodes: ch.Nodes, Edges: ch.Edges, K: in.k,
		Placement: placemon.NewPlacementFile("", def.placeAlpha, services, res.Hosts),
	})
	if err != nil {
		return err
	}
	in.place = placeInputs{
		id: def.name + "-place", spec: spec,
		services: services, hosts: res.Hosts, alpha: def.placeAlpha,
	}
	return nil
}

func changeOf(g *graph.Graph) placemonclient.NetworkChange {
	ch := placemonclient.NetworkChange{Nodes: g.NumNodes()}
	for _, e := range g.Edges() {
		ch.Edges = append(ch.Edges, [2]int{e.U, e.V})
	}
	return ch
}

// pickChord draws two distinct, non-adjacent routers (nodes of degree > 1).
func pickChord(g *graph.Graph, rng *rand.Rand) (int, int) {
	var routers []int
	for v := 0; v < g.NumNodes(); v++ {
		if g.Degree(v) > 1 {
			routers = append(routers, v)
		}
	}
	for {
		u, v := routers[rng.Intn(len(routers))], routers[rng.Intn(len(routers))]
		if u != v && !g.HasEdge(u, v) {
			return u, v
		}
	}
}

// versionFor is the network version the n-th revision switches to: the
// scenario alternates between a chord network and the base.
func versionFor(n int) int {
	if n%2 == 1 {
		return 0
	}
	return 1 + (n/2)%chordVersions
}

// scenarioDoc is one scenario a run creates.
type scenarioDoc struct {
	id  string
	doc []byte
}

// scenarios lists every scenario a run creates: the ingest scenarios, then
// the placement scenario when it is another.
func (in *inputs) scenarios() []scenarioDoc {
	var out []scenarioDoc
	for _, id := range in.ids {
		out = append(out, scenarioDoc{id, in.wl.Spec})
	}
	if in.place.spec != nil {
		out = append(out, scenarioDoc{in.place.id, in.place.spec})
	}
	return out
}

// placementRequest is the job every placement call submits: the
// scenario's own services under its QoS slack, default objective and
// engine — the same inputs a revision re-places.
func (in *inputs) placementRequest() placemonclient.PlacementRequest {
	req := placemonclient.PlacementRequest{Alpha: in.place.alpha}
	for _, s := range in.place.services {
		req.Services = append(req.Services, placemonclient.ServiceSpec{Name: s.Name, Clients: s.Clients})
	}
	return req
}

// fingerprintBatches is how many batches of each scenario's stream the
// fingerprint covers.
const fingerprintBatches = 256

// fingerprint hashes every generated input: the scenario documents, the
// scenario IDs, the revision networks, the paced schedule, the checked
// failure sets, and the head of each scenario's batch stream.
func (in *inputs) fingerprint() string {
	h := sha256.New()
	put := func(v any) {
		raw, _ := json.Marshal(v) // plain data; cannot fail
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(raw)))
		h.Write(n[:])
		h.Write(raw)
	}
	put(in.def.name)
	h.Write(in.wl.Spec)
	put(in.ids)
	h.Write(in.place.spec)
	for _, nv := range in.place.nets {
		put(nv.change)
	}
	put(in.sched.Fingerprint())
	put(in.finalFailures)
	put(in.placementRequest())
	for i := range in.ids {
		src := in.stream.NewBatchSource(in.streamSeed(i))
		for b := 0; b < fingerprintBatches; b++ {
			put(src.Next(float64(b)).Reports)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
