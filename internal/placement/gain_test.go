package placement

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/bitset"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/topology"
)

// referenceGain is the definition Gain must reproduce bit for bit: clone
// the evaluator, add the paths, and subtract the current value.
func referenceGain(e evaluator, paths []*bitset.Sparse) float64 {
	trial := e.Clone()
	trial.Add(paths)
	return trial.Value() - e.Value()
}

// gainObjectives returns every objective family over numNodes nodes:
// the six k = 1 objectives plus k = 2 enumeration.
func gainObjectives(numNodes int, rng *rand.Rand) []Objective {
	var interest []int
	for v := 0; v < numNodes; v++ {
		if rng.Intn(3) == 0 {
			interest = append(interest, v)
		}
	}
	return []Objective{
		NewCoverage(),
		NewCoverageOfInterest(numNodes, interest),
		mustObj(NewIdentifiability(1)),
		mustObj(NewDistinguishability(1)),
		NewIdentifiabilityOfInterest(numNodes, interest),
		NewDistinguishabilityOfInterest(numNodes, interest),
		mustObj(NewDistinguishability(2)),
	}
}

// randomGainInstance routes a seeded random topology with services of
// the given client counts.
func randomGainInstance(t *testing.T, rng *rand.Rand, n, m int, clientCounts []int, alpha float64) *Instance {
	t.Helper()
	g, err := topology.RandomConnected(n, m, rng.Int63())
	if err != nil {
		t.Fatal(err)
	}
	r, err := routing.New(g)
	if err != nil {
		t.Fatal(err)
	}
	services := make([]Service, len(clientCounts))
	for s, c := range clientCounts {
		clients := make([]graph.NodeID, 0, c)
		for _, v := range rng.Perm(n)[:c] {
			clients = append(clients, v)
		}
		services[s] = Service{Name: fmt.Sprintf("s%d", s), Clients: clients}
	}
	inst, err := NewInstance(r, services, alpha)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// checkGains compares Gain with the reference on every ground element
// of inst (and on a few batches of extra paths), and checks that Gain
// leaves the evaluator untouched.
func checkGains(t *testing.T, label string, inst *Instance, e evaluator, extra [][]*bitset.Sparse) {
	t.Helper()
	before := e.Value()
	batches := extra
	for i := range inst.elements {
		batches = append(batches, inst.elements[i].evalPaths)
	}
	for i, paths := range batches {
		if got, want := e.Gain(paths), referenceGain(e, paths); got != want {
			t.Fatalf("%s batch %d (%d paths): Gain %v, reference %v", label, i, len(paths), got, want)
		}
	}
	if after := e.Value(); after != before {
		t.Fatalf("%s: Gain changed the evaluator's value %v → %v", label, before, after)
	}
}

// TestGainMatchesCloneAddValue is the exactness property of Gain: over
// seeded random instances and random partial placements, for every
// objective, Gain equals clone-add-value to the last bit. Besides every
// candidate element it scores a repeated path, the paths that cover
// exactly the still-uncovered nodes (the uncovered class, with v0, is
// emptied of real nodes), and a path through every node.
func TestGainMatchesCloneAddValue(t *testing.T) {
	rng := rand.New(rand.NewSource(2016))
	for trial := 0; trial < 12; trial++ {
		n := 8 + rng.Intn(9)
		counts := make([]int, 1+rng.Intn(4))
		for s := range counts {
			counts[s] = 1 + rng.Intn(4)
		}
		inst := randomGainInstance(t, rng, n, n+rng.Intn(n), counts, float64(rng.Intn(11))/10)
		for _, obj := range gainObjectives(n, rng) {
			e := obj.newEvaluator(n)
			covered := bitset.New(n)
			// A random partial placement: each service placed with
			// probability 1/2 on a random candidate.
			for s := 0; s < inst.NumServices(); s++ {
				if rng.Intn(2) == 0 {
					el := &inst.elements[inst.elemIndex[s][rng.Intn(len(inst.candidates[s]))]]
					e.Add(el.evalPaths)
					for _, p := range el.evalPaths {
						p.UnionInto(covered)
					}
				}
			}
			var uncovered, all []int
			for v := 0; v < n; v++ {
				all = append(all, v)
				if !covered.Contains(v) {
					uncovered = append(uncovered, v)
				}
			}
			el := inst.elements[rng.Intn(len(inst.elements))].evalPaths
			extra := [][]*bitset.Sparse{
				append(append([]*bitset.Sparse(nil), el...), el[0]), // repeated path
				{bitset.SparseFromNodes(n, all)},
			}
			if len(uncovered) > 0 {
				extra = append(extra, []*bitset.Sparse{bitset.SparseFromNodes(n, uncovered)})
			}
			checkGains(t, fmt.Sprintf("trial %d %s", trial, obj.Name()), inst, e, extra)
		}
	}
}

// TestGainWideElement scores elements with more than 64 paths — one
// service with 70 clients, so patterns span two machine words — for
// every objective, on the empty placement and after one placement, plus
// a batch of 70 one-node paths that isolates 70 nodes at once.
func TestGainWideElement(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	const n = 80
	inst := randomGainInstance(t, rng, n, 2*n, []int{70, 3}, 0)
	if got := len(inst.elements[0].evalPaths); got <= 64 {
		t.Fatalf("element has %d paths, want > 64", got)
	}
	singles := make([]*bitset.Sparse, 70)
	for v := range singles {
		singles[v] = bitset.SparseFromNodes(n, []int{v})
	}
	for _, obj := range gainObjectives(n, rng) {
		e := obj.newEvaluator(n)
		checkGains(t, obj.Name()+" empty", inst, e, [][]*bitset.Sparse{singles})
		e.Add(inst.elements[len(inst.elements)-1].evalPaths)
		checkGains(t, obj.Name()+" placed", inst, e, [][]*bitset.Sparse{singles})
	}
}

// TestGainConcurrent calls Gain from several goroutines on one shared
// evaluator — what GreedyParallel and GreedyLazyParallel do — and
// requires every answer to match the sequential one. Run with -race.
func TestGainConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	inst := randomGainInstance(t, rng, 16, 28, []int{3, 4, 2}, 0.6)
	for _, obj := range gainObjectives(inst.NumNodes(), rng) {
		e := obj.newEvaluator(inst.NumNodes())
		e.Add(inst.elements[0].evalPaths)
		want := make([]float64, len(inst.elements))
		for i := range want {
			want[i] = referenceGain(e, inst.elements[i].evalPaths)
		}
		var wg sync.WaitGroup
		errs := make(chan string, 4)
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for round := 0; round < 3; round++ {
					for i := range inst.elements {
						i := (i + w) % len(inst.elements)
						if got := e.Gain(inst.elements[i].evalPaths); got != want[i] {
							errs <- fmt.Sprintf("%s worker %d element %d: Gain %v, want %v", obj.Name(), w, i, got, want[i])
							return
						}
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for msg := range errs {
			t.Fatal(msg)
		}
	}
}
