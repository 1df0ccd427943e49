package placement

import (
	"fmt"
	"sync"

	"repro/internal/bitset"
	"repro/internal/monitor"
)

// Objective selects the set function f(P) maximized by the placement
// algorithms. The three paper objectives are Coverage (MCSP),
// Identifiability (MISP), and Distinguishability (MDSP), each optionally
// restricted to a set of nodes of interest (Section VII-B). Objectives are
// sealed to this package because evaluation is tightly coupled to the
// incremental refinement structures.
type Objective interface {
	// Name returns a short identifier ("coverage", "identifiability-1", …).
	Name() string
	// K returns the failure budget the objective is defined for (0 for
	// coverage, which is budget-free).
	K() int
	// newEvaluator returns a fresh evaluator over numNodes nodes.
	newEvaluator(numNodes int) evaluator
	// submodular reports whether the objective is monotone submodular
	// (Lemmas 13 and 17), which algorithms like BranchAndBound rely on
	// for admissible pruning bounds.
	submodular() bool
}

// evaluator incrementally tracks the objective value of a growing path
// set. Add is destructive; Gain is its read-only counterpart: it returns
// exactly the float64 that cloning, adding paths and subtracting Value
// would (every objective is integer-valued below 2⁵³, so the difference
// is exact), without touching the evaluator, and it is safe to call
// from many goroutines at once on one evaluator. The greedy engines
// score candidates with Gain and fold each round's winner in with one
// Add; Clone remains for search trees that need a full independent
// branch (BranchAndBound). Paths arrive in the sparse representation
// the instance stores; evaluators whose internal structure is dense
// convert at the boundary.
type evaluator interface {
	Add(paths []*bitset.Sparse)
	Gain(paths []*bitset.Sparse) float64
	Clone() evaluator
	Value() float64
}

// IsSubmodular reports whether obj is monotone submodular: true for
// coverage and distinguishability at every k (Lemmas 13 and 17), false
// for identifiability (Propositions 15 and 16). Submodular objectives
// admit the lazy-greedy engine and branch-and-bound pruning; callers such
// as the placemon facade use this to pick a default algorithm.
func IsSubmodular(obj Objective) bool { return obj != nil && obj.submodular() }

// ---- Coverage (MCSP) -------------------------------------------------

type coverageObjective struct {
	interest *bitset.Set // nil = all nodes
}

// NewCoverage returns the |C(P)| objective of Section II-B1.
func NewCoverage() Objective { return coverageObjective{} }

// NewCoverageOfInterest returns |C(P) ∩ N_I| (Section VII-B). The interest
// list indexes nodes of the instance graph.
func NewCoverageOfInterest(numNodes int, interest []int) Objective {
	return coverageObjective{interest: bitset.FromIndices(numNodes, interest...)}
}

func (o coverageObjective) Name() string {
	if o.interest != nil {
		return "coverage-interest"
	}
	return "coverage"
}

func (o coverageObjective) K() int { return 0 }

func (o coverageObjective) submodular() bool { return true }

func (o coverageObjective) newEvaluator(numNodes int) evaluator {
	return &coverageEval{covered: bitset.New(numNodes), interest: o.interest}
}

type coverageEval struct {
	covered  *bitset.Set
	interest *bitset.Set
}

func (e *coverageEval) Add(paths []*bitset.Sparse) {
	for _, p := range paths {
		p.UnionInto(e.covered)
	}
}

// Gain counts the nodes (of interest) on paths that are not yet
// covered, each once however many paths share it.
func (e *coverageEval) Gain(paths []*bitset.Sparse) float64 {
	seen := markers.Get().(*bitset.Marker)
	defer markers.Put(seen)
	seen.Reset(e.covered.Cap())
	gain := 0
	for _, p := range paths {
		p.ForEach(func(v int) bool {
			if !e.covered.Contains(v) && (e.interest == nil || e.interest.Contains(v)) && seen.Mark(v) {
				gain++
			}
			return true
		})
	}
	return float64(gain)
}

// markers pools coverage gain scratch, one Marker per concurrent Gain.
var markers = sync.Pool{New: func() any { return new(bitset.Marker) }}

func (e *coverageEval) Clone() evaluator {
	return &coverageEval{covered: e.covered.Clone(), interest: e.interest}
}

func (e *coverageEval) Value() float64 {
	if e.interest != nil {
		return float64(e.covered.IntersectionCount(e.interest))
	}
	return float64(e.covered.Count())
}

// ---- Identifiability (MISP) and Distinguishability (MDSP), k = 1 ------

// partitionStat names which k = 1 statistic of the equivalence-class
// partition an objective maximizes.
type partitionStat int

const (
	statS1 partitionStat = iota
	statD1
	statS1Interest
	statD1Interest
)

type partitionObjective struct {
	name         string
	stat         partitionStat
	interest     *bitset.Set
	isSubmodular bool
}

func (o partitionObjective) Name() string { return o.name }

func (o partitionObjective) K() int { return 1 }

func (o partitionObjective) submodular() bool { return o.isSubmodular }

func (o partitionObjective) newEvaluator(numNodes int) evaluator {
	return &partitionEval{pt: monitor.NewPartitionOfInterest(numNodes, o.interest), stat: o.stat}
}

type partitionEval struct {
	pt   *monitor.Partition
	stat partitionStat
}

func (e *partitionEval) Add(paths []*bitset.Sparse) { e.pt.RefineSparse(paths) }

func (e *partitionEval) Gain(paths []*bitset.Sparse) float64 {
	switch e.stat {
	case statS1:
		return float64(e.pt.GainS1Sparse(paths))
	case statD1:
		return float64(e.pt.GainD1Sparse(paths))
	case statS1Interest:
		return float64(e.pt.GainS1InterestSparse(paths))
	default:
		return float64(e.pt.GainD1InterestSparse(paths))
	}
}

func (e *partitionEval) Clone() evaluator {
	return &partitionEval{pt: e.pt.Clone(), stat: e.stat}
}

func (e *partitionEval) Value() float64 {
	switch e.stat {
	case statS1:
		return float64(e.pt.S1())
	case statD1:
		return float64(e.pt.D1())
	case statS1Interest:
		return float64(e.pt.S1Interest())
	default:
		return float64(e.pt.D1Interest())
	}
}

// NewIdentifiability returns the |S_k(P)| objective. k = 1 uses the
// incremental equivalence-class structure (Section V-D1); k > 1 falls back
// to exact enumeration and is exponential in k — suitable only for small
// networks.
func NewIdentifiability(k int) (Objective, error) {
	switch {
	case k < 1:
		return nil, fmt.Errorf("placement: identifiability requires k ≥ 1, got %d", k)
	case k == 1:
		return partitionObjective{name: "identifiability-1", stat: statS1}, nil
	default:
		return enumerationObjective{name: fmt.Sprintf("identifiability-%d", k), k: k, kind: kindIdentifiability}, nil
	}
}

// NewDistinguishability returns the |D_k(P)| objective, the paper's
// best-overall placement driver. k = 1 uses incremental refinement; k > 1
// enumerates F_k exactly.
func NewDistinguishability(k int) (Objective, error) {
	switch {
	case k < 1:
		return nil, fmt.Errorf("placement: distinguishability requires k ≥ 1, got %d", k)
	case k == 1:
		return partitionObjective{name: "distinguishability-1", stat: statD1, isSubmodular: true}, nil
	default:
		return enumerationObjective{name: fmt.Sprintf("distinguishability-%d", k), k: k, kind: kindDistinguishability}, nil
	}
}

// NewIdentifiabilityOfInterest returns |S_1(P) ∩ N_I| (Section VII-B).
func NewIdentifiabilityOfInterest(numNodes int, interest []int) Objective {
	return partitionObjective{
		name:     "identifiability-1-interest",
		stat:     statS1Interest,
		interest: bitset.FromIndices(numNodes, interest...),
	}
}

// NewDistinguishabilityOfInterest returns the Section VII-B interest-aware
// distinguishability at k = 1: the number of distinguishable hypothesis
// pairs {F, F'} with F a single-node failure of an interest node.
func NewDistinguishabilityOfInterest(numNodes int, interest []int) Objective {
	return partitionObjective{
		name:         "distinguishability-1-interest",
		stat:         statD1Interest,
		interest:     bitset.FromIndices(numNodes, interest...),
		isSubmodular: true,
	}
}

// ---- General k ≥ 2 by enumeration --------------------------------------

type enumerationKind int

const (
	kindIdentifiability enumerationKind = iota + 1
	kindDistinguishability
)

type enumerationObjective struct {
	name string
	k    int
	kind enumerationKind
}

func (o enumerationObjective) Name() string { return o.name }

func (o enumerationObjective) K() int { return o.k }

// submodular: |D_k| is monotone submodular for every k (Lemma 17);
// |S_k| is not (Proposition 15).
func (o enumerationObjective) submodular() bool { return o.kind == kindDistinguishability }

func (o enumerationObjective) newEvaluator(numNodes int) evaluator {
	return &enumerationEval{ps: monitor.NewPathSet(numNodes), k: o.k, kind: o.kind}
}

type enumerationEval struct {
	ps   *monitor.PathSet
	k    int
	kind enumerationKind
}

func (e *enumerationEval) Add(paths []*bitset.Sparse) {
	// Enumeration only ever runs at k ≥ 2 on small networks (it is
	// exponential in k), so materializing dense sets here is cheap and
	// keeps monitor.PathSet's dense signature machinery untouched.
	dense := make([]*bitset.Set, len(paths))
	for i, p := range paths {
		dense[i] = p.Dense()
	}
	if err := e.ps.AddAll(dense); err != nil {
		// Paths come from the instance's precomputed elements, which are
		// validated at construction; failure here is a programming error.
		panic(fmt.Sprintf("placement: %v", err))
	}
}

// Gain is the reference clone-add-value: enumeration runs only at k ≥ 2
// on small networks, where a full re-enumeration dominates the clone.
func (e *enumerationEval) Gain(paths []*bitset.Sparse) float64 {
	trial := e.Clone()
	trial.Add(paths)
	return trial.Value() - e.Value()
}

func (e *enumerationEval) Clone() evaluator {
	return &enumerationEval{ps: e.ps.Clone(), k: e.k, kind: e.kind}
}

func (e *enumerationEval) Value() float64 {
	switch e.kind {
	case kindIdentifiability:
		return float64(monitor.IdentifiabilityK(e.ps, e.k))
	default:
		return float64(monitor.DistinguishabilityK(e.ps, e.k))
	}
}
