package monitor

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/bitset"
	"repro/internal/combinat"
)

// Partition is the efficient incremental counterpart of the equivalence
// graph Q (Section V-D1). Instead of an adjacency matrix it keeps the
// equivalence classes of single-node failure hypotheses: two nodes are in
// the same group iff they are traversed by exactly the same set of paths
// added so far. Adding measurement paths can only split groups ("once
// distinguishable, always distinguishable"), so refinement is monotone and
// local: a node→class index lets new paths split only the classes their
// nodes fall in, in time proportional to the nodes on the new paths
// rather than O(|N|) per update or O(|N|² · |P|) for Q.
//
// The same locality makes marginal gains cheap: the Gain*Sparse methods
// report how a statistic would change if paths were added, without
// modifying the partition, by bucketing only the nodes on those paths.
// They only read the partition, so any number of goroutines may call
// them on one partition at once (but not concurrently with a Refine).
//
// The virtual no-failure node v0 is implicit: it always belongs with the
// uncovered nodes (empty signature). The uncovered nodes, when any exist,
// form exactly one group because an empty signature is equal only to
// another empty signature.
type Partition struct {
	numNodes int
	covered  *bitset.Set
	groups   [][]int
	classOf  []int32 // node → index of its group in groups
	pos      []int32 // node → its index within groups[classOf[node]]
	// interest is the node subset the *Interest statistics count (nil:
	// none); inInterest[c] is how many members of groups[c] lie in it.
	interest   *bitset.Set
	inInterest []int64
}

// NewPartition returns the partition of an empty path set: every node is
// uncovered and mutually indistinguishable.
func NewPartition(numNodes int) *Partition {
	return NewPartitionOfInterest(numNodes, nil)
}

// NewPartitionOfInterest is NewPartition that also tracks, per class, how
// many nodes of interest (Section VII-B) it holds, which S1Interest,
// D1Interest and their gains need. A nil interest tracks none.
func NewPartitionOfInterest(numNodes int, interest *bitset.Set) *Partition {
	if numNodes < 0 {
		numNodes = 0
	}
	pt := &Partition{
		numNodes: numNodes,
		covered:  bitset.New(numNodes),
		classOf:  make([]int32, numNodes),
		pos:      make([]int32, numNodes),
		interest: interest,
	}
	if numNodes > 0 {
		all := make([]int, numNodes)
		var in int64
		for i := range all {
			all[i] = i
			pt.pos[i] = int32(i)
			if interest != nil && interest.Contains(i) {
				in++
			}
		}
		pt.groups = [][]int{all}
		if interest != nil {
			pt.inInterest = []int64{in}
		}
	}
	return pt
}

// NewPartitionFromPaths builds the partition for an existing path set.
func NewPartitionFromPaths(ps *PathSet) *Partition {
	pt := NewPartition(ps.NumNodes())
	paths := make([]*bitset.Set, ps.Len())
	for i := range paths {
		paths[i] = ps.Path(i)
	}
	pt.Refine(paths)
	return pt
}

// NumNodes returns |N|.
func (pt *Partition) NumNodes() int { return pt.numNodes }

// NumGroups returns the current number of equivalence classes over real
// nodes (v0 not counted as a separate group).
func (pt *Partition) NumGroups() int { return len(pt.groups) }

// Refine splits the partition according to the node membership of the new
// paths and marks their nodes covered. Paths must use the node universe.
func (pt *Partition) Refine(paths []*bitset.Set) {
	sparse := make([]*bitset.Sparse, len(paths))
	for i, p := range paths {
		sparse[i] = bitset.SparseFromSet(p)
	}
	pt.RefineSparse(sparse)
}

// RefineSparse is Refine over sparse paths — the representation the
// placement engines store at 10k+ nodes. Only the classes the new paths
// touch are split; the rest of the partition is not visited.
func (pt *Partition) RefineSparse(paths []*bitset.Sparse) {
	if len(paths) == 0 {
		return
	}
	sp := splitters.Get().(*splitter)
	defer splitters.Put(sp)
	pt.split(paths, sp)
	for _, r := range sp.runs {
		// Pull the class's nodes on the new paths out of its group by
		// swap-removal, then give each cell a group of its own. When no
		// member is left behind, the first cell inherits the class index
		// so that groups never holds an empty class.
		g := pt.groups[r.class]
		for _, i := range sp.order[sp.cells[r.lo].lo:sp.cells[r.hi-1].hi] {
			v := sp.nodes[i]
			at, last := pt.pos[v], len(g)-1
			g[at] = g[last]
			pt.pos[g[at]] = at
			g = g[:last]
		}
		pt.groups[r.class] = g
		if pt.interest != nil {
			pt.inInterest[r.class] -= r.interest
		}
		for k, cl := range sp.cells[r.lo:r.hi] {
			members := make([]int, 0, cl.hi-cl.lo)
			for _, i := range sp.order[cl.lo:cl.hi] {
				members = append(members, int(sp.nodes[i]))
			}
			id := int32(len(pt.groups))
			if k == 0 && len(g) == 0 {
				id = r.class
				pt.groups[id] = members
			} else {
				pt.groups = append(pt.groups, members)
				if pt.interest != nil {
					pt.inInterest = append(pt.inInterest, 0)
				}
			}
			if pt.interest != nil {
				pt.inInterest[id] = cl.interest
			}
			for j, v := range members {
				pt.classOf[v], pt.pos[v] = id, int32(j)
			}
		}
	}
	for _, p := range paths {
		p.UnionInto(pt.covered)
	}
}

// splitter is the working memory of one refinement or gain evaluation.
// split fills it with the nodes on the new paths, each with its
// membership pattern over those paths, ordered so that nodes sharing a
// class and a pattern — one cell of the refined partition — are
// adjacent. Splitters are pooled, so concurrent gain evaluations on one
// partition each get their own.
type splitter struct {
	seen  bitset.Marker
	slot  []int32  // node → index into nodes, valid while seen
	nodes []int32  // nodes on the new paths, in first-visit order
	pats  []uint64 // pattern of nodes[i]: pats[i*words : (i+1)*words]
	words int
	order []int32 // indices into nodes, sorted by (class, pattern)
	cells []cell
	runs  []classRun
}

// cell is one (class, pattern) bucket: order[lo:hi], of which interest
// nodes are of interest.
type cell struct {
	lo, hi   int32
	interest int64
}

// classRun is one class the new paths touch: its cells are cells[lo:hi],
// holding touched of its nodes, interest of which are of interest.
type classRun struct {
	class             int32
	lo, hi            int32
	touched, interest int64
}

var splitters = sync.Pool{New: func() any { return new(splitter) }}

func (sp *splitter) pattern(i int32) []uint64 {
	return sp.pats[int(i)*sp.words : int(i+1)*sp.words]
}

// split buckets the nodes on paths by (class, membership pattern) into
// sp. It reads the partition only. Patterns carry one bit per path, so
// any number of paths is handled by widening them to more words.
func (pt *Partition) split(paths []*bitset.Sparse, sp *splitter) {
	for _, p := range paths {
		if p.Cap() != pt.numNodes {
			panic(fmt.Sprintf("monitor: path universe %d != %d", p.Cap(), pt.numNodes))
		}
	}
	sp.seen.Reset(pt.numNodes)
	if len(sp.slot) < pt.numNodes {
		sp.slot = make([]int32, pt.numNodes)
	}
	sp.nodes, sp.pats = sp.nodes[:0], sp.pats[:0]
	sp.words = (len(paths) + 63) / 64
	for i, p := range paths {
		w, bit := i/64, uint64(1)<<(uint(i)%64)
		p.ForEach(func(v int) bool {
			if sp.seen.Mark(v) {
				sp.slot[v] = int32(len(sp.nodes))
				sp.nodes = append(sp.nodes, int32(v))
				for range sp.words {
					sp.pats = append(sp.pats, 0)
				}
			}
			sp.pats[int(sp.slot[v])*sp.words+w] |= bit
			return true
		})
	}

	sp.order = sp.order[:0]
	for i := range sp.nodes {
		sp.order = append(sp.order, int32(i))
	}
	slices.SortFunc(sp.order, func(a, b int32) int {
		if c := cmp.Compare(pt.classOf[sp.nodes[a]], pt.classOf[sp.nodes[b]]); c != 0 {
			return c
		}
		return slices.Compare(sp.pattern(a), sp.pattern(b))
	})

	sp.cells, sp.runs = sp.cells[:0], sp.runs[:0]
	for lo := 0; lo < len(sp.order); {
		first := sp.order[lo]
		class := pt.classOf[sp.nodes[first]]
		cl := cell{lo: int32(lo)}
		hi := lo
		for ; hi < len(sp.order); hi++ {
			i := sp.order[hi]
			if pt.classOf[sp.nodes[i]] != class || !slices.Equal(sp.pattern(i), sp.pattern(first)) {
				break
			}
			if pt.interest != nil && pt.interest.Contains(int(sp.nodes[i])) {
				cl.interest++
			}
		}
		cl.hi = int32(hi)
		if n := len(sp.runs); n == 0 || sp.runs[n-1].class != class {
			sp.runs = append(sp.runs, classRun{class: class, lo: int32(len(sp.cells)), hi: int32(len(sp.cells))})
		}
		r := &sp.runs[len(sp.runs)-1]
		r.hi++
		r.touched += int64(hi - lo)
		r.interest += cl.interest
		sp.cells = append(sp.cells, cl)
		lo = hi
	}
}

// classTerm is one class's contribution to a per-class-additive
// statistic, given the class's size, its nodes of interest, and whether
// it is the uncovered class (which v0 joins).
type classTerm func(size, interest int64, uncovered bool) int64

// total sums term over the classes.
func (pt *Partition) total(term classTerm) int64 {
	var sum int64
	for c, g := range pt.groups {
		sum += term(int64(len(g)), pt.interestIn(c), pt.isUncovered(g))
	}
	return sum
}

// gain returns how total(term) would change if paths were refined in,
// visiting only the classes they touch: each such class is replaced by
// the part of it off the new paths (still uncovered if it was) and one
// covered class per cell.
func (pt *Partition) gain(paths []*bitset.Sparse, term classTerm) int64 {
	if len(paths) == 0 {
		return 0
	}
	sp := splitters.Get().(*splitter)
	defer splitters.Put(sp)
	pt.split(paths, sp)
	var delta int64
	for _, r := range sp.runs {
		g := pt.groups[r.class]
		size, in, uncovered := int64(len(g)), pt.interestIn(int(r.class)), pt.isUncovered(g)
		delta += term(size-r.touched, in-r.interest, uncovered) - term(size, in, uncovered)
		for _, cl := range sp.cells[r.lo:r.hi] {
			delta += term(int64(cl.hi-cl.lo), cl.interest, false)
		}
	}
	return delta
}

func (pt *Partition) interestIn(class int) int64 {
	if pt.interest == nil {
		return 0
	}
	return pt.inInterest[class]
}

// Clone returns an independent copy.
func (pt *Partition) Clone() *Partition {
	c := &Partition{
		numNodes:   pt.numNodes,
		covered:    pt.covered.Clone(),
		groups:     make([][]int, len(pt.groups)),
		classOf:    slices.Clone(pt.classOf),
		pos:        slices.Clone(pt.pos),
		interest:   pt.interest,
		inInterest: slices.Clone(pt.inInterest),
	}
	for i, g := range pt.groups {
		c.groups[i] = append([]int(nil), g...)
	}
	return c
}

// Coverage returns |C(P)| for the paths refined so far.
func (pt *Partition) Coverage() int { return pt.covered.Count() }

// Covered reports whether node v lies on at least one refined path.
func (pt *Partition) Covered(v int) bool { return pt.covered.Contains(v) }

// isUncovered reports whether a group holds uncovered nodes. Groups are
// homogeneous: equal signatures are either all empty or all non-empty.
func (pt *Partition) isUncovered(group []int) bool {
	return !pt.covered.Contains(group[0])
}

// S1 returns |S_1(P)|: covered nodes alone in their class.
func (pt *Partition) S1() int { return int(pt.total(s1Term)) }

// D1 returns |D_1(P)|: total hypothesis pairs C(|N|+1, 2) minus the
// indistinguishable pairs inside each class, counting v0 with the
// uncovered class.
func (pt *Partition) D1() int64 {
	return combinat.Pairs(int64(pt.numNodes)+1) + pt.total(d1Term)
}

// S1Interest returns |S_1(P) ∩ N_I|: covered nodes of interest alone in
// their class (0 without an interest set).
func (pt *Partition) S1Interest() int { return int(pt.total(s1InterestTerm)) }

// D1Interest returns the Section VII-B interest-aware distinguishability
// at k = 1: the distinguishable pairs among the |N|+1 single-failure
// hypotheses with at least one member of interest (v0 is never of
// interest). It is 0 without an interest set.
func (pt *Partition) D1Interest() int64 {
	n, i := int64(pt.numNodes), pt.interestCount()
	return combinat.Pairs(n+1) - combinat.Pairs(n+1-i) + pt.total(d1InterestTerm)
}

// GainS1Sparse returns S1 after refining by paths minus S1 now, without
// modifying the partition. It costs time in the nodes on paths, not in
// |N|, and is safe for concurrent use.
func (pt *Partition) GainS1Sparse(paths []*bitset.Sparse) int {
	return int(pt.gain(paths, s1Term))
}

// GainD1Sparse is GainS1Sparse for D1.
func (pt *Partition) GainD1Sparse(paths []*bitset.Sparse) int64 {
	return pt.gain(paths, d1Term)
}

// GainS1InterestSparse is GainS1Sparse for S1Interest.
func (pt *Partition) GainS1InterestSparse(paths []*bitset.Sparse) int {
	return int(pt.gain(paths, s1InterestTerm))
}

// GainD1InterestSparse is GainS1Sparse for D1Interest.
func (pt *Partition) GainD1InterestSparse(paths []*bitset.Sparse) int64 {
	return pt.gain(paths, d1InterestTerm)
}

func (pt *Partition) interestCount() int64 {
	if pt.interest == nil {
		return 0
	}
	return int64(pt.interest.Count())
}

// The per-class terms of the four statistics. An uncovered class shares
// its empty signature with v0, so it has one more hypothesis and none
// of its nodes is identifiable.

func s1Term(size, _ int64, uncovered bool) int64 {
	if size == 1 && !uncovered {
		return 1
	}
	return 0
}

func d1Term(size, _ int64, uncovered bool) int64 {
	if uncovered {
		size++
	}
	return -combinat.Pairs(size)
}

func s1InterestTerm(size, interest int64, uncovered bool) int64 {
	if size == 1 && interest == 1 && !uncovered {
		return 1
	}
	return 0
}

// d1InterestTerm counts the class's indistinguishable pairs with at
// least one member of interest.
func d1InterestTerm(size, interest int64, uncovered bool) int64 {
	if uncovered {
		size++
	}
	return -(combinat.Pairs(size) - combinat.Pairs(size-interest))
}

// Degrees returns the degree of uncertainty for every node of Q, with
// index numNodes holding v0's degree (Fig. 8's statistic). A node's degree
// is the number of other hypotheses with an identical signature.
func (pt *Partition) Degrees() []int {
	deg := make([]int, pt.numNodes+1)
	v0Degree := 0
	for _, g := range pt.groups {
		uncovered := pt.isUncovered(g)
		d := len(g) - 1
		if uncovered {
			d++ // also adjacent to v0
			v0Degree = len(g)
		}
		for _, v := range g {
			deg[v] = d
		}
	}
	deg[pt.numNodes] = v0Degree
	return deg
}

// Groups returns the equivalence classes, each sorted ascending, ordered
// by smallest member. The uncovered class, if any, does not include v0;
// use Degrees for v0-aware statistics.
func (pt *Partition) Groups() [][]int {
	out := make([][]int, len(pt.groups))
	for i, g := range pt.groups {
		cp := append([]int(nil), g...)
		sort.Ints(cp)
		out[i] = cp
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// String summarizes the partition for debugging.
func (pt *Partition) String() string {
	var b strings.Builder
	b.WriteString("partition{")
	for i, g := range pt.Groups() {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteByte('[')
		for j, v := range g {
			if j > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Itoa(v))
		}
		b.WriteByte(']')
	}
	b.WriteByte('}')
	return b.String()
}
