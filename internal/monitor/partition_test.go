package monitor

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bitset"
)

func TestPartitionEmpty(t *testing.T) {
	pt := NewPartition(5)
	if pt.S1() != 0 {
		t.Fatalf("S1 = %d, want 0", pt.S1())
	}
	if pt.D1() != 0 {
		t.Fatalf("D1 = %d, want 0", pt.D1())
	}
	if pt.Coverage() != 0 {
		t.Fatalf("Coverage = %d, want 0", pt.Coverage())
	}
	if pt.NumGroups() != 1 {
		t.Fatalf("NumGroups = %d, want 1", pt.NumGroups())
	}
}

func TestPartitionZeroNodes(t *testing.T) {
	pt := NewPartition(0)
	if pt.S1() != 0 || pt.D1() != 0 || pt.NumGroups() != 0 {
		t.Fatal("degenerate partition should be all zeros")
	}
	deg := pt.Degrees()
	if len(deg) != 1 || deg[0] != 0 {
		t.Fatalf("Degrees = %v", deg)
	}
}

func TestPartitionRefineSplits(t *testing.T) {
	pt := NewPartition(4)
	pt.Refine([]*bitset.Set{bitset.FromIndices(4, 0, 1)})
	want := [][]int{{0, 1}, {2, 3}}
	if got := pt.Groups(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Groups = %v, want %v", got, want)
	}
	pt.Refine([]*bitset.Set{bitset.FromIndices(4, 1, 2)})
	want = [][]int{{0}, {1}, {2}, {3}}
	if got := pt.Groups(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Groups = %v, want %v", got, want)
	}
	// Node 3 is uncovered, so S1 counts only 0, 1, 2.
	if got := pt.S1(); got != 3 {
		t.Fatalf("S1 = %d, want 3", got)
	}
}

func TestPartitionRefineEmptyNoop(t *testing.T) {
	pt := NewPartition(4)
	pt.Refine(nil)
	if pt.NumGroups() != 1 {
		t.Fatal("Refine(nil) should be a no-op")
	}
}

func TestPartitionRefineUniverseMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewPartition(4).Refine([]*bitset.Set{bitset.New(5)})
}

func TestPartitionMatchesEquivalenceGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(12)
		ps := randomPathSet(rng, n, rng.Intn(8), 5)
		q := NewEquivalenceGraph(ps)
		pt := NewPartitionFromPaths(ps)
		if q.S1() != pt.S1() {
			t.Fatalf("trial %d: S1 %d != %d\npaths=%v", trial, q.S1(), pt.S1(), dumpPaths(ps))
		}
		if q.D1() != pt.D1() {
			t.Fatalf("trial %d: D1 %d != %d\npaths=%v", trial, q.D1(), pt.D1(), dumpPaths(ps))
		}
		// Degrees must agree node by node (v0 = index n).
		qd := make([]int, n+1)
		for v := 0; v <= n; v++ {
			qd[v] = q.Degree(v)
		}
		if pd := pt.Degrees(); !reflect.DeepEqual(qd, pd) {
			t.Fatalf("trial %d: degrees %v != %v", trial, qd, pd)
		}
	}
}

func TestPartitionMatchesGeneralKAtK1(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(9)
		ps := randomPathSet(rng, n, rng.Intn(6), 4)
		pt := NewPartitionFromPaths(ps)
		if got, want := pt.S1(), IdentifiabilityK(ps, 1); got != want {
			t.Fatalf("trial %d: S1 partition %d != enumeration %d", trial, got, want)
		}
		if got, want := pt.D1(), DistinguishabilityK(ps, 1); got != want {
			t.Fatalf("trial %d: D1 partition %d != enumeration %d", trial, got, want)
		}
	}
}

func TestPartitionIncrementalEqualsBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(10)
		ps := randomPathSet(rng, n, 1+rng.Intn(7), 4)
		batch := NewPartitionFromPaths(ps)
		inc := NewPartition(n)
		for i := 0; i < ps.Len(); i++ {
			inc.Refine([]*bitset.Set{ps.Path(i)})
		}
		// The index-based sparse refinement, fed in uneven batches.
		sparse := NewPartition(n)
		for lo := 0; lo < ps.Len(); {
			hi := min(lo+1+rng.Intn(3), ps.Len())
			var chunk []*bitset.Sparse
			for i := lo; i < hi; i++ {
				chunk = append(chunk, bitset.SparseFromSet(ps.Path(i)))
			}
			sparse.RefineSparse(chunk)
			lo = hi
		}
		q := NewEquivalenceGraph(ps)
		wantDeg := make([]int, n+1)
		for v := 0; v <= n; v++ {
			wantDeg[v] = q.Degree(v)
		}
		want := signatureGroups(ps)
		for name, pt := range map[string]*Partition{"batch": batch, "incremental": inc, "sparse": sparse} {
			if got := pt.Groups(); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d %s: Groups %v, want %v", trial, name, got, want)
			}
			if got := pt.Degrees(); !reflect.DeepEqual(got, wantDeg) {
				t.Fatalf("trial %d %s: Degrees %v, want %v", trial, name, got, wantDeg)
			}
			if pt.S1() != q.S1() || pt.D1() != q.D1() || pt.Coverage() != batch.Coverage() {
				t.Fatalf("trial %d %s: S1 %d D1 %d, want %d %d", trial, name, pt.S1(), pt.D1(), q.S1(), q.D1())
			}
		}
	}
}

// signatureGroups is the definition Partition implements: nodes grouped
// by the exact set of paths through them, each group sorted, groups
// ordered by smallest member.
func signatureGroups(ps *PathSet) [][]int {
	byKey := map[string][]int{}
	var keys []string
	for v := 0; v < ps.NumNodes(); v++ {
		key := make([]byte, ps.Len())
		for i := range key {
			if ps.Path(i).Contains(v) {
				key[i] = 1
			}
		}
		if _, ok := byKey[string(key)]; !ok {
			keys = append(keys, string(key))
		}
		byKey[string(key)] = append(byKey[string(key)], v)
	}
	out := make([][]int, len(keys))
	for i, k := range keys {
		out[i] = byKey[k]
	}
	return out
}

// TestPartitionGainMatchesRefine pins the read-only gains to the
// difference a real refinement makes, for all four statistics, on
// random partitions with random nodes of interest. Candidate batches
// include a repeated path and, now and then, more than 64 paths (the
// multi-word pattern case). It also pins S1Interest and D1Interest to
// their definitions over Groups.
func TestPartitionGainMatchesRefine(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	randomPath := func(n int) *bitset.Sparse {
		var nodes []int
		for v := 0; v < n; v++ {
			if rng.Intn(4) == 0 {
				nodes = append(nodes, v)
			}
		}
		if len(nodes) == 0 {
			nodes = append(nodes, rng.Intn(n))
		}
		return bitset.SparseFromNodes(n, nodes)
	}
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(24)
		var interest []int
		for v := 0; v < n; v++ {
			if rng.Intn(2) == 0 {
				interest = append(interest, v)
			}
		}
		pt := NewPartitionOfInterest(n, bitset.FromIndices(n, interest...))
		for i := rng.Intn(4); i > 0; i-- {
			pt.RefineSparse([]*bitset.Sparse{randomPath(n)})
		}
		for c := 0; c < 5; c++ {
			var cand []*bitset.Sparse
			size := 1 + rng.Intn(4)
			if rng.Intn(6) == 0 {
				size = 65 + rng.Intn(10)
			}
			for len(cand) < size {
				cand = append(cand, randomPath(n))
			}
			if rng.Intn(3) == 0 {
				cand = append(cand, cand[rng.Intn(len(cand))])
			}
			after := pt.Clone()
			after.RefineSparse(cand)
			if got, want := pt.GainS1Sparse(cand), after.S1()-pt.S1(); got != want {
				t.Fatalf("trial %d: GainS1 %d, want %d", trial, got, want)
			}
			if got, want := pt.GainD1Sparse(cand), after.D1()-pt.D1(); got != want {
				t.Fatalf("trial %d: GainD1 %d, want %d", trial, got, want)
			}
			if got, want := pt.GainS1InterestSparse(cand), after.S1Interest()-pt.S1Interest(); got != want {
				t.Fatalf("trial %d: GainS1Interest %d, want %d", trial, got, want)
			}
			if got, want := pt.GainD1InterestSparse(cand), after.D1Interest()-pt.D1Interest(); got != want {
				t.Fatalf("trial %d: GainD1Interest %d, want %d", trial, got, want)
			}
			for _, p := range []*Partition{pt, after} {
				s1, d1 := interestStats(p, bitset.FromIndices(n, interest...))
				if p.S1Interest() != s1 || p.D1Interest() != d1 {
					t.Fatalf("trial %d: S1Interest %d D1Interest %d, want %d %d",
						trial, p.S1Interest(), p.D1Interest(), s1, d1)
				}
			}
		}
	}
}

// interestStats computes S1Interest and D1Interest from their
// definitions over the class listing.
func interestStats(pt *Partition, interest *bitset.Set) (int, int64) {
	pairs := func(n int64) int64 {
		if n < 2 {
			return 0
		}
		return n * (n - 1) / 2
	}
	n, i := int64(pt.NumNodes()), int64(interest.Count())
	s1, d1 := 0, pairs(n+1)-pairs(n+1-i)
	for _, g := range pt.Groups() {
		size, in := int64(len(g)), int64(0)
		for _, v := range g {
			if interest.Contains(v) {
				in++
			}
		}
		if len(g) == 1 && in == 1 && pt.Covered(g[0]) {
			s1++
		}
		if !pt.Covered(g[0]) {
			size++
		}
		d1 -= pairs(size) - pairs(size-in)
	}
	return s1, d1
}

func TestPartitionCloneIndependent(t *testing.T) {
	pt := NewPartition(4)
	pt.Refine([]*bitset.Set{bitset.FromIndices(4, 0)})
	c := pt.Clone()
	c.Refine([]*bitset.Set{bitset.FromIndices(4, 1)})
	if pt.Coverage() != 1 {
		t.Fatal("clone refinement must not affect original")
	}
	if c.Coverage() != 2 {
		t.Fatal("clone should see its own refinement")
	}
}

func TestPartitionManyPathsStringKeys(t *testing.T) {
	// Refining with > 64 paths at once exercises multi-word patterns.
	n := 80
	paths := make([]*bitset.Set, 70)
	for i := range paths {
		paths[i] = bitset.FromIndices(n, i, i+1)
	}
	pt := NewPartition(n)
	pt.Refine(paths)

	inc := NewPartition(n)
	for _, p := range paths {
		inc.Refine([]*bitset.Set{p})
	}
	if pt.S1() != inc.S1() || pt.D1() != inc.D1() {
		t.Fatalf("string-key path: bulk (S1=%d D1=%d) != incremental (S1=%d D1=%d)",
			pt.S1(), pt.D1(), inc.S1(), inc.D1())
	}
}

func TestPartitionDegreesV0(t *testing.T) {
	pt := NewPartition(4)
	pt.Refine([]*bitset.Set{bitset.FromIndices(4, 0, 1)})
	deg := pt.Degrees()
	// Class {0,1}: degree 1. Class {2,3,v0}: degree 2 each.
	want := []int{1, 1, 2, 2, 2}
	if !reflect.DeepEqual(deg, want) {
		t.Fatalf("Degrees = %v, want %v", deg, want)
	}
}

func TestPartitionString(t *testing.T) {
	pt := NewPartition(3)
	pt.Refine([]*bitset.Set{bitset.FromIndices(3, 0)})
	if got := pt.String(); got != "partition{[0] [1,2]}" {
		t.Fatalf("String = %q", got)
	}
}

func dumpPaths(ps *PathSet) [][]int {
	out := make([][]int, ps.Len())
	for i := range out {
		out[i] = ps.Path(i).Indices()
	}
	return out
}
