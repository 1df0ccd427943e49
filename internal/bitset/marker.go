package bitset

// Marker is a scratch membership set over [0, n) whose Reset costs O(1)
// instead of O(n): each mark records the epoch it was made in, and
// Reset just starts a new epoch. It is the working memory for
// computations that touch a few tens of nodes of a large universe many
// times over — a marginal-gain evaluation visits only the nodes on a
// candidate's paths, and clearing a dense Set per evaluation would cost
// more than the evaluation itself.
//
// A Marker is not safe for concurrent use; give each goroutine its own
// (a sync.Pool of Markers works well).
type Marker struct {
	stamp []uint32
	epoch uint32
}

// Reset empties the marker and sizes it for the universe [0, n). A
// marker that already spans n or more elements keeps its memory.
func (m *Marker) Reset(n int) {
	if n > len(m.stamp) {
		m.stamp = make([]uint32, n)
		m.epoch = 0
	}
	m.epoch++
	if m.epoch == 0 {
		// The epoch counter wrapped: stale stamps could now collide.
		clear(m.stamp)
		m.epoch = 1
	}
}

// Mark adds i and reports whether it was absent. It panics if i lies
// outside the marker's capacity.
func (m *Marker) Mark(i int) bool {
	if m.stamp[i] == m.epoch {
		return false
	}
	m.stamp[i] = m.epoch
	return true
}
