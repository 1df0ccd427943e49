package bitset

import (
	"math"
	"testing"
)

func TestMarker(t *testing.T) {
	var m Marker
	m.Reset(4)
	if !m.Mark(2) || m.Mark(2) {
		t.Fatal("Mark must report a first mark once")
	}
	m.Reset(4)
	if !m.Mark(2) {
		t.Fatal("Reset must forget earlier marks")
	}
	// Growing the universe keeps working; shrinking keeps the memory.
	m.Reset(10)
	if !m.Mark(9) || !m.Mark(2) {
		t.Fatal("grown marker lost a fresh mark")
	}
	m.Reset(3)
	if len(m.stamp) != 10 || !m.Mark(2) {
		t.Fatal("shrinking Reset must keep memory and forget marks")
	}
}

func TestMarkerEpochWrap(t *testing.T) {
	var m Marker
	m.Reset(3)
	m.Mark(1) // stamped with epoch 1
	m.epoch = math.MaxUint32
	m.Mark(0) // stamped with the last epoch before the wrap
	m.Reset(3)
	if !m.Mark(0) || !m.Mark(1) {
		t.Fatal("marks from before the epoch wrapped leaked into the new epoch")
	}
}
