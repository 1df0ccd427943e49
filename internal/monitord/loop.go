package monitord

import (
	"fmt"
	"sync"

	"repro/internal/tomography"
)

// ErrClosed is returned by Loop operations after Close: the scenario the
// loop served has been deleted, so late observations have nowhere to go.
var ErrClosed = fmt.Errorf("monitord: monitor loop closed")

// Loop wraps a Monitor for concurrent use: every operation holds one
// mutex for its whole duration, so a ReportBatch never interleaves with
// another batch, a Diagnosis or a Snapshot, and readers never see a
// half-applied batch. It is the one serialization point for a scenario's
// monitor memory.
//
// After Close every operation fails with ErrClosed (or returns a zero
// value for error-free reads), so a late request against a deleted
// scenario is refused instead of mutating a monitor nobody reads.
type Loop struct {
	numConns int

	mu     sync.Mutex
	m      *Monitor
	closed bool
}

// Snapshot is a consistent point-in-time view of the monitor state.
type Snapshot struct {
	InOutage bool
	States   []ConnState
}

// NewLoop wraps m. The caller must not use m directly afterwards, and
// should Close the loop when the scenario goes away.
func NewLoop(m *Monitor) *Loop {
	return &Loop{numConns: m.NumConnections(), m: m}
}

// ReportBatch feeds several observations at the same virtual time and
// returns the concatenated events. A mismatched conns/ups length rejects
// the whole batch before anything is applied; on a bad connection index
// the prefix already applied stays applied, and the events it produced
// are returned alongside the error.
//
// The conns and ups slices are only read until ReportBatch returns, so
// callers may reuse them (the ingest path feeds pooled scratch directly).
func (l *Loop) ReportBatch(t float64, conns []int, ups []bool) ([]Event, error) {
	if len(conns) != len(ups) {
		return nil, fmt.Errorf("monitord: batch has %d connections but %d states", len(conns), len(ups))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, ErrClosed
	}
	var events []Event
	for i, conn := range conns {
		evs, err := l.m.Report(t, conn, ups[i])
		events = append(events, evs...)
		if err != nil {
			return events, err
		}
	}
	return events, nil
}

// Report feeds one observation; see Monitor.Report.
func (l *Loop) Report(t float64, conn int, up bool) ([]Event, error) {
	return l.ReportBatch(t, []int{conn}, []bool{up})
}

// Diagnosis returns the rolling diagnosis; see Monitor.Diagnosis.
func (l *Loop) Diagnosis() (*tomography.Diagnosis, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, ErrClosed
	}
	return l.m.Diagnosis()
}

// NumConnections returns the number of monitored connections. The count
// is fixed at construction, so this takes no lock.
func (l *Loop) NumConnections() int { return l.numConns }

// Snapshot returns the outage flag and every connection state as one
// serialized read; after Close it returns the zero Snapshot.
func (l *Loop) Snapshot() Snapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return Snapshot{}
	}
	return Snapshot{
		InOutage: l.m.InOutage(),
		States:   append([]ConnState(nil), l.m.states...),
	}
}

// InOutage reports whether any monitored connection is currently down —
// the same flag Snapshot carries, without copying the per-connection
// states. After Close it returns false.
func (l *Loop) InOutage() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return !l.closed && l.m.InOutage()
}

// ExportState captures the monitor's replayable state; see
// Monitor.ExportState. After Close it returns the zero State and false.
func (l *Loop) ExportState() (State, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return State{}, false
	}
	return l.m.ExportState(), true
}

// RestoreState overwrites the monitor's state; see Monitor.RestoreState.
func (l *Loop) RestoreState(st State) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.m.RestoreState(st)
}

// VerifyIncremental cross-checks the incremental diagnosis against a
// from-scratch recompute; see Monitor.VerifyIncremental. Test seam for
// the chaos soak and crash matrix.
func (l *Loop) VerifyIncremental() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.m.VerifyIncremental()
}

// Close marks the loop closed once any in-flight operation finishes.
// Subsequent operations return ErrClosed (or zero values). Close is
// idempotent and safe to call concurrently.
func (l *Loop) Close() {
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
}
