package placemon

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/placement"
	"repro/internal/registry"
	"repro/internal/server"
	"repro/internal/wal"
)

// This file is the multi-tenant side of the serving facade: a
// ScenarioSpec document describes one complete monitoring scenario — a
// network plus a deployed placement — and the daemon hosts many of them
// at once, each under its own ID with fully isolated state (see the
// README's Multi-tenancy section).

// Scenario administration errors. AddScenario and RemoveScenario wrap
// these so callers can errors.Is without reaching into internal packages.
var (
	// ErrScenarioExists means the ID is already registered.
	ErrScenarioExists = errors.New("placemon: scenario already exists")
	// ErrScenarioNotFound means no scenario has the ID.
	ErrScenarioNotFound = errors.New("placemon: scenario not found")
	// ErrScenarioLimit means the server is at its MaxScenarios cap.
	ErrScenarioLimit = errors.New("placemon: scenario limit reached")
)

// ScenarioSpec is the JSON scenario document the multi-tenant daemon
// accepts over PUT /v1/scenarios/{id}, persists through its store, and
// rebuilds at boot. It is self-contained: the network comes from either
// a built-in topology name or an inline edge list, and the placement
// document carries the services and hosts to monitor.
type ScenarioSpec struct {
	// Topology names a built-in topology (see TopologyNames). Empty means
	// the network is given inline by Nodes/Edges, or — when those are
	// empty too — named by Placement.Topology.
	Topology string `json:"topology,omitempty"`
	// Nodes and Edges describe a custom network inline: Nodes is the node
	// count and each edge is an undirected [u, v] pair.
	Nodes int      `json:"nodes,omitempty"`
	Edges [][2]int `json:"edges,omitempty"`
	// K is the scenario's failure budget for the rolling diagnosis
	// (0 means the server default).
	K int `json:"k,omitempty"`
	// Placement is the deployed placement to monitor, in the same
	// document form SavePlacement writes.
	Placement PlacementFile `json:"placement"`
}

// Network builds the spec's network: Topology if named, else the inline
// Nodes/Edges, else the topology the placement document names.
func (sp ScenarioSpec) Network() (*Network, error) {
	switch {
	case sp.Topology != "":
		return BuildTopology(sp.Topology)
	case sp.Nodes > 0:
		edges := make([]Edge, len(sp.Edges))
		for i, e := range sp.Edges {
			edges[i] = Edge{U: e[0], V: e[1]}
		}
		return NewNetwork(sp.Nodes, edges)
	case sp.Placement.Topology != "":
		return BuildTopology(sp.Placement.Topology)
	default:
		return nil, fmt.Errorf("placemon: scenario spec names no network (topology, nodes/edges, or placement.topology)")
	}
}

// ParseScenarioSpec decodes and structurally validates a scenario
// document: strict JSON, then the same placement invariants LoadPlacement
// enforces. Network-dependent bounds are checked when the scenario is
// built.
func ParseScenarioSpec(raw []byte) (ScenarioSpec, error) {
	var sp ScenarioSpec
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sp); err != nil {
		return sp, fmt.Errorf("placemon: decode scenario spec: %w", err)
	}
	return sp, sp.validate()
}

// validate is the structural half of ParseScenarioSpec, for specs built
// in memory rather than decoded.
func (sp ScenarioSpec) validate() error {
	if sp.Nodes < 0 {
		return fmt.Errorf("placemon: scenario spec: negative node count %d", sp.Nodes)
	}
	if sp.K < 0 {
		return fmt.Errorf("placemon: scenario spec: negative failure budget %d", sp.K)
	}
	// Round-trip the placement through its own loader so a scenario spec
	// cannot smuggle in a document SavePlacement/LoadPlacement would
	// reject.
	var buf bytes.Buffer
	if err := SavePlacement(&buf, sp.Placement); err != nil {
		return err
	}
	_, err := LoadPlacement(&buf)
	return err
}

// buildScenario is the server.BuildFunc the facade installs: document in,
// isolated monitoring state out. It is pure — the same document always
// builds an equivalent tenant — which is what makes store-backed reload
// at boot sound.
func buildScenario(id string, raw []byte) (*server.TenantConfig, error) {
	sp, err := ParseScenarioSpec(raw)
	if err != nil {
		return nil, err
	}
	nw, err := sp.Network()
	if err != nil {
		return nil, err
	}
	return sp.tenant(nw, nil)
}

// tenant builds the scenario's monitoring state on nw, its network.
// inst, when non-nil, must be prepared on nw for the placement's
// services at its alpha; it saves preparing another.
func (sp ScenarioSpec) tenant(nw *Network, inst *placement.Instance) (*server.TenantConfig, error) {
	paths, conns, _, err := buildMonitoring(nw, sp.Placement, inst)
	if err != nil {
		return nil, err
	}
	return &server.TenantConfig{
		NumNodes:    nw.NumNodes(),
		K:           sp.K,
		Paths:       paths,
		Connections: conns,
		Place:       nw.placeFunc(),
	}, nil
}

// NewScenarioServer builds a multi-tenant monitoring service with no
// boot-time default scenario: every scenario is created dynamically
// (AddScenario or PUT /v1/scenarios/{id}) or loaded from cfg.ScenarioDir
// at boot. The legacy single-scenario routes answer 404 until a scenario
// named "default" exists.
func NewScenarioServer(cfg ServerConfig) (*Server, error) {
	sc, err := cfg.innerConfig()
	if err != nil {
		return nil, err
	}
	inner, err := server.New(sc)
	if err != nil {
		return nil, fmt.Errorf("placemon: %w", err)
	}
	return &Server{inner: inner}, nil
}

// innerConfig translates the facade knobs shared by NewServer and
// NewScenarioServer, including the multi-tenant and cluster ones; when
// ScenarioDir is set it opens the file-backed scenario store.
func (cfg ServerConfig) innerConfig() (server.Config, error) {
	revise, prewarm := newNetworkReviser()
	sc := server.Config{
		K:                  cfg.K,
		Workers:            cfg.Workers,
		QueueDepth:         cfg.QueueDepth,
		RequestTimeout:     cfg.RequestTimeout,
		DrainTimeout:       cfg.DrainTimeout,
		DedupWindow:        cfg.DedupWindow,
		DiagnosisTimeout:   cfg.DiagnosisTimeout,
		EnablePprof:        cfg.EnablePprof,
		Logger:             cfg.Logger,
		SlowRequest:        cfg.SlowRequest,
		TraceBuffer:        cfg.TraceBuffer,
		BuildScenario:      buildScenario,
		ReviseNetwork:      revise,
		PrewarmPlacer:      prewarm,
		MaxScenarios:       cfg.MaxScenarios,
		TenantSeriesCap:    cfg.TenantSeriesCap,
		MaxJobsPerScenario: cfg.MaxJobsPerScenario,
	}
	if (cfg.NodeID == "") != (cfg.Peers == "") {
		return sc, fmt.Errorf("placemon: NodeID and Peers must be set together (got node ID %q, peers %q)", cfg.NodeID, cfg.Peers)
	}
	if cfg.NodeID != "" {
		members, err := cluster.New(cfg.NodeID, cfg.Peers)
		if err != nil {
			return sc, fmt.Errorf("placemon: %w", err)
		}
		sc.Cluster = &server.ClusterConfig{
			Membership: members,
			Proxy:      cfg.ClusterProxy,
			ForceAdopt: cfg.ForceAdopt,
		}
	}
	if cfg.WALDir != "" && cfg.ScenarioDir != "" {
		return sc, fmt.Errorf("placemon: WALDir and ScenarioDir are mutually exclusive (the WAL subsumes the scenario store)")
	}
	if cfg.WALDir != "" {
		mode, err := wal.ParseSyncMode(cfg.WALSync)
		if err != nil {
			return sc, fmt.Errorf("placemon: %w", err)
		}
		sc.WAL = &server.WALConfig{
			Dir:          cfg.WALDir,
			Sync:         mode,
			SegmentBytes: cfg.WALSegmentBytes,
		}
		return sc, nil
	}
	if cfg.ScenarioDir != "" {
		store, err := registry.NewFileStore(cfg.ScenarioDir)
		if err != nil {
			return sc, fmt.Errorf("placemon: scenario store: %w", err)
		}
		sc.Store = store
	}
	return sc, nil
}

// AddScenario registers and persists a new scenario. The ID must match
// [a-zA-Z0-9._-]{1,64} without a leading dot; errors wrap
// ErrScenarioExists and ErrScenarioLimit.
func (s *Server) AddScenario(id string, spec ScenarioSpec) error {
	raw, err := json.Marshal(spec)
	if err != nil {
		return fmt.Errorf("placemon: encode scenario spec: %w", err)
	}
	if err := s.inner.CreateScenario(id, raw); err != nil {
		switch {
		case errors.Is(err, registry.ErrExists):
			return fmt.Errorf("%w: %q", ErrScenarioExists, id)
		case errors.Is(err, registry.ErrFull):
			return fmt.Errorf("%w (adding %q)", ErrScenarioLimit, id)
		}
		return fmt.Errorf("placemon: add scenario %s: %w", id, err)
	}
	return nil
}

// RemoveScenario drains and deletes a scenario: new requests for it are
// rejected at once, in-flight placement jobs get up to the drain timeout
// (bounded further by ctx), and the persisted document is removed so the
// scenario stays gone across restarts. Errors wrap ErrScenarioNotFound.
func (s *Server) RemoveScenario(ctx context.Context, id string) error {
	if err := s.inner.RemoveScenario(ctx, id); err != nil {
		if errors.Is(err, registry.ErrNotFound) {
			return fmt.Errorf("%w: %q", ErrScenarioNotFound, id)
		}
		return fmt.Errorf("placemon: remove scenario %s: %w", id, err)
	}
	return nil
}

// Scenarios returns the hosted scenario IDs, sorted.
func (s *Server) Scenarios() []string { return s.inner.ScenarioIDs() }
