package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/registry"
)

// testRevise is the ReviseFunc tests install: the change body IS the
// revised document (a testSpec), and the tenant is what testBuild makes
// of it — the pairing a real reviser must keep.
func testRevise(id string, spec, change []byte) ([]byte, *TenantConfig, error) {
	tc, err := testBuild(id, change)
	if err != nil {
		return nil, nil, err
	}
	return change, tc, nil
}

// networkConfig is scenarioConfig plus network replacement and the
// idempotent-ingest window.
func networkConfig() Config {
	cfg := scenarioConfig()
	cfg.ReviseNetwork = testRevise
	cfg.DedupWindow = 64
	return cfg
}

// wideSpec is a replacement network with a different shape than
// lineSpec: 7 nodes, 3 connections.
func wideSpec() testSpec {
	return testSpec{
		NumNodes: 7,
		K:        1,
		Paths:    [][]int{{0, 1, 3}, {2, 1, 3}, {4, 5, 6}},
		Connections: []Connection{
			{Service: 0, Client: 0, Host: 3},
			{Service: 0, Client: 2, Host: 3},
			{Service: 1, Client: 4, Host: 6},
		},
	}
}

// TestNetworkReplaceLifecycle drives create → ingest → replace → verify
// over HTTP: the scenario keeps its ID and dedup window while monitor
// state restarts against the new network.
func TestNetworkReplaceLifecycle(t *testing.T) {
	_, ts := newTestServer(t, networkConfig())
	base := ts.URL + "/v1/scenarios/net1"

	resp, _ := doReq(t, http.MethodPut, base, mustJSON(t, lineSpec()))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d", resp.StatusCode)
	}
	// Ingest a batch that opens an outage, remembering the exact body.
	batch := []byte(`{"batch_id":"b1","time":1,"reports":[{"connection":0,"up":false}]}`)
	resp, origBody := doReq(t, http.MethodPost, base+"/observations", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %d %s", resp.StatusCode, origBody)
	}

	resp, body := doReq(t, http.MethodPut, base+"/network", mustJSON(t, wideSpec()))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replace: %d %s", resp.StatusCode, body)
	}
	var info scenarioInfoJSON
	if err := json.Unmarshal([]byte(body), &info); err != nil {
		t.Fatal(err)
	}
	if info.ID != "net1" || info.Connections != 3 || !info.Persistent {
		t.Fatalf("replace answered %+v", info)
	}

	// Monitoring restarted: the old outage is gone.
	resp, body = doReq(t, http.MethodGet, base+"/diagnosis", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("diagnosis: %d", resp.StatusCode)
	}
	var diag struct {
		InOutage    bool              `json:"in_outage"`
		Connections []json.RawMessage `json:"connections"`
	}
	if err := json.Unmarshal([]byte(body), &diag); err != nil {
		t.Fatal(err)
	}
	if diag.InOutage || len(diag.Connections) != 3 {
		t.Fatalf("post-replace diagnosis: in_outage=%t conns=%d", diag.InOutage, len(diag.Connections))
	}

	// The dedup window survived: re-delivering the pre-replace batch
	// replays its original response instead of re-applying it against
	// the new (narrower per-path) network.
	resp, replayBody := doReq(t, http.MethodPost, base+"/observations", batch)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Placemond-Replayed") != "true" {
		t.Fatalf("replay: %d replayed=%q", resp.StatusCode, resp.Header.Get("Placemond-Replayed"))
	}
	if replayBody != origBody {
		t.Fatalf("replayed body diverged:\n%s\nvs\n%s", replayBody, origBody)
	}

	// The new shape accepts connections the old one rejected.
	resp, body = doReq(t, http.MethodPost, base+"/observations",
		[]byte(`{"time":2,"reports":[{"connection":2,"up":false}]}`))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-replace ingest: %d %s", resp.StatusCode, body)
	}
}

// TestNetworkReplaceUnconfigured pins the 501 when no ReviseFunc is
// installed.
func TestNetworkReplaceUnconfigured(t *testing.T) {
	_, ts := newTestServer(t, scenarioConfig())
	base := ts.URL + "/v1/scenarios/net1"
	doReq(t, http.MethodPut, base, mustJSON(t, lineSpec()))
	resp, _ := doReq(t, http.MethodPut, base+"/network", mustJSON(t, wideSpec()))
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("unconfigured replace: %d", resp.StatusCode)
	}
}

// TestNetworkReplaceErrors covers the error mapping: unknown scenario,
// flag-built default tenant, malformed change, and a busy (draining)
// scenario.
func TestNetworkReplaceErrors(t *testing.T) {
	s, ts := newTestServer(t, networkConfig())
	doReq(t, http.MethodPut, ts.URL+"/v1/scenarios/net1", mustJSON(t, lineSpec()))

	resp, _ := doReq(t, http.MethodPut, ts.URL+"/v1/scenarios/ghost/network", mustJSON(t, wideSpec()))
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown scenario: %d", resp.StatusCode)
	}
	// The default tenant is rebuilt from flags, not a stored document:
	// there is nothing to revise.
	resp, body := doReq(t, http.MethodPut, ts.URL+"/v1/scenarios/default/network", mustJSON(t, wideSpec()))
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("default tenant replace: %d %s", resp.StatusCode, body)
	}
	resp, _ = doReq(t, http.MethodPut, ts.URL+"/v1/scenarios/net1/network", []byte(`{"num_nodes":0}`))
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("bad change: %d", resp.StatusCode)
	}

	// A draining scenario conflicts rather than replacing.
	tn, _ := s.tenants.Get("net1")
	if !tn.beginDrain() {
		t.Fatal("could not claim drain")
	}
	err := s.ReplaceScenarioNetwork("net1", mustJSON(t, wideSpec()))
	if !errors.Is(err, errScenarioBusy) {
		t.Fatalf("draining replace: %v", err)
	}
	tn.endDrain()
	if err := s.ReplaceScenarioNetwork("net1", mustJSON(t, wideSpec())); err != nil {
		t.Fatalf("replace after endDrain: %v", err)
	}
}

// flakyStore fails Save after a configured number of successes.
type flakyStore struct {
	registry.Store
	mu        sync.Mutex
	saves     int
	failAfter int
}

func (f *flakyStore) Save(id string, doc []byte) error {
	f.mu.Lock()
	f.saves++
	fail := f.saves > f.failAfter
	f.mu.Unlock()
	if fail {
		return fmt.Errorf("disk on fire")
	}
	return f.Store.Save(id, doc)
}

// TestNetworkReplaceRollback pins the persistence-failure path: when the
// revised document cannot be saved, the old network keeps serving and
// the scenario is immediately replaceable again.
func TestNetworkReplaceRollback(t *testing.T) {
	cfg := networkConfig()
	fs := &flakyStore{Store: registry.NewMemStore(), failAfter: 1} // the create succeeds
	cfg.Store = fs
	_, ts := newTestServer(t, cfg)
	base := ts.URL + "/v1/scenarios/net1"
	doReq(t, http.MethodPut, base, mustJSON(t, lineSpec()))

	resp, body := doReq(t, http.MethodPut, base+"/network", mustJSON(t, wideSpec()))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("failed-persist replace: %d %s", resp.StatusCode, body)
	}
	// Old shape still serves.
	resp, body = doReq(t, http.MethodGet, base, nil)
	var info scenarioInfoJSON
	if err := json.Unmarshal([]byte(body), &info); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || info.Connections != 2 {
		t.Fatalf("post-rollback info: %d %+v", resp.StatusCode, info)
	}
	resp, body = doReq(t, http.MethodPost, base+"/observations",
		[]byte(`{"time":1,"reports":[{"connection":1,"up":false}]}`))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-rollback ingest: %d %s", resp.StatusCode, body)
	}
	// The store heals; the replacement goes through on retry.
	fs.mu.Lock()
	fs.failAfter = fs.saves + 10
	fs.mu.Unlock()
	resp, body = doReq(t, http.MethodPut, base+"/network", mustJSON(t, wideSpec()))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healed replace: %d %s", resp.StatusCode, body)
	}
}

// TestNetworkReplaceWALReplay is the durability parity check: a server
// that created, ingested, replaced, and ingested again must export
// byte-identical state after crash recovery — including the adopted
// dedup window still replaying a pre-replacement batch's original body.
func TestNetworkReplaceWALReplay(t *testing.T) {
	dir := t.TempDir()
	cfg := walConfig(dir)
	cfg.ReviseNetwork = testRevise
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s1.Handler())
	base := ts.URL + "/v1/scenarios/net1"

	doReq(t, http.MethodPut, base, mustJSON(t, lineSpec()))
	batch := []byte(`{"batch_id":"pre","time":1,"reports":[{"connection":0,"up":false}]}`)
	_, preBody := doReq(t, http.MethodPost, base+"/observations", batch)
	resp, body := doReq(t, http.MethodPut, base+"/network", mustJSON(t, wideSpec()))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replace: %d %s", resp.StatusCode, body)
	}
	resp, body = doReq(t, http.MethodPost, base+"/observations",
		[]byte(`{"batch_id":"post","time":2,"reports":[{"connection":2,"up":false}]}`))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-replace ingest: %d %s", resp.StatusCode, body)
	}
	want := mustExport(t, s1)
	ts.Close()
	s1.Abort() // crash: recovery must come from the raw log

	cfg2 := walConfig(dir)
	cfg2.ReviseNetwork = testRevise
	s2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer func() { ts2.Close(); s2.Abort() }()
	if got := mustExport(t, s2); string(got) != string(want) {
		t.Fatalf("recovered state diverged:\n%s\nvs\n%s", got, want)
	}
	resp, replayBody := doReq(t, http.MethodPost, ts2.URL+"/v1/scenarios/net1/observations", batch)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Placemond-Replayed") != "true" {
		t.Fatalf("recovered replay: %d replayed=%q", resp.StatusCode, resp.Header.Get("Placemond-Replayed"))
	}
	if replayBody != preBody {
		t.Fatalf("recovered replay body diverged:\n%s\nvs\n%s", replayBody, preBody)
	}
}
