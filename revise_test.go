package placemon

import (
	"encoding/json"
	"reflect"
	"testing"
)

// TestReviserTenantMatchesBuild pins the ReviseFunc contract the live
// network replacement relies on: the monitoring state the reviser hands
// back equals what buildScenario — the WAL-replay and boot path — makes
// of the revised document.
func TestReviserTenantMatchesBuild(t *testing.T) {
	revise, _ := newNetworkReviser()
	spec, err := json.Marshal(ScenarioSpec{
		Nodes: 5,
		Edges: [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}},
		K:     2,
		Placement: PlacementFile{
			Alpha:    1,
			Services: []ServiceRecord{{Name: "a", Clients: []int{0, 4}}, {Name: "b", Clients: []int{1}}},
			Hosts:    []int{2, 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	changes := []NetworkChange{
		{Nodes: 7, Edges: [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 0}}},
		{Topology: "Abovenet"},
	}
	for _, ch := range changes {
		body, err := json.Marshal(ch)
		if err != nil {
			t.Fatal(err)
		}
		out, live, err := revise("s", spec, body)
		if err != nil {
			t.Fatalf("%+v: %v", ch, err)
		}
		replayed, err := buildScenario("s", out)
		if err != nil {
			t.Fatalf("%+v: rebuild revised spec: %v", ch, err)
		}
		if live.NumNodes != replayed.NumNodes || live.K != replayed.K ||
			!reflect.DeepEqual(live.Connections, replayed.Connections) || len(live.Paths) != len(replayed.Paths) {
			t.Fatalf("%+v: live tenant %+v, rebuilt %+v", ch, live, replayed)
		}
		for i := range live.Paths {
			if !live.Paths[i].Equal(replayed.Paths[i]) {
				t.Fatalf("%+v: path %d live %v, rebuilt %v", ch, i, live.Paths[i], replayed.Paths[i])
			}
		}
		if live.Place == nil {
			t.Fatalf("%+v: live tenant has no place function", ch)
		}
		spec = out
	}

	// A change replay would reject must be rejected live too.
	if _, _, err := revise("s", spec, []byte(`{"topology":"Abovenet","nodes":-1}`)); err == nil {
		t.Fatal("negative node count accepted")
	}
}
