package main

import (
	"context"
	"testing"
	"time"

	placemon "repro"
	"repro/placemonclient"
)

func mustInputs(t *testing.T, name string, seed int64) *inputs {
	t.Helper()
	def, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	in, err := buildInputs(def, seed, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestFingerprintDependsOnSeedOnly(t *testing.T) {
	for _, w := range workloads {
		a, b := mustInputs(t, w.name, 7).fingerprint(), mustInputs(t, w.name, 7).fingerprint()
		if a != b {
			t.Errorf("%s: seed 7 gave fingerprints %s and %s", w.name, a, b)
		}
		if c := mustInputs(t, w.name, 8).fingerprint(); c == a {
			t.Errorf("%s: seeds 7 and 8 share fingerprint %s", w.name, a)
		}
	}
}

// TestGateRejectsWrongDiagnosis drives one checked batch through a real
// daemon and requires the diagnosis gate to accept the offline oracle's
// answer and reject a deliberately wrong one.
func TestGateRejectsWrongDiagnosis(t *testing.T) {
	in := mustInputs(t, "ingest-fanout", 3)
	r := newRunner(in, false, t.TempDir())
	ctx := context.Background()
	d, err := bootDaemon(placemon.ServerConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	client, err := r.newClient(d.url)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.CreateScenario(ctx, in.ids[0], in.wl.Spec); err != nil {
		t.Fatal(err)
	}
	obs, err := in.network.Observe(in.services, in.hosts, in.def.alpha, in.finalFailures[0])
	if err != nil {
		t.Fatal(err)
	}
	offline, err := in.network.Localize(obs, in.k)
	if err != nil {
		t.Fatal(err)
	}
	batch := placemonclient.ObservationBatch{Time: 1}
	for c, failed := range obs.Failed {
		batch.Reports = append(batch.Reports, placemonclient.Report{Connection: c, Up: !failed})
	}
	sc := client.Scenario(in.ids[0])
	if _, err := sc.ReportObservations(ctx, batch); err != nil {
		t.Fatal(err)
	}
	got, err := sc.Diagnosis(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := diagnosisOf(offline)
	if err := compareDiagnosis(got.Diagnosis, want); err != nil {
		t.Fatalf("gate rejects the correct diagnosis: %v", err)
	}
	wrong := diagnosisOf(offline)
	wrong.Candidates = append([][]int{{in.wl.NumNodes + 1}}, wrong.Candidates...)
	if compareDiagnosis(got.Diagnosis, wrong) == nil {
		t.Fatal("gate accepted a diagnosis with an extra candidate")
	}
	wrong = diagnosisOf(offline)
	wrong.DefinitelyFailed = nil
	wrong.Healthy = append(wrong.Healthy, in.finalFailures[0]...)
	if compareDiagnosis(got.Diagnosis, wrong) == nil {
		t.Fatal("gate accepted a diagnosis that calls the failed node healthy")
	}
	if compareDiagnosis(nil, want) == nil {
		t.Fatal("gate accepted a missing diagnosis")
	}
}

func TestPercentileNeedsTail(t *testing.T) {
	s := make([]float64, 999)
	for i := range s {
		s[i] = float64(i)
	}
	if _, err := percentile(s, 0.99); err == nil {
		t.Error("p99 of 999 samples reported with fewer than 10 beyond it")
	}
	s = append(s, 999)
	v, err := percentile(s, 0.99)
	if err != nil || v != 989 {
		t.Errorf("p99 of 0..999 = %v, %v; want 989", v, err)
	}
	if v, _ := percentile(s, 0.5); v != 499 {
		t.Errorf("median of 0..999 = %v, want 499", v)
	}
	if n := minSamples(0.99); n != 1000 {
		t.Errorf("minSamples(0.99) = %v, want 1000", n)
	}
}
