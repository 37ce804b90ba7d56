package obs_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nodevar/internal/obs"
	"nodevar/internal/obs/obstest"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// degradedManifest builds the fixed manifest the v2 golden file pins:
// every field deterministic, with a faults section describing a
// degraded run.
func degradedManifest() *obs.Manifest {
	start := time.Date(2026, 2, 3, 10, 0, 0, 0, time.UTC)
	end := start.Add(90 * time.Second)
	return &obs.Manifest{
		Schema:      obstest.ManifestSchemaV2,
		Command:     "powersim",
		Args:        []string{"-nodes", "128", "-faults", "seed=7,drop=0.01,meterdrop=0.05"},
		Version:     "test-fixed",
		GoVersion:   "go1.x-fixed",
		Start:       start,
		End:         end,
		DurationSec: 90,
		Config: map[string]any{
			"nodes": 128,
			"seed":  42,
		},
		Phases: []obs.PhaseTiming{
			{Cat: "sim", Name: "run", Count: 1, TotalMS: 80000, MaxMS: 80000},
		},
		Metrics: obs.Snapshot{
			Counters:      map[string]int64{"faults.samples_dropped": 37},
			Gauges:        map[string]float64{},
			FloatCounters: map[string]float64{},
			Histograms:    map[string]obs.HistogramSnapshot{},
		},
		Faults: &obs.FaultsSection{
			Seed:           7,
			Schedule:       "seed=7 drop=0.01 meterdrop=0.05",
			Completeness:   0.9417,
			Degraded:       true,
			DropWindows:    4,
			DroppedSamples: 37,
			MeterFailures:  3,
			MeterRetries:   2,
			MeterGiveUps:   1,
		},
	}
}

// v1Manifest is the same run without fault injection, as the previous
// schema wrote it.
func v1Manifest() *obs.Manifest {
	m := degradedManifest()
	m.Schema = obstest.ManifestSchemaV1
	m.Args = []string{"-nodes", "128"}
	m.Faults = nil
	m.Metrics.Counters = map[string]int64{}
	return m
}

// interruptedManifest builds the fixed manifest the v3 golden file
// pins: a run ended by SIGINT with a checkpoint in play and a phase
// over its deadline.
func interruptedManifest() *obs.Manifest {
	m := degradedManifest()
	m.Schema = obs.ManifestSchema
	m.Command = "repro"
	m.Args = []string{"-exp", "figure3", "-checkpoint", "fig3.ckpt", "-timeout", "10m"}
	m.Faults = nil
	m.Status = obs.StatusInterrupted
	m.Exec = &obs.ExecSection{
		TimeoutSec: 600,
		Checkpoint: "fig3.ckpt",
		Resumed:    true,
		Signal:     "interrupt",
	}
	m.Watchdog = &obs.WatchdogSection{
		PhaseDeadlineSec: 60,
		Overruns: []obs.PhaseOverrun{
			{Cat: "sim", Name: "run", MaxMS: 80000, DeadlineMS: 60000},
		},
	}
	return m
}

func goldenPath(name string) string {
	return filepath.Join("testdata", name)
}

func checkGolden(t *testing.T, name string, m *obs.Manifest) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	path := goldenPath(name)
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (rerun with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("%s drifted from golden file (rerun with -update if intended)\ngot:\n%s\nwant:\n%s",
			name, buf.Bytes(), want)
	}
	return want
}

func TestManifestV3Golden(t *testing.T) {
	data := checkGolden(t, "run-manifest-v3.golden.json", interruptedManifest())

	m, err := obstest.ReadManifest(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if m.Schema != obs.ManifestSchema || m.Status != obs.StatusInterrupted {
		t.Errorf("schema %q status %q", m.Schema, m.Status)
	}
	if m.Exec == nil || m.Exec.Signal != "interrupt" || m.Exec.Checkpoint != "fig3.ckpt" ||
		!m.Exec.Resumed || m.Exec.TimeoutSec != 600 {
		t.Errorf("exec section round-trip: %+v", m.Exec)
	}
	if m.Watchdog == nil || m.Watchdog.PhaseDeadlineSec != 60 ||
		len(m.Watchdog.Overruns) != 1 || m.Watchdog.Overruns[0].Name != "run" {
		t.Errorf("watchdog section round-trip: %+v", m.Watchdog)
	}
}

func TestManifestV2BackCompat(t *testing.T) {
	data := checkGolden(t, "run-manifest-v2.golden.json", degradedManifest())

	m, err := obstest.ReadManifest(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("v2 manifest no longer readable: %v", err)
	}
	if m.Schema != obstest.ManifestSchemaV2 {
		t.Errorf("schema %q", m.Schema)
	}
	if m.Status != "" || m.Exec != nil || m.Watchdog != nil {
		t.Errorf("v2 manifest grew v3 sections: %+v", m)
	}
	f := m.Faults
	if f == nil {
		t.Fatal("degraded manifest lost its faults section")
	}
	if f.Seed != 7 || !f.Degraded || f.Completeness != 0.9417 ||
		f.DroppedSamples != 37 || f.MeterGiveUps != 1 {
		t.Errorf("faults section round-trip: %+v", f)
	}
	if f.Schedule != "seed=7 drop=0.01 meterdrop=0.05" {
		t.Errorf("schedule %q", f.Schedule)
	}
}

func TestManifestV1BackCompat(t *testing.T) {
	data := checkGolden(t, "run-manifest-v1.golden.json", v1Manifest())

	m, err := obstest.ReadManifest(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("v1 manifest no longer readable: %v", err)
	}
	if m.Schema != obstest.ManifestSchemaV1 {
		t.Errorf("schema %q", m.Schema)
	}
	if m.Faults != nil {
		t.Errorf("v1 manifest grew a faults section: %+v", m.Faults)
	}
	if m.Command != "powersim" || m.DurationSec != 90 {
		t.Errorf("v1 fields lost: %+v", m)
	}
}

func TestReadManifestRejects(t *testing.T) {
	if _, err := obstest.ReadManifest(strings.NewReader(`{"schema":"nodevar/run-manifest/v99"}`)); err == nil {
		t.Error("unknown schema accepted")
	}
	if _, err := obstest.ReadManifest(strings.NewReader(`{not json`)); err == nil {
		t.Error("malformed JSON accepted")
	}
	v1WithFaults := `{"schema":"nodevar/run-manifest/v1","faults":{"seed":1}}`
	if _, err := obstest.ReadManifest(strings.NewReader(v1WithFaults)); err == nil {
		t.Error("v1 manifest with a v2 faults section accepted")
	}
	v2WithStatus := `{"schema":"nodevar/run-manifest/v2","status":"ok"}`
	if _, err := obstest.ReadManifest(strings.NewReader(v2WithStatus)); err == nil {
		t.Error("v2 manifest with a v3 status accepted")
	}
	v2WithExec := `{"schema":"nodevar/run-manifest/v2","exec":{"signal":"interrupt"}}`
	if _, err := obstest.ReadManifest(strings.NewReader(v2WithExec)); err == nil {
		t.Error("v2 manifest with a v3 exec section accepted")
	}
	v3BadStatus := `{"schema":"nodevar/run-manifest/v3","status":"exploded"}`
	if _, err := obstest.ReadManifest(strings.NewReader(v3BadStatus)); err == nil {
		t.Error("v3 manifest with an unknown status accepted")
	}
}
