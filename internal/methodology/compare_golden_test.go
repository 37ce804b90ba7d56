package methodology_test

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nodevar/internal/core"
	"nodevar/internal/methodology"
	"nodevar/internal/systems"
)

var updateGolden = flag.Bool("update", false, "rewrite the meter-comparison golden file")

// bits renders a float64 as its exact IEEE-754 bit pattern, so the golden
// file pins every report value bit for bit rather than to a printed
// precision.
func bits(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }

// writeDistortion appends every field of one comparison report.
func writeDistortion(sb *strings.Builder, key string, rep *methodology.DistortionReport) {
	fmt.Fprintf(sb, "%s system=%s truth=%s seed=%d confidence=%s accuracy=%s pilot=%d\n",
		key, rep.System, bits(float64(rep.TrueAvg)), rep.Seed,
		bits(rep.Confidence), bits(rep.Accuracy), rep.PilotNodes)
	row := func(md methodology.ModelDistortion) {
		fmt.Fprintf(sb, "%s %s arch=%s cv=%s n=%d dn=%d\n",
			key, md.Name, md.Architecture, bits(md.MeasuredCV), md.SampleSize, md.SampleSizeDelta)
		for _, ld := range md.Levels {
			fmt.Fprintf(sb, "%s %s L%d power=%s err=%s shift=%s\n",
				key, md.Name, ld.Level, bits(float64(ld.SystemPower)),
				bits(ld.ErrVsTruth), bits(ld.ShiftVsReference))
		}
	}
	row(rep.Reference)
	for _, md := range rep.Models {
		row(md)
	}
}

// TestCompareMetersGolden pins the exact bits of every CompareMeters
// report field — the Reference baseline and each meter preset (the
// reference preset included, which runs the periodic spec through the
// Model path) — on the two meter-study systems at two cluster sizes and
// two seeds. Speed-ups of the meter, power, hpl or methodology layers
// must leave every line unchanged.
func TestCompareMetersGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates eight clusters")
	}
	var models []methodology.NamedModel
	for _, p := range systems.MeterPresets() {
		models = append(models, methodology.NamedModel{Name: p.Key, Model: p.Model})
	}
	var sb strings.Builder
	for _, sys := range []string{"colosse", "lrz"} {
		for _, nodes := range []int{64, 256} {
			for _, seed := range []uint64{2015, 7} {
				target, err := core.DistortionTarget(sys, nodes, 1, seed)
				if err != nil {
					t.Fatal(err)
				}
				rep, err := methodology.CompareMeters(target, models, methodology.DistortionConfig{Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				writeDistortion(&sb, fmt.Sprintf("%s/%d/%d", sys, nodes, seed), rep)
			}
		}
	}
	golden := filepath.Join("testdata", "compare_meters.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (rerun with -update to regenerate)", err)
	}
	got := strings.Split(sb.String(), "\n")
	for i, line := range strings.Split(string(want), "\n") {
		if i >= len(got) {
			t.Fatalf("report ends at line %d; golden continues with %q", i+1, line)
		}
		if got[i] != line {
			t.Fatalf("line %d drifted from %s\ngot:  %s\nwant: %s", i+1, golden, got[i], line)
		}
	}
	if len(got) != len(strings.Split(string(want), "\n")) {
		t.Fatalf("report has %d lines, golden %d", len(got), len(strings.Split(string(want), "\n")))
	}
}
