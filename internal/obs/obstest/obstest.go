// Package obstest holds the test-side readers of what internal/obs
// writes: a Prometheus text-format parser and validator, a Chrome-trace
// validator and a run-manifest reader that also accepts the older
// manifest schemas. The shipped binaries only write these formats, so
// the readers live here, imported by tests alone.
package obstest

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"nodevar/internal/obs"
)

// ValidateChromeTrace parses r as Chrome-trace JSON and checks the
// invariants obs.WriteChromeTraceEvents guarantees: at least one event,
// every event a complete ("X") slice or instant ("i") mark with a name,
// non-negative timestamps and durations, and positive pid/tid.
func ValidateChromeTrace(r io.Reader) error {
	var ct struct {
		TraceEvents []struct {
			Name     string
			Ph       string
			Ts, Dur  float64
			Pid, Tid int
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(r).Decode(&ct); err != nil {
		return fmt.Errorf("obstest: invalid trace JSON: %w", err)
	}
	if len(ct.TraceEvents) == 0 {
		return errors.New("obstest: trace has no events")
	}
	for i, ev := range ct.TraceEvents {
		switch {
		case ev.Name == "":
			return fmt.Errorf("obstest: trace event %d has no name", i)
		case ev.Ph != "X" && ev.Ph != "i":
			return fmt.Errorf("obstest: trace event %d (%s) has phase %q, want X or i", i, ev.Name, ev.Ph)
		case ev.Ts < 0 || ev.Dur < 0:
			return fmt.Errorf("obstest: trace event %d (%s) has negative ts/dur", i, ev.Name)
		case ev.Pid <= 0 || ev.Tid <= 0:
			return fmt.Errorf("obstest: trace event %d (%s) has non-positive pid/tid", i, ev.Name)
		}
	}
	return nil
}

// The manifest schemas before obs.ManifestSchema (v3). v2 added the
// optional "faults" section; v3 added the run status and the optional
// "exec" and "watchdog" sections.
const (
	ManifestSchemaV2 = "nodevar/run-manifest/v2"
	ManifestSchemaV1 = "nodevar/run-manifest/v1"
)

// ReadManifest parses a manifest written by this or an earlier version
// of the tool. It accepts the current v3 schema, the v2 schema (no
// status/exec/watchdog) and the v1 schema (additionally no faults
// section); any other schema string — or an older schema carrying
// newer-schema sections — is an error.
func ReadManifest(r io.Reader) (*obs.Manifest, error) {
	var m obs.Manifest
	if err := json.NewDecoder(r).Decode(&m); err != nil {
		return nil, fmt.Errorf("obstest: parsing manifest: %w", err)
	}
	switch m.Schema {
	case obs.ManifestSchema:
		if m.Status != "" {
			switch m.Status {
			case obs.StatusOK, obs.StatusInterrupted, obs.StatusTimeout, obs.StatusFailed:
			default:
				return nil, fmt.Errorf("obstest: unknown manifest status %q", m.Status)
			}
		}
	case ManifestSchemaV2:
		if m.Status != "" || m.Exec != nil || m.Watchdog != nil {
			return nil, fmt.Errorf("obstest: %s manifest carries v3 sections", ManifestSchemaV2)
		}
	case ManifestSchemaV1:
		if m.Status != "" || m.Exec != nil || m.Watchdog != nil {
			return nil, fmt.Errorf("obstest: %s manifest carries v3 sections", ManifestSchemaV1)
		}
		if m.Faults != nil {
			return nil, fmt.Errorf("obstest: %s manifest carries a v2 faults section", ManifestSchemaV1)
		}
	default:
		return nil, fmt.Errorf("obstest: unsupported manifest schema %q (want %s, %s or %s)",
			m.Schema, obs.ManifestSchema, ManifestSchemaV2, ManifestSchemaV1)
	}
	return &m, nil
}
