package obs_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nodevar/internal/obs"
	"nodevar/internal/obs/obstest"
)

// TestChromeTraceGolden locks the emitted Chrome-trace JSON down to the
// byte. Regenerate with UPDATE_GOLDEN=1 go test ./internal/obs.
func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := obs.FixedTracer().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrome_trace_golden.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with UPDATE_GOLDEN=1)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("chrome trace differs from golden:\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
	// The golden trace must also satisfy the validator.
	if err := obstest.ValidateChromeTrace(bytes.NewReader(want)); err != nil {
		t.Errorf("golden trace fails validation: %v", err)
	}
}

func TestValidateChromeTraceErrors(t *testing.T) {
	cases := map[string]string{
		"not json":     "{",
		"no events":    `{"traceEvents":[]}`,
		"no name":      `{"traceEvents":[{"ph":"X","pid":1,"tid":1}]}`,
		"wrong phase":  `{"traceEvents":[{"name":"x","ph":"B","pid":1,"tid":1}]}`,
		"negative dur": `{"traceEvents":[{"name":"x","ph":"X","dur":-1,"pid":1,"tid":1}]}`,
		"zero pid":     `{"traceEvents":[{"name":"x","ph":"X","pid":0,"tid":1}]}`,
	}
	for name, in := range cases {
		if err := obstest.ValidateChromeTrace(strings.NewReader(in)); err == nil {
			t.Errorf("%s: validation passed, want error", name)
		}
	}
}

func TestTraceBufferChromeTraceValidates(t *testing.T) {
	buf := obs.NewTraceStore(1, 16).Start(obs.NewTraceID())
	root := buf.Root("request", "coverage", obs.SpanID{})
	root.Event("cache_miss")
	child, _ := obs.StartSpanCtx(obs.ContextWithSpan(context.Background(), root), "chunk", "c0")
	child.End()
	root.End()
	var out bytes.Buffer
	if err := buf.WriteChromeTrace(&out); err != nil {
		t.Fatal(err)
	}
	if err := obstest.ValidateChromeTrace(bytes.NewReader(out.Bytes())); err != nil {
		t.Fatalf("chrome trace with instants fails validation: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), `"ph": "i"`) {
		t.Error("instant event not rendered as ph:i")
	}
}
