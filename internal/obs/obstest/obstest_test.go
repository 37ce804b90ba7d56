package obstest

import (
	"os"
	"testing"
)

// TestValidateTraceFile validates an externally produced trace file;
// the make trace target runs cmd/repro with -trace-out and points this
// test at the result via NODEVAR_TRACE_FILE.
func TestValidateTraceFile(t *testing.T) {
	path := os.Getenv("NODEVAR_TRACE_FILE")
	if path == "" {
		t.Skip("NODEVAR_TRACE_FILE not set (this test backs the make trace target)")
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := ValidateChromeTrace(f); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}
