package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nodevar/internal/obs"
	"nodevar/internal/obs/obstest"
	"nodevar/internal/sampling"
)

// readManifestFile parses path as a run manifest, enforcing manifest-v3
// compatibility via obstest.ReadManifest.
func readManifestFile(t *testing.T, path string) (*obs.Manifest, error) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return obstest.ReadManifest(f)
}

// newTestServer mounts a fresh Server on an httptest server. Metric
// counters are process-global, so assertions on them use deltas.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func getURL(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// decodeAPIError asserts the structured error body shape and returns the
// code.
func decodeAPIError(t *testing.T, body []byte) string {
	t.Helper()
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatalf("error body is not structured JSON: %v\n%s", err, body)
	}
	if eb.Error.Code == "" || eb.Error.Message == "" {
		t.Fatalf("error body missing code or message: %s", body)
	}
	return eb.Error.Code
}

// TestHandlerBadRequests table-drives the 400 paths: malformed JSON,
// unknown fields, invalid plans (including the Population == 1 and
// n > N edge cases the sampling layer now rejects) must all produce a
// structured error body.
func TestHandlerBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name     string
		method   string
		path     string
		body     string
		wantCode string
	}{
		{"samplesize malformed json", "POST", "/v1/samplesize", `{`, codeBadJSON},
		{"samplesize unknown field", "POST", "/v1/samplesize", `{"acuracy": 0.01}`, codeBadJSON},
		{"samplesize trailing garbage", "POST", "/v1/samplesize", `{"accuracy":0.01,"cv":0.02} {}`, codeBadJSON},
		{"samplesize zero accuracy", "POST", "/v1/samplesize", `{"cv": 0.02}`, codeInvalidPlan},
		{"samplesize bad confidence", "POST", "/v1/samplesize", `{"confidence":2,"accuracy":0.01,"cv":0.02}`, codeInvalidPlan},
		{"samplesize population of one", "POST", "/v1/samplesize", `{"accuracy":0.01,"cv":0.02,"population":1}`, codeInvalidPlan},
		{"accuracy malformed json", "POST", "/v1/accuracy", `nope`, codeBadJSON},
		{"accuracy n too small", "POST", "/v1/accuracy", `{"cv":0.02,"n":1}`, codeInvalidPlan},
		{"accuracy sample exceeds population", "POST", "/v1/accuracy", `{"cv":0.02,"n":51,"population":50}`, codeInvalidPlan},
		{"accuracy measured n over population", "POST", "/v1/accuracy", `{"mean":100,"sd":2,"n":51,"population":50}`, codeBadRequest},
		{"accuracy measured missing sd", "POST", "/v1/accuracy", `{"mean":100,"n":5}`, codeBadRequest},
		{"accuracy measured negative sd", "POST", "/v1/accuracy", `{"mean":100,"sd":-1,"n":5}`, codeBadRequest},
		{"accuracy both modes", "POST", "/v1/accuracy", `{"mean":100,"sd":1,"cv":0.02,"n":5}`, codeBadRequest},
		{"coverage malformed json", "POST", "/v1/coverage", `[`, codeBadJSON},
		{"coverage unknown system", "POST", "/v1/coverage", `{"system":"notasystem"}`, codeInvalidPlan},
		{"coverage replicate cap", "POST", "/v1/coverage", `{"replicates": 99999999}`, codeInvalidPlan},
		{"coverage population cap", "POST", "/v1/coverage", `{"pilot_data":[1,2],"population":2000000000,"replicates":1,"sample_sizes":[2],"levels":[0.5]}`, codeInvalidPlan},
		{"coverage negative population", "POST", "/v1/coverage", `{"pilot_data":[1,2],"population":-5,"sample_sizes":[2]}`, codeInvalidPlan},
		{"coverage negative pilot_size", "POST", "/v1/coverage", `{"pilot_size":-5}`, codeInvalidPlan},
		{"coverage pilot_size over dataset", "POST", "/v1/coverage", `{"system":"lrz","pilot_size":1000}`, codeInvalidPlan},
		{"coverage sample size over population", "POST", "/v1/coverage", `{"pilot_data":[100,101,99],"population":4,"sample_sizes":[5]}`, codeInvalidPlan},
		{"coverage pilot without population", "POST", "/v1/coverage", `{"pilot_data":[100,101,99]}`, codeInvalidPlan},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var resp *http.Response
			var body []byte
			if tc.method == "POST" {
				resp, body = postJSON(t, ts.URL+tc.path, tc.body)
			} else {
				resp, body = getURL(t, ts.URL+tc.path)
			}
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400\n%s", resp.StatusCode, body)
			}
			if code := decodeAPIError(t, body); code != tc.wantCode {
				t.Errorf("error code %q, want %q", code, tc.wantCode)
			}
		})
	}

	t.Run("rules non-integer", func(t *testing.T) {
		resp, body := getURL(t, ts.URL+"/v1/rules?nodes=many")
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400\n%s", resp.StatusCode, body)
		}
		decodeAPIError(t, body)
	})
	t.Run("rules non-positive", func(t *testing.T) {
		resp, body := getURL(t, ts.URL+"/v1/rules?nodes=0")
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400\n%s", resp.StatusCode, body)
		}
		decodeAPIError(t, body)
	})
	t.Run("method not allowed", func(t *testing.T) {
		resp, _ := getURL(t, ts.URL+"/v1/samplesize")
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET on POST route: status %d, want 405", resp.StatusCode)
		}
	})
}

// TestHandlerResults cross-checks the happy paths against the sampling
// package the handlers wrap.
func TestHandlerResults(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	t.Run("samplesize", func(t *testing.T) {
		resp, body := postJSON(t, ts.URL+"/v1/samplesize",
			`{"confidence":0.95,"accuracy":0.01,"cv":0.02,"population":10000}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d\n%s", resp.StatusCode, body)
		}
		var got SampleSizeResponse
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		plan := sampling.Plan{Confidence: 0.95, Accuracy: 0.01, CV: 0.02, Population: 10000}
		wantN, err := plan.RequiredSampleSize()
		if err != nil {
			t.Fatal(err)
		}
		wantAcc, err := plan.ExpectedAccuracy(wantN)
		if err != nil {
			t.Fatal(err)
		}
		if got.Nodes != wantN || got.AchievedAccuracy != wantAcc {
			t.Errorf("got n=%d acc=%v, want n=%d acc=%v", got.Nodes, got.AchievedAccuracy, wantN, wantAcc)
		}
	})

	t.Run("accuracy plan mode", func(t *testing.T) {
		// Section 4 intro: 4 nodes at CV 2% → within 3.2%.
		resp, body := postJSON(t, ts.URL+"/v1/accuracy", `{"cv":0.02,"n":4}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d\n%s", resp.StatusCode, body)
		}
		var got AccuracyResponse
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		if got.Accuracy < 0.031 || got.Accuracy > 0.033 {
			t.Errorf("accuracy = %v, paper says 3.2%%", got.Accuracy)
		}
	})

	t.Run("accuracy measured census", func(t *testing.T) {
		// n == N: the finite population correction collapses to exactly 0.
		resp, body := postJSON(t, ts.URL+"/v1/accuracy", `{"mean":100,"sd":2,"n":50,"population":50}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d\n%s", resp.StatusCode, body)
		}
		var got AccuracyResponse
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		if got.Accuracy != 0 || got.Degraded {
			t.Errorf("census accuracy = %+v, want exactly 0 and not degraded", got)
		}
	})

	t.Run("accuracy measured zero mean degraded", func(t *testing.T) {
		// A zero-power best-effort aggregate must come back flagged, not
		// panic the interval math.
		resp, body := postJSON(t, ts.URL+"/v1/accuracy", `{"mean":0,"sd":2,"n":5}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d\n%s", resp.StatusCode, body)
		}
		var got AccuracyResponse
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		if !got.Degraded || got.Note == "" {
			t.Errorf("zero-mean response not flagged degraded: %+v", got)
		}
	})

	t.Run("table5", func(t *testing.T) {
		resp, body := getURL(t, ts.URL+"/v1/table5")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d\n%s", resp.StatusCode, body)
		}
		var got Table5Response
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		want := sampling.PaperTable5()
		if len(got.N) != len(want.N) || got.Population != want.Population {
			t.Fatalf("table shape mismatch: %+v", got)
		}
		for i := range want.N {
			for j := range want.N[i] {
				if got.N[i][j] != want.N[i][j] {
					t.Errorf("N[%d][%d] = %d, want %d", i, j, got.N[i][j], want.N[i][j])
				}
			}
		}
	})

	t.Run("rules", func(t *testing.T) {
		resp, body := getURL(t, ts.URL+"/v1/rules?nodes=210")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d\n%s", resp.StatusCode, body)
		}
		var got RulesResponse
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		if got.Level1 != 4 || got.Revised != 21 {
			t.Errorf("rules(210) = %+v, want level1=4 revised=21", got)
		}
	})

	t.Run("healthz and metrics", func(t *testing.T) {
		resp, body := getURL(t, ts.URL+"/healthz")
		if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("ok")) {
			t.Errorf("healthz: %d %s", resp.StatusCode, body)
		}
		resp, body = getURL(t, ts.URL+"/metrics")
		if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("server_requests")) {
			t.Errorf("/metrics missing server counters: %d", resp.StatusCode)
		}
	})
}

// TestCoverageEndpoint runs one small study end to end and checks the
// response carries sane points plus the provenance pair.
func TestCoverageEndpoint(t *testing.T) {
	// A not-yet-existing subdirectory: the server must create it rather
	// than silently dropping every manifest.
	dir := filepath.Join(t.TempDir(), "manifests")
	_, ts := newTestServer(t, Config{ManifestDir: dir})
	req := `{"replicates":300,"sample_sizes":[5],"levels":[0.95],"seed":7}`
	resp, body := postJSON(t, ts.URL+"/v1/coverage", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d\n%s", resp.StatusCode, body)
	}
	var got CoverageResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Points) != 1 {
		t.Fatalf("points: %+v", got.Points)
	}
	p := got.Points[0]
	if p.SampleSize != 5 || p.Level != 0.95 || p.Replicates != 300 ||
		p.Coverage <= 0.5 || p.Coverage > 1 {
		t.Errorf("implausible point: %+v", p)
	}
	if got.Seed != 7 || len(got.Fingerprint) != 16 {
		t.Errorf("provenance: seed=%d fingerprint=%q", got.Seed, got.Fingerprint)
	}
	if got.Request.System != "lrz" || got.Request.Population == 0 {
		t.Errorf("normalized request echo: %+v", got.Request)
	}

	// The computation recorded a manifest named by its provenance pair.
	manifest := fmt.Sprintf("%s/coverage-7-%s.json", dir, got.Fingerprint)
	if _, err := readManifestFile(t, manifest); err != nil {
		t.Errorf("coverage manifest: %v", err)
	}
}
