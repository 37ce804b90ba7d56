package server

import (
	"bytes"
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the served-body golden files")

// TestStudyBodiesGolden pins the exact bytes each served study returns,
// on the computing miss and on the cache hit that follows it.
func TestStudyBodiesGolden(t *testing.T) {
	cases := []struct{ name, path, req string }{
		{"coverage", "/v1/coverage", `{"replicates":300,"sample_sizes":[5],"levels":[0.95],"seed":7}`},
		{"distortion", "/v1/distortion", `{"nodes":16,"pilot_size":8,"meters":["windowed","occ"]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, ts := newTestServer(t, Config{})
			golden := filepath.Join("testdata", tc.name+".golden.json")
			for _, cache := range []string{"miss", "hit"} {
				resp, body := postJSON(t, ts.URL+tc.path, tc.req)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("%s: status %d\n%s", cache, resp.StatusCode, body)
				}
				if got := resp.Header.Get("X-Cache"); got != cache {
					t.Errorf("X-Cache = %q, want %q", got, cache)
				}
				if *updateGolden && cache == "miss" {
					if err := os.WriteFile(golden, body, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				want, err := os.ReadFile(golden)
				if err != nil {
					t.Fatalf("%v (rerun with -update to regenerate)", err)
				}
				if !bytes.Equal(body, want) {
					t.Errorf("%s body drifted from %s\ngot:  %s\nwant: %s", cache, golden, body, want)
				}
			}
		})
	}
}
