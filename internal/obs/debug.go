package obs

import (
	"net/http"
	"net/http/pprof"
)

// DebugHandler serves the process's debug surface: the net/http/pprof
// profiles under /debug/pprof/ and the default registry in Prometheus
// text format at /metrics (PromHandler). nodevard mounts it beside its
// API; the command-line tools serve it alone on -pprof.
func DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	mux.Handle("GET /metrics", PromHandler())
	return mux
}
