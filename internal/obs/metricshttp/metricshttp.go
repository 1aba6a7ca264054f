// Package metricshttp serves the obs registry over HTTP. It lives apart
// from internal/obs so the metrics library itself never links net/http
// into the hot-path packages; only binaries that actually expose an
// endpoint (chamsim, chamserve, chamcluster) pay for it. Serving turns
// nothing on: the registry collects whether or not anyone scrapes it.
package metricshttp

import (
	"net"
	"net/http"
	"net/http/pprof"

	"cham/internal/obs"
	"cham/internal/obs/trace"
)

// Handler returns a mux with /metrics (Prometheus text format), the
// stdlib /debug/pprof handlers, and /debug/traces (the process's span
// ring in plain text, raw record JSON, or Chrome trace-event JSON).
func Handler() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		obs.Default().WriteTo(w)
	})
	mux.HandleFunc("/debug/traces", handleTraces)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// handleTraces dumps the process's span ring. Query parameters:
//
//	trace=<hex id>   only that trace's spans
//	format=text      indented span trees + critical path (default)
//	format=records   raw record JSON (what cmd/chamtrace fetches/merges)
//	format=chrome    Chrome trace-event JSON (load in Perfetto)
func handleTraces(w http.ResponseWriter, r *http.Request) {
	recs := trace.Records()
	if q := r.URL.Query().Get("trace"); q != "" {
		id, ok := trace.ParseTraceID(q)
		if !ok {
			http.Error(w, "bad trace id", http.StatusBadRequest)
			return
		}
		recs = trace.FilterTrace(recs, id)
	}
	switch r.URL.Query().Get("format") {
	case "", "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		trace.WriteText(w, recs)
	case "records":
		buf, err := trace.MarshalRecords(recs)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(buf)
	case "chrome":
		buf, err := trace.ChromeTrace(recs)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(buf)
	default:
		http.Error(w, "unknown format (want text, records, or chrome)", http.StatusBadRequest)
	}
}

// Serve serves the endpoint on addr for the life of the process,
// returning the bound address (useful with ":0"). Collection needs no
// switch — the registry is always being fed — so serving is all it does.
// Errors after the listener is up are reported through errf if non-nil.
func Serve(addr string, errf func(error)) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go func() {
		if err := http.Serve(ln, Handler()); err != nil && errf != nil {
			errf(err)
		}
	}()
	return ln.Addr(), nil
}
