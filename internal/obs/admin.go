package obs

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// AdminOptions configures the admin endpoint.  Every field is
// optional: a nil Registry serves empty metrics, a nil Health
// always-healthy.
type AdminOptions struct {
	// Registry backs /metrics.
	Registry *Registry
	// Health is consulted by /healthz; a non-nil error turns the
	// response into a 503 carrying the error text.
	Health func() error
	// Handlers mounts extra endpoints on the mux (pattern → handler),
	// e.g. the span package's /trace/ and /waitsfor handlers.  Keeping
	// them injectable avoids an import cycle: this package cannot import
	// its own subpackages.
	Handlers map[string]http.Handler
}

// AdminHandler builds the admin mux:
//
//	/metrics       Prometheus text exposition of the registry
//	/healthz       200 "ok" or 503 with the health error
//	/debug/pprof/  the standard runtime profiles
//
// plus whatever opt.Handlers mounts.
func AdminHandler(opt AdminOptions) http.Handler {
	mux := http.NewServeMux()
	for pattern, h := range opt.Handlers {
		mux.Handle(pattern, h)
	}
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if opt.Registry != nil {
			opt.Registry.WritePrometheus(w) //nolint:errcheck // client went away
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		if opt.Health != nil {
			if err := opt.Health(); err != nil {
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
				return
			}
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// AdminServer is a running admin endpoint.
type AdminServer struct {
	ln  net.Listener
	srv *http.Server
}

// StartAdmin listens on addr (e.g. ":7071" or ":0") and serves the
// admin mux until Close.
func StartAdmin(addr string, opt AdminOptions) (*AdminServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: admin listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: AdminHandler(opt), ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Close
	return &AdminServer{ln: ln, srv: srv}, nil
}

// Addr returns the bound listen address.
func (a *AdminServer) Addr() net.Addr { return a.ln.Addr() }

// Close stops the endpoint.
func (a *AdminServer) Close() error { return a.srv.Close() }
