package main

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"time"

	"repro/internal/admission"
	"repro/internal/graph"
	"repro/internal/gridgen"
	"repro/internal/httpapi"
	"repro/internal/route"
	"repro/internal/search"
)

// stack is one in-process serving stack, assembled the way
// cmd/atis-server assembles it, listening on loopback.
type stack struct {
	svc    *route.Service
	srv    *http.Server
	addr   string
	served chan error
}

// setupTarget is the request whose first 200 ends set-up.
var setupTarget = read{from: 0, to: gridK*gridK - 1, algo: "ch"}.target()

func generateGraph() (*graph.Graph, error) {
	return gridgen.Generate(gridgen.Config{K: gridK, Model: gridgen.Variance, Seed: gridSeed})
}

// newService builds the route service the way atis-server -ch does:
// telemetry recorder installed, CH readied.
func newService(g *graph.Graph) (*route.Service, error) {
	svc := route.NewService(g)
	search.EnableTelemetry(svc.Registry())
	if err := svc.EnableCH(); err != nil {
		return nil, err
	}
	return svc, nil
}

// newAPI wraps svc in the HTTP layer with atis-server's defaults. The
// access log is on — every request formats its slog line — and is written
// to io.Discard so the benchmark's own output stays readable.
func newAPI(svc *route.Service) *httpapi.Server {
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	return httpapi.NewServer(svc, httpapi.WithLogger(logger), httpapi.WithAdmission(admission.Config{}))
}

// startStack runs one full set-up — graph generation, service
// construction, CH topology and first customization, HTTP layer,
// loopback listener — and returns once the server has answered its first
// 200, with the elapsed time. wrap, when non-nil, wraps the API handler
// (the traced pass's span recorder).
func startStack(wrap func(http.Handler) http.Handler) (*stack, time.Duration, error) {
	start := time.Now()
	g, err := generateGraph()
	if err != nil {
		return nil, 0, err
	}
	svc, err := newService(g)
	if err != nil {
		return nil, 0, err
	}
	api := newAPI(svc)
	var h http.Handler = api.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	mux := http.NewServeMux()
	mux.Handle("/", h)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	st := &stack{
		svc: svc,
		srv: &http.Server{
			Handler:           mux,
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       15 * time.Second,
			WriteTimeout:      30 * time.Second,
			IdleTimeout:       60 * time.Second,
		},
		addr:   ln.Addr().String(),
		served: make(chan error, 1),
	}
	go func() { st.served <- st.srv.Serve(ln) }()
	if err := getUntilOK(st.addr, setupTarget, 30*time.Second); err != nil {
		st.stop()
		return nil, 0, err
	}
	return st, time.Since(start), nil
}

// stop closes the listener and every connection and waits for Serve to
// return.
func (st *stack) stop() error {
	cerr := st.srv.Close()
	if err := <-st.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("serve: %w", err)
	}
	return cerr
}
