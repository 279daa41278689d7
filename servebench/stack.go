package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"questpro/internal/gateway"
	"questpro/internal/obs"
	"questpro/internal/service"
	"questpro/internal/store"
)

// durableShards is the fleet size behind qpgate in the durable workload.
const durableShards = 2

// stack is the serving stack one workload runs against, all in this
// process: one questprod for dialogue and refine; qpgate in front of a
// two-shard fleet, each shard with a store on disk, for durable.
type stack struct {
	base      string   // the URL clients send to: qpgate, or the one questprod
	shardURLs []string // every questprod, for /metrics scrapes
	gwURL     string   // qpgate, or "" without one

	servers  []*httpServer // gateway first, so it stops before its backends
	regs     []*service.Registry
	fleet    *gateway.Fleet
	shardDir []string // data dir per shard (durable)
	dataRoot string

	journal *journal  // the registries' TraceLog
	rec     *recorder // handler spans; nil for an untraced run
}

// startStack starts the workload's servers. Tracing starts off on every
// path: the registries and the gateway are built with DisableTracing and
// the traced run turns the gate on around its traced phase only. rec, when
// non-nil, wraps the outermost handlers with span recording.
func startStack(workload string, rec *recorder, dataRoot string) (*stack, error) {
	obs.SetEnabled(false)
	st := &stack{journal: &journal{}, rec: rec}
	shards := 1
	if workload == "durable" {
		shards = durableShards
		st.dataRoot = dataRoot
	}
	var urls []string
	backends := make([]*httpServer, 0, shards)
	for i := 0; i < shards; i++ {
		cfg := service.Config{DisableTracing: true, TraceLog: st.journal}
		if st.dataRoot != "" {
			dir := filepath.Join(st.dataRoot, fmt.Sprintf("shard%d", i))
			s, err := store.Open(dir)
			if err != nil {
				st.close()
				return nil, err
			}
			cfg.Store = s
			st.shardDir = append(st.shardDir, dir)
		}
		reg := service.NewRegistry(cfg)
		st.regs = append(st.regs, reg)
		srv, err := serve(wrapHandler(service.NewServer(reg), rec, spanBackend, i))
		if err != nil {
			st.close()
			return nil, err
		}
		backends = append(backends, srv)
		urls = append(urls, srv.url)
	}
	st.shardURLs = urls
	if workload != "durable" {
		st.servers, st.base = backends, urls[0]
		return st, nil
	}
	fleet, err := gateway.NewFleet(urls, gateway.FleetConfig{})
	if err != nil {
		st.servers = backends
		st.close()
		return nil, err
	}
	fleet.ProbeAll(context.Background())
	fleet.Start()
	st.fleet = fleet
	gw, err := serve(wrapHandler(gateway.New(fleet, gateway.Config{DisableTracing: true}), rec, spanGateway, -1))
	if err != nil {
		st.servers = backends
		st.close()
		return nil, err
	}
	st.servers = append([]*httpServer{gw}, backends...)
	st.base, st.gwURL = gw.url, gw.url
	return st, nil
}

// close stops every server and registry, waits for them, and removes the
// data directory.
func (st *stack) close() {
	for _, s := range st.servers {
		s.close()
	}
	if st.fleet != nil {
		st.fleet.Close()
	}
	for _, r := range st.regs {
		r.Close()
	}
	if st.dataRoot != "" {
		os.RemoveAll(st.dataRoot)
	}
}

// snapshotSize reports the size of a session's snapshot on its owning
// shard (durable only).
func (st *stack) snapshotSize(id string) (int64, bool) {
	if st.fleet == nil {
		return 0, false
	}
	owner := st.fleet.Owner(id).ID
	for i, u := range st.shardURLs {
		if u == owner {
			fi, err := os.Stat(filepath.Join(st.shardDir[i], id+".snap"))
			if err != nil {
				return 0, false
			}
			return fi.Size(), true
		}
	}
	return 0, false
}

// httpServer is one in-process HTTP server on a loopback port.
type httpServer struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func serve(h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &httpServer{
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed after close
	}()
	return s, nil
}

// close shuts the server down, waiting for in-flight requests and for the
// serving goroutine to exit.
func (s *httpServer) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		s.srv.Close()
	}
	<-s.done
}

// journal is the in-memory trace log the registries write: one JSON line
// per finished root span.
type journal struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (j *journal) Write(p []byte) (int, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.buf.Write(p)
}

// take returns the journal's contents and empties it.
func (j *journal) take() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := append([]byte(nil), j.buf.Bytes()...)
	j.buf.Reset()
	return out
}
