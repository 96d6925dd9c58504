// Command fxad serves FXA simulations over HTTP: a long-lived daemon
// that accepts evaluation-cell jobs, runs them on a bounded worker pool
// with per-tenant weighted fairness, and streams schema-versioned
// interval metrics and results back as NDJSON. All tenants share one
// content-addressed result cache, so a cell any client has ever run is
// a cache hit for every later client, and identical cells submitted
// concurrently collapse onto a single simulation.
//
// Usage:
//
//	fxad [-addr host:port] [-j workers] [-cachedir dir | -nocache]
//	     [-queue cap] [-retain n] [-drain timeout]
//	     [-weights tenant=w,tenant=w,...]
//	     [-self url] [-peers url,url,... | -peersfile path]
//	fxad -route url,url,... | -routefile path
//	     [-addr host:port] [-retain n]
//	     [-probe-interval d] [-probe-timeout d] [-probe-fails k]
//	fxad -version
//
// The second form runs the daemon as a *router* over a set of worker
// shards (the first form): jobs are placed by consistent-hashing their
// content address onto the shard ring, event streams are proxied through
// a replayable log, shard health is probed continuously, and jobs on a
// shard that dies mid-flight are resubmitted to the next live shard —
// transparently, because reruns are bit-identical and usually free via
// the shards' federated caches (-peers/-peersfile on the shards).
//
// The API (see internal/serve):
//
//	POST   /v1/jobs        submit a job; 202 + {"id": ...}, 429 when full,
//	                       413 for a body over 1 MiB
//	GET    /v1/jobs/{id}   NDJSON event stream (replays on re-attach)
//	DELETE /v1/jobs/{id}   cancel a queued or in-flight job
//	GET    /v1/stats       queue, cache, and per-tenant counters
//	                       (router: shard membership and resubmissions)
//	GET    /v1/cache/{key} raw cached result by content address (shards only)
//	GET    /healthz        liveness + build version
//
// On SIGINT/SIGTERM the daemon stops accepting jobs, drains in-flight
// work for up to -drain, then aborts whatever remains and exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"fxa/internal/serve"
	"fxa/internal/sweep"
)

// version is stamped via -ldflags "-X main.version=..."; when absent we
// fall back to the VCS revision baked into the build info.
var version = ""

func buildVersion() string {
	if version != "" {
		return version
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "-dirty"
				}
			}
		}
		if rev != "" {
			if len(rev) > 12 {
				rev = rev[:12]
			}
			return rev + dirty
		}
		if bi.Main.Version != "" && bi.Main.Version != "(devel)" {
			return bi.Main.Version
		}
	}
	return "devel"
}

// parseWeights parses "a=3,b=1" into a tenant-weight map.
func parseWeights(s string) (map[string]int, error) {
	if s == "" {
		return nil, nil
	}
	weights := make(map[string]int)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("fxad: -weights entry %q is not tenant=weight", part)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 1 {
			return nil, fmt.Errorf("fxad: -weights entry %q needs a positive integer weight", part)
		}
		weights[strings.TrimSpace(name)] = w
	}
	return weights, nil
}

// parseURLList splits a comma-separated URL list, dropping empties.
func parseURLList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part != "" {
			out = append(out, part)
		}
	}
	return out
}

// readURLFile reads one URL per line (blank lines and #-comments
// skipped). Used for both -routefile and -peersfile, so a cluster whose
// shards bind ephemeral ports can be described by a file written after
// the shards report their addresses.
func readURLFile(path string) ([]string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, line := range strings.Split(string(b), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		out = append(out, line)
	}
	return out, nil
}

func defaultCacheDir() string {
	if base, err := os.UserCacheDir(); err == nil {
		return filepath.Join(base, "fxad")
	}
	return ".fxad-cache"
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7790", "listen address")
	workers := flag.Int("j", 0, "simulation worker-pool size (0 = GOMAXPROCS)")
	cacheDir := flag.String("cachedir", "", "shared result cache directory (default $XDG_CACHE_HOME/fxad)")
	noCache := flag.Bool("nocache", false, "run without the shared result cache")
	queueCap := flag.Int("queue", serve.DefaultQueueCap, "queued-job cap before submissions get 429")
	retain := flag.Int("retain", serve.DefaultRetainJobs, "completed jobs retained for re-attach")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown drain timeout for in-flight jobs")
	weightsFlag := flag.String("weights", "", "per-tenant fair-share weights, e.g. batch=1,interactive=3 (unlisted tenants get weight 1)")
	selfURL := flag.String("self", "", "this shard's advertised base URL, skipped in peer lookups (default http://<bound addr>)")
	peersFlag := flag.String("peers", "", "peer shard base URLs for cache federation, comma-separated")
	peersFile := flag.String("peersfile", "", "file of peer shard base URLs (one per line, re-read per lookup)")
	routeFlag := flag.String("route", "", "run as a router over these worker shard base URLs, comma-separated")
	routeFile := flag.String("routefile", "", "run as a router over the shard base URLs in this file (one per line)")
	probeInterval := flag.Duration("probe-interval", serve.DefaultProbeInterval, "router: shard health-probe interval")
	probeTimeout := flag.Duration("probe-timeout", serve.DefaultProbeTimeout, "router: per-probe timeout")
	probeFails := flag.Int("probe-fails", serve.DefaultProbeFailAfter, "router: consecutive probe failures before a shard is marked down")
	showVersion := flag.Bool("version", false, "print the build version and exit")
	flag.Parse()

	if *showVersion {
		fmt.Printf("fxad %s\n", buildVersion())
		return
	}

	var err error
	switch {
	case *routeFlag != "" && *routeFile != "":
		err = fmt.Errorf("-route and -routefile are mutually exclusive")
	case *routeFlag != "" || *routeFile != "":
		shards := parseURLList(*routeFlag)
		if *routeFile != "" {
			shards, err = readURLFile(*routeFile)
		}
		if err == nil {
			err = runRouter(*addr, shards, *retain, *drain, serve.ProbeConfig{
				Interval:  *probeInterval,
				Timeout:   *probeTimeout,
				FailAfter: *probeFails,
			})
		}
	case *peersFlag != "" && *peersFile != "":
		err = fmt.Errorf("-peers and -peersfile are mutually exclusive")
	default:
		err = run(*addr, *workers, *cacheDir, *noCache, *queueCap, *retain, *drain,
			*weightsFlag, *selfURL, *peersFlag, *peersFile)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "fxad: %v\n", err)
		os.Exit(1)
	}
}

func run(addr string, workers int, cacheDir string, noCache bool, queueCap, retain int, drain time.Duration, weightsFlag, selfURL, peersFlag, peersFile string) error {
	weights, err := parseWeights(weightsFlag)
	if err != nil {
		return err
	}

	var cache *sweep.Cache
	if !noCache {
		dir := cacheDir
		if dir == "" {
			dir = defaultCacheDir()
		}
		cache, err = sweep.OpenCache(dir)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "fxad: result cache at %s\n", dir)
	}

	srv := serve.New(serve.Config{
		Workers:       workers,
		QueueCap:      queueCap,
		Cache:         cache,
		TenantWeights: weights,
		RetainJobs:    retain,
		Version:       buildVersion(),
	})

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		srv.Close()
		return err
	}
	// The smoke scripts and tests parse this line to find the bound port
	// (addr may be ":0").
	fmt.Printf("fxad: listening on %s\n", ln.Addr())

	// Cache federation: with peers configured, a local cache miss asks
	// each peer's /v1/cache/{key} before simulating. Installed after the
	// listener exists so self defaults to the real bound address.
	if cache != nil && (peersFlag != "" || peersFile != "") {
		self := selfURL
		if self == "" {
			self = "http://" + ln.Addr().String()
		}
		var peersFn func() []string
		if peersFile != "" {
			// Re-read per lookup: a cluster of ephemeral-port shards can
			// write the peer list after all shards have reported their
			// addresses, and membership edits need no restarts.
			peersFn = func() []string {
				urls, err := readURLFile(peersFile)
				if err != nil {
					return nil
				}
				return urls
			}
			fmt.Fprintf(os.Stderr, "fxad: cache federation with peers from %s (self %s)\n", peersFile, self)
		} else {
			static := parseURLList(peersFlag)
			peersFn = func() []string { return static }
			fmt.Fprintf(os.Stderr, "fxad: cache federation with %d peers (self %s)\n", len(static), self)
		}
		cache.SetFallback(serve.CacheFallback(self, peersFn, nil, 0))
	}

	httpSrv := newHTTPServer(srv.Handler())
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-serveErr:
		srv.Close()
		return err
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "fxad: %v: draining (up to %v)\n", s, drain)
	}

	// Stop accepting first, then drain simulations, then close the
	// listener: streams stay attached while their jobs finish.
	ctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "fxad: drain incomplete: %v\n", err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	fmt.Fprintln(os.Stderr, "fxad: bye")
	return nil
}

// newHTTPServer is the http.Server both daemon modes serve h on. A client
// gets 10s to send its request headers, and an idle keep-alive connection
// closes after 2 minutes. There is no read or write timeout: an event
// stream stays open for its job's whole run.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 2 * time.Minute}
}

// runRouter serves router mode: no worker pool, no cache — placement,
// proxying, health, failover (see internal/serve/router.go).
func runRouter(addr string, shards []string, retain int, drain time.Duration, probe serve.ProbeConfig) error {
	rt, err := serve.NewRouter(serve.RouterConfig{
		Shards:     shards,
		Probe:      probe,
		RetainJobs: retain,
		Version:    buildVersion(),
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		rt.Close()
		return err
	}
	fmt.Printf("fxad: listening on %s\n", ln.Addr())
	fmt.Fprintf(os.Stderr, "fxad: routing over %d shards\n", len(shards))

	httpSrv := newHTTPServer(rt.Handler())
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-serveErr:
		rt.Close()
		return err
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "fxad: %v: draining (up to %v)\n", s, drain)
	}

	ctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := rt.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "fxad: drain incomplete: %v\n", err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	fmt.Fprintln(os.Stderr, "fxad: bye")
	return nil
}
