// Command bmsd runs the Building Management Server as a standalone HTTP
// service — the role the paper gives to the Flask/Tornado process on the
// Raspberry Pi. It serves the REST API over a chosen floor plan:
//
//	go run ./cmd/bmsd -addr :8080 -plan paper-house -data-dir /var/lib/bmsd
//
// Every invocation is one pipeline — open shards → pick the face → serve —
// and each flag belongs to one object that pipeline may build. A flag set
// for an object this invocation does not build exits 2 naming it; nothing
// is silently ignored.
//
// The shards are in process (-plan, -shards, -debounce, -retain, and with
// -data-dir a write-ahead log each, -fsync) or remote: -shard-urls names
// running bmsd processes to front instead.
//
// The face of one in-process shard is its own API. Anything else — -shards
// above 1, -shard-urls, -self — is served by a fleet gateway (-skew-window,
// -residue-ttl): device reports are consistent-hash routed by device id,
// reads answer from the federated merge, and over in-process shards
// training runs on shard 0's store and each fitted model is distributed to
// every shard.
//
// The lease (-self, with -peer, -standby, -lease-ttl) makes the gateway one
// of an active/standby pair with no coordinator beyond the shards:
//
//	bmsd -addr :9090 -shard-urls http://s1,http://s2,http://s3 -self http://gw1:9090 -peer http://gw2:9091
//	bmsd -addr :9091 -shard-urls http://s1,http://s2,http://s3 -self http://gw2:9091 -peer http://gw1:9090 -standby
//
// The active claims a leadership epoch on a shard quorum and stamps it on
// every write; the standby probes the active's /api/v1/health and claims
// the next epoch after -lease-ttl of silence. A deposed active keeps
// running but the shards fence every write it forwards (409 + leader
// hint), so clients whose transport.HTTPUplink lists both gateways follow
// leadership and nothing lands twice. The leader that routed the reports
// owns the residue sweep, so -self and -residue-ttl exclude each other.
//
// The server takes -addr, -drain, the ingest admission gate of whichever
// face serves (-admit-inflight, -admit-queue, -retry-after: excess load is
// shed with 429 + Retry-After instead of queueing without bound, see
// internal/overload) and -debug-addr, a second listener for net/http/pprof
// — kept off the API port so profiling is strictly opt-in.
//
// Endpoints (gateway: a fleet gateway serves it too, through the same
// route table, bms.Routes; one shard only: a shard serves it, a gateway
// does not):
//
//	GET  /api/v1/health                                       gateway
//	POST /api/v1/observations   device ranging reports        gateway
//	GET  /api/v1/observations:stream  binary uploads, upgraded  gateway
//	POST /api/v1/fingerprints   labelled collection samples   gateway over in-process shards
//	POST /api/v1/train          fit the scene-analysis SVM    gateway over in-process shards
//	GET  /api/v1/occupancy      per-room head counts          gateway
//	GET  /api/v1/events         committed enter/exit events   gateway
//	GET  /api/v1/rooms          floor-plan inventory          one shard only
//	GET  /api/v1/energy         demand-response comparison    one shard only
//	GET  /api/v1/model          current model snapshot        one shard only
//	PUT  /api/v1/model          install/distribute a model    gateway
//	GET  /api/v1/dwell          per-room dwell rollup         gateway
//	GET  /api/v1/devices/{id}   latest report and room        one shard only
//	GET  /api/v1/devices/{id}/state  migratable device state  one shard only
//	GET  /api/v1/lease          the gateway lease grant       one shard only
//	GET  /api/v1/shard:stream   every gateway verb, upgraded  one shard only
//	GET  /api/v1/rollup         per-room occupancy rollup     gateway
//	GET  /api/v1/shards         shard health and routing      gateway only
//	GET  /api/v1/ring           routing table for pre-split   gateway only
//	GET  /metrics               Prometheus text exposition    gateway
//	GET  /api/v1/telemetry      JSON metrics + flight events  gateway
//
// On SIGINT/SIGTERM the server drains: the listener closes first so
// loadgen runs see connection-refused rather than mid-flight resets,
// in-flight requests run to completion (bounded by -drain), the upgraded
// streams — which http.Server.Shutdown does not wait for — are stopped
// between frames, the devices' upload streams before the gateways' shard
// streams, and only then is the durable state compacted and the process
// exits.
//
// With -data-dir, every shard opens a write-ahead log under
// <data-dir>/shard-<i>/ and recovers its full state — observations,
// occupancy, dedup marks, fingerprints and the live model — at boot, so
// even a kill -9 loses nothing that reached the log (see internal/store
// WAL docs) and a restarted server classifies, at the model version it
// was trained at, without a fresh collection walk. The log is the one
// place training state persists. -fsync picks the sync policy: "batch"
// syncs every append, "off" leaves flushing to the kernel (process
// crashes still lose nothing; power loss can). A graceful shutdown additionally compacts: state is snapshotted
// and the log behind the snapshot reclaimed, so the next boot replays the
// snapshot alone. A gateway itself persists nothing — it rebuilds its
// device registry by asking each shard for its device set.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux; served only via -debug-addr
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"occusim/internal/bms"
	"occusim/internal/building"
	"occusim/internal/fleet"
	"occusim/internal/obs"
	"occusim/internal/overload"
	"occusim/internal/store"
	"occusim/internal/transport"
	"occusim/internal/wire"
)

// options is the parsed command line, grouped by the object each flag
// configures.
type options struct {
	addr, debugAddr string
	drain           time.Duration
	admission       overload.Config

	// In-process shards; building and policy are resolved from plan and
	// fsync.
	plan, dataDir, fsync     string
	shards, debounce, retain int
	building                 *building.Building
	policy                   store.FsyncPolicy
	// Remote shards, from -shard-urls.
	urls []string

	residueTTL, skewWindow time.Duration

	self, peer string
	standby    bool
	leaseTTL   time.Duration
}

// gateway reports whether the face is a fleet gateway rather than one
// in-process shard's own API.
func (o *options) gateway() bool { return len(o.urls) > 0 || o.shards > 1 || o.self != "" }

// parseFlags reads the command line and refuses what it cannot honour,
// reporting on stderr: an unknown flag, a value out of range, and any
// flag set explicitly for an object this invocation does not build.
func parseFlags(args []string, stderr io.Writer) (*options, error) {
	o := new(options)
	var shardURLs string
	fs := flag.NewFlagSet("bmsd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.StringVar(&o.plan, "plan", "paper-house", "floor plan: paper-house, office-floor, single-room, corridor, campus")
	fs.IntVar(&o.shards, "shards", 1, "in-process BMS shard count (1: the shard serves its own API, >1: a fleet behind a gateway)")
	fs.IntVar(&o.debounce, "debounce", 2, "occupancy tracker debounce (consecutive classifications)")
	fs.IntVar(&o.retain, "retain", 1000, "observations retained per device")
	fs.DurationVar(&o.drain, "drain", 15*time.Second, "shutdown grace for in-flight requests")
	fs.DurationVar(&o.residueTTL, "residue-ttl", 10*time.Minute, "gateway: age out device state stranded on a shard that could not be migrated from (report-clock TTL, 0 disables)")
	fs.StringVar(&o.dataDir, "data-dir", "", "directory for per-shard write-ahead logs and snapshots (empty: volatile)")
	fs.StringVar(&o.fsync, "fsync", "batch", "WAL sync policy with -data-dir: batch or off")
	fs.IntVar(&o.admission.MaxInflight, "admit-inflight", 0, "ingest admission limit: concurrent ingest calls before queueing (0 disables overload protection)")
	fs.IntVar(&o.admission.MaxQueue, "admit-queue", 0, "ingest admission queue beyond -admit-inflight; excess is shed with 429 + Retry-After (0: twice -admit-inflight)")
	fs.DurationVar(&o.admission.RetryAfter, "retry-after", time.Second, "Retry-After hint advertised on shed ingest requests")
	fs.DurationVar(&o.skewWindow, "skew-window", 0, "gateway: tolerated device clock skew; reports further out are re-anchored per device (0 disables)")
	fs.StringVar(&shardURLs, "shard-urls", "", "comma-separated base URLs of running bmsd shards: serve a gateway over them instead of in-process shards")
	fs.StringVar(&o.self, "self", "", "lease: this gateway's advertised URL (the leader hint); makes it one of an active/standby pair")
	fs.StringVar(&o.peer, "peer", "", "lease: the partner gateway's URL (probed by a standby)")
	fs.BoolVar(&o.standby, "standby", false, "lease: start as warm standby instead of claiming leadership")
	fs.DurationVar(&o.leaseTTL, "lease-ttl", 3*time.Second, "lease: leadership lease TTL (renew and probe at TTL/3)")
	fs.StringVar(&o.debugAddr, "debug-addr", "", "separate listen address serving net/http/pprof (empty: no debug server)")
	if err := fs.Parse(args); err != nil {
		return nil, err // the flag set has already reported it
	}
	for _, u := range strings.Split(shardURLs, ",") {
		if u = strings.TrimSpace(u); u != "" {
			o.urls = append(o.urls, u)
		}
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := o.check(set); err != nil {
		fmt.Fprintln(stderr, "bmsd:", err)
		return nil, err
	}
	return o, nil
}

// check is the one statement of which flags belong to which object: a
// flag set explicitly while its object goes unbuilt is an error naming
// both that flag and the one that decides. It then resolves the values
// the in-process shards are built from.
func (o *options) check(set map[string]bool) (err error) {
	for _, rule := range []struct {
		unbuilt      bool
		flags, given string
	}{
		{len(o.urls) > 0, "plan shards debounce retain data-dir fsync", "in-process shards, and -shard-urls replaces them"},
		{o.dataDir == "", "fsync", "the write-ahead log, which needs -data-dir"},
		{!o.gateway(), "skew-window residue-ttl", "the fleet gateway, which needs -shards above 1, -shard-urls or -self"},
		{o.self == "", "peer standby lease-ttl", "the leadership lease, which needs -self"},
		{o.self != "", "residue-ttl", "the residue sweep, which -self leaves to whichever gateway leads"},
	} {
		for _, name := range strings.Fields(rule.flags) {
			if rule.unbuilt && set[name] {
				return fmt.Errorf("-%s configures %s", name, rule.given)
			}
		}
	}
	switch {
	case len(o.urls) > 0:
		return nil
	case set["shard-urls"]:
		return errors.New("-shard-urls lists no shard URLs")
	case o.shards < 1:
		return errors.New("-shards must be at least 1")
	}
	if o.building, err = building.ByName(o.plan); err != nil {
		return err
	}
	o.policy, err = store.ParseFsyncPolicy(o.fsync)
	return err
}

// startDebugServer serves net/http/pprof on its own listener when addr
// is set. Deliberately opt-in and separate from the API listener: the
// profiler must never be reachable on the service port.
func startDebugServer(addr string) {
	if addr == "" {
		return
	}
	go func() {
		log.Printf("bmsd: pprof debug server on %s", addr)
		// DefaultServeMux carries only the pprof registrations above —
		// every API route lives on the faces' explicit muxes.
		if err := http.ListenAndServe(addr, nil); err != nil {
			log.Printf("bmsd: debug server: %v", err)
		}
	}()
}

// openShards is the pipeline's first stage: the shards this process
// fronts — HTTP clients for the bmsd processes -shard-urls names (and an
// empty pool), or an in-process pool, durable over -data-dir, where every
// server has recovered from its WAL before it takes traffic.
func openShards(o *options) ([]fleet.Shard, *fleet.LocalPool, error) {
	if len(o.urls) > 0 {
		shards := make([]fleet.Shard, len(o.urls))
		for i, u := range o.urls {
			sh, err := fleet.NewHTTPShard(u, nil, transport.DefaultRetry())
			if err != nil {
				return nil, nil, err
			}
			shards[i] = sh
		}
		return shards, new(fleet.LocalPool), nil
	}
	pool, err := fleet.OpenLocalPool(o.building, o.shards, o.debounce, o.retain, o.dataDir, o.policy)
	if err != nil {
		return nil, nil, err
	}
	if o.dataDir != "" {
		log.Printf("bmsd: recovered %d shard(s) from %s (fsync=%s)", o.shards, o.dataDir, o.policy)
	}
	return pool.Shards, pool, nil
}

// face is the second stage: the handler the shards are served through,
// where it tracks the devices' upload streams, and a stop for whatever it
// runs beside them. A lone in-process shard
// serves its own API with the admission gate directly on its ingest
// path. Anything else gets the one gateway, with training iff the shards
// are in process (shard 0 owns the training store), a leadership lease
// iff -self is given, and the residue sweep iff no lease manages the
// gateway: the leader that routed the reports owns the sweep, and a
// freshly promoted standby has no business expiring devices it has not
// yet seen report.
func face(o *options, shards []fleet.Shard, pool *fleet.LocalPool) (handler http.Handler, devices *bms.StreamSet, stop func(), err error) {
	// One process-wide registry feeds GET /metrics and GET
	// /api/v1/telemetry. Every in-process shard registers into it:
	// identical series share handles, so the scrape shows pool-wide
	// aggregates (per-shard breakdowns belong to per-process shards).
	met := obs.New()
	transport.Instrument(met)
	for _, srv := range pool.Servers {
		srv.Instrument(met)
	}
	if !o.gateway() {
		pool.Servers[0].SetAdmission(o.admission)
		return pool.Servers[0].Handler(), pool.Servers[0].Streams(), func() {}, nil
	}
	// ProbeInterval keeps external health polling from fanning a probe
	// per shard per request (and from flapping routing).
	cfg := fleet.Config{
		ProbeInterval: 2 * time.Second,
		Admission:     o.admission,
		SkewWindow:    o.skewWindow,
	}
	if o.self == "" {
		cfg.ResidueTTL = o.residueTTL
	}
	gateway, err := fleet.New(shards, cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	gateway.Instrument(met)
	var opts fleet.HandlerOptions
	if len(pool.Servers) > 0 {
		opts.Trainer = pool.Servers[0]
	}
	if o.self == "" {
		// The gateway persists nothing: shards that outlived an earlier
		// one — recovered from -data-dir, or remote — hold devices it
		// never routed, so it learns them for rebalance and the sweep. A
		// lease does the same whenever it wins a claim.
		if len(o.urls) > 0 || o.dataDir != "" {
			n, err := gateway.RebuildRegistry()
			if err != nil {
				log.Printf("bmsd: registry rebuild incomplete: %v", err)
			}
			log.Printf("bmsd: gateway registry rebuilt: %d device(s)", n)
		}
		return fleet.Handler(gateway, opts), gateway.Streams(), func() {}, nil
	}
	opts.Lease, err = fleet.NewLeaseController(gateway, fleet.LeaseConfig{Self: o.self, Peer: o.peer, TTL: o.leaseTTL})
	if err != nil {
		return nil, nil, nil, err
	}
	// Active bootstrap: claim leadership before taking traffic. The
	// shards may still be coming up, so retry briefly; if the claim keeps
	// losing (the peer already leads), fall back to standby — the Run
	// loop keeps probing and will claim when the peer dies.
	for attempt := 0; !o.standby && !opts.Lease.Active() && attempt < 10; attempt++ {
		if err := opts.Lease.Claim(); err != nil {
			log.Printf("bmsd: lease claim: %v", err)
			time.Sleep(300 * time.Millisecond)
		}
	}
	log.Printf("bmsd: lease: leading=%t at epoch %d (self=%s peer=%s ttl=%s)", opts.Lease.Active(), opts.Lease.Epoch(), o.self, o.peer, o.leaseTTL)
	done := make(chan struct{})
	go opts.Lease.Run(done)
	return fleet.Handler(gateway, opts), gateway.Streams(), func() { close(done) }, nil
}

// serve is the last stage: it answers on ln until a signal arrives, then
// drains in the order the drills read from the log — listener, handlers,
// streams stopped between frames (the devices' first), final compaction.
func serve(o *options, ln net.Listener, handler http.Handler, devices *bms.StreamSet, pool *fleet.LocalPool, sig <-chan os.Signal) error {
	// The stream sets in drain order: the devices' upload streams, then
	// every in-process shard's — a lone shard serves both kinds from one.
	sets := []*bms.StreamSet{devices}
	for _, srv := range pool.Servers {
		if srv.Streams() != devices {
			sets = append(sets, srv.Streams())
		}
	}
	openStreams := func() (n int) {
		for _, set := range sets {
			n += set.Open()
		}
		return n
	}
	// inflight counts requests between accept and handler return, so the
	// drain log shows what Shutdown is actually waiting for. An upgraded
	// stream of either route is not one of them: its handler returns when
	// the stream ends, Shutdown does not wait for it, and the drain below
	// stops it by name.
	var inflight atomic.Int64
	httpServer := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != wire.StreamPath && r.URL.Path != wire.UplinkPath {
			inflight.Add(1)
			defer inflight.Add(-1)
		}
		handler.ServeHTTP(w, r)
	})}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpServer.Serve(ln) }()
	select {
	case err := <-serveErr:
		return err
	case s := <-sig:
		log.Printf("bmsd: %v — draining %d in-flight request(s) and %d open stream(s), closing listener", s, inflight.Load(), openStreams())
	}

	// Shutdown closes the listener immediately, then waits for in-flight
	// handlers: ingest requests already accepted run to completion.
	ctx, cancel := context.WithTimeout(context.Background(), o.drain)
	defer cancel()
	if err := httpServer.Shutdown(ctx); err != nil {
		// Shutdown returned early but the abandoned handlers are still
		// running; give them a short grace so the compaction below does
		// not race their writes, and say so if any remain.
		deadline := time.Now().Add(5 * time.Second)
		for inflight.Load() > 0 && time.Now().Before(deadline) {
			time.Sleep(50 * time.Millisecond)
		}
		log.Printf("bmsd: drain cut short after %v: %v (%d request(s) still running)", o.drain, err, inflight.Load())
	} else {
		log.Print("bmsd: drained cleanly")
	}

	// The streams next, the devices' before the shards' — a device frame
	// in flight may still be on its way into a shard stream: each finishes
	// the frame it is in, acknowledges it and hangs up, so nothing is
	// acknowledged once the state below is cut. The loadgen drills read
	// this line.
	for _, set := range sets {
		set.Stop()
	}
	log.Printf("bmsd: streams stopped between frames: %d open stream(s)", openStreams())

	// Durable shards drain through a final compaction: snapshot the full
	// state, reclaim the log behind it, close the file. The next boot
	// replays the snapshot alone.
	if o.dataDir != "" {
		if err := pool.Close(); err != nil {
			return fmt.Errorf("WAL close failed: %w", err)
		}
		for i, srv := range pool.Servers {
			c := srv.LastCompaction()
			log.Printf("bmsd: durable state compacted to %s/shard-%d: stall_ms=%.3f snapshot_bytes=%d log_bytes_sealed=%d",
				o.dataDir, i, float64(c.Stall)/float64(time.Millisecond), c.SnapshotBytes, c.LogBytesSealed)
		}
	}
	return nil
}

// run is bmsd: open shards → pick the face → serve, once.
func run(o *options, sig <-chan os.Signal) error {
	shards, pool, err := openShards(o)
	if err != nil {
		return err
	}
	handler, devices, stop, err := face(o, shards, pool)
	if err != nil {
		return err
	}
	defer stop()
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	log.Printf("bmsd: serving %d shard(s) on %s (gateway: %t)", len(shards), ln.Addr(), o.gateway())
	return serve(o, ln, handler, devices, pool, sig)
}

// realMain returns the exit status: 2 for a command line bmsd refuses,
// 1 for a failure to come up or to drain.
func realMain(args []string, stderr io.Writer, sig <-chan os.Signal) int {
	o, err := parseFlags(args, stderr)
	switch {
	case errors.Is(err, flag.ErrHelp):
		return 0
	case err != nil:
		return 2
	}
	startDebugServer(o.debugAddr)
	if err := run(o, sig); err != nil {
		log.Printf("bmsd: %v", err)
		return 1
	}
	return 0
}

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	os.Exit(realMain(os.Args[1:], os.Stderr, sig))
}
