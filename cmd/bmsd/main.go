// Command bmsd runs the Building Management Server as a standalone HTTP
// service — the role the paper gives to the Flask/Tornado process on the
// Raspberry Pi. It serves the REST API over a chosen floor plan:
//
//	go run ./cmd/bmsd -addr :8080 -plan paper-house -snapshot bms.json
//
// With -shards N (N > 1) it instead serves a fleet gateway over N
// in-process BMS shards: device reports are consistent-hash routed by
// device id, occupancy queries answer from the federated merge, and
// training (on the shard-0 store) distributes the model snapshot to
// every shard. The API shape is identical either way, plus the
// fleet-only /api/v1/shards view.
//
// Endpoints:
//
//	GET  /api/v1/health
//	POST /api/v1/observations   device ranging reports
//	POST /api/v1/fingerprints   labelled collection samples
//	POST /api/v1/train          fit the scene-analysis SVM
//	GET  /api/v1/occupancy      per-room head counts
//	GET  /api/v1/events         committed enter/exit events
//	GET  /api/v1/rooms          floor-plan inventory (single-server)
//	GET  /api/v1/energy         demand-response comparison (single-server)
//	GET  /api/v1/model          current serialised model (single-server)
//	PUT  /api/v1/model          install/distribute a model snapshot
//	GET  /api/v1/dwell          per-room dwell rollup
//	GET  /api/v1/devices/{id}   latest report and room (single-server)
//	GET  /api/v1/rollup         per-room occupancy rollup (a single server adds
//	                            the device names and integer-ns dwell a gateway merges)
//	GET  /api/v1/shards         shard health and routing (fleet)
//	GET  /metrics               Prometheus text exposition
//	GET  /api/v1/telemetry      JSON metrics + flight-recorder events
//
// With -debug-addr, a second listener serves net/http/pprof — kept off
// the API port so profiling is strictly opt-in.
//
// On SIGINT/SIGTERM the server drains: the listener closes first so
// loadgen runs see connection-refused rather than mid-flight resets,
// in-flight ingest requests run to completion (bounded by -drain), the
// upgraded gateway streams — which http.Server.Shutdown does not wait
// for — are stopped between frames, and only then is training state
// snapshotted, the durable state compacted, and the process exits.
//
// With -snapshot, training state (fingerprints and the fitted model) is
// restored at boot and persisted after the drain, so a restarted server
// keeps classifying without a fresh collection walk.
//
// With -admit-inflight/-admit-queue, ingest runs behind a bounded
// admission gate: excess load is shed with 429 + Retry-After instead of
// queueing without bound (see internal/overload). In fleet mode,
// -skew-window re-anchors device clocks that report outside the window,
// and -breaker-threshold/-breaker-cooldown trip a per-shard circuit
// breaker on consecutive infrastructure failures so a black-holed shard
// fails fast instead of eating a timeout per request.
//
// With -data-dir, every shard opens a write-ahead log under
// <data-dir>/shard-<i>/ and recovers its full state — observations,
// occupancy, dedup marks, model — at boot, so even a kill -9 loses
// nothing that reached the log (see internal/store WAL docs). -fsync
// picks the sync policy: "batch" syncs every append, "interval" syncs
// on a 100ms ticker, "off" leaves flushing to the kernel (process
// crashes still lose nothing; power loss can). A graceful shutdown
// additionally compacts: state is snapshotted and the log behind the
// snapshot reclaimed, so the next boot replays the snapshot alone. In fleet mode the
// gateway itself persists nothing — at boot it rebuilds its device
// registry by asking each recovered shard for its device set.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux; served only via -debug-addr
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"occusim/internal/building"
	"occusim/internal/fleet"
	"occusim/internal/obs"
	"occusim/internal/overload"
	"occusim/internal/store"
	"occusim/internal/transport"
	"occusim/internal/wire"
)

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
		// every API route lives on the explicit muxes below.
		if err := http.ListenAndServe(addr, nil); err != nil {
			log.Printf("bmsd: debug server: %v", err)
		}
	}()
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	plan := flag.String("plan", "paper-house", "floor plan: paper-house, office-floor, single-room, corridor, campus")
	shards := flag.Int("shards", 1, "BMS shard count (1: single server, >1: in-process fleet behind a gateway)")
	debounce := flag.Int("debounce", 2, "occupancy tracker debounce (consecutive classifications)")
	retain := flag.Int("retain", 1000, "observations retained per device")
	snapshot := flag.String("snapshot", "", "path for persisted training state (load at boot, save on shutdown)")
	drain := flag.Duration("drain", 15*time.Second, "shutdown grace for in-flight requests")
	residueTTL := flag.Duration("residue-ttl", 10*time.Minute, "fleet mode: age out device state stranded on a shard that could not be migrated from (report-clock TTL, 0 disables)")
	dataDir := flag.String("data-dir", "", "directory for per-shard write-ahead logs and snapshots (empty: volatile)")
	fsync := flag.String("fsync", "batch", "WAL sync policy with -data-dir: batch, interval, off")
	admitInflight := flag.Int("admit-inflight", 0, "ingest admission limit: concurrent ingest calls before queueing (0 disables overload protection)")
	admitQueue := flag.Int("admit-queue", 0, "ingest admission queue beyond -admit-inflight; excess is shed with 429 + Retry-After (0: twice -admit-inflight)")
	retryAfter := flag.Duration("retry-after", time.Second, "Retry-After hint advertised on shed ingest requests")
	skewWindow := flag.Duration("skew-window", 0, "fleet mode: tolerated device clock skew; reports further out are re-anchored per device (0 disables)")
	breakerTrips := flag.Int("breaker-threshold", 0, "fleet mode: consecutive shard infrastructure failures that trip its circuit breaker (0 disables)")
	breakerCooldown := flag.Duration("breaker-cooldown", 5*time.Second, "fleet mode: open-circuit cooldown before a half-open probe")
	shardURLs := flag.String("shard-urls", "", "comma-separated remote shard base URLs: serve an HA gateway over them instead of in-process shards (see gateway.go)")
	selfURL := flag.String("self", "", "gateway-HA mode: this gateway's advertised URL (the leader hint; required with -shard-urls)")
	peerURL := flag.String("peer", "", "gateway-HA mode: the partner gateway's URL (probed by a standby)")
	standby := flag.Bool("standby", false, "gateway-HA mode: start as warm standby instead of claiming leadership")
	leaseTTL := flag.Duration("lease-ttl", 3*time.Second, "gateway-HA mode: leadership lease TTL (renew and probe at TTL/3)")
	debugAddr := flag.String("debug-addr", "", "separate listen address serving net/http/pprof (empty: no debug server)")
	flag.Parse()

	startDebugServer(*debugAddr)

	if *shardURLs != "" {
		runGatewayHA(gatewayHAConfig{
			addr:      *addr,
			shardURLs: *shardURLs,
			self:      *selfURL,
			peer:      *peerURL,
			standby:   *standby,
			leaseTTL:  *leaseTTL,
			drain:     *drain,
			// ResidueTTL stays off: the leader that routed the reports
			// owns the sweep; a freshly promoted standby has no business
			// expiring devices it has not yet seen report.
			admission: overload.Config{
				MaxInflight: *admitInflight,
				MaxQueue:    *admitQueue,
				RetryAfter:  *retryAfter,
			},
			skewWindow:      *skewWindow,
			breakerTrips:    *breakerTrips,
			breakerCooldown: *breakerCooldown,
		})
		return
	}

	b, err := building.ByName(*plan)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *shards < 1 {
		fmt.Fprintln(os.Stderr, "bmsd: -shards must be at least 1")
		os.Exit(2)
	}
	policy, err := store.ParseFsyncPolicy(*fsync)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bmsd:", err)
		os.Exit(2)
	}

	// Build the shard pool. The first server owns the training store
	// (fingerprints, model snapshot persistence); with one shard it is
	// simply the whole BMS. With -data-dir the pool is durable: each
	// server recovers from its WAL before taking traffic.
	var pool *fleet.LocalPool
	if *dataDir != "" {
		pool, err = fleet.NewDurableLocalPool(b, *shards, *debounce, *retain, *dataDir, policy)
		if err == nil {
			log.Printf("bmsd: recovered %d shard(s) from %s (fsync=%s)", *shards, *dataDir, policy)
		}
	} else {
		pool, err = fleet.NewLocalPool(b, *shards, *debounce, *retain)
	}
	if err != nil {
		log.Fatal(err)
	}
	trainer, trainerStore := pool.Servers[0], pool.Stores[0]
	if *snapshot != "" {
		if err := loadSnapshot(trainerStore, *snapshot); err != nil {
			log.Fatal(err)
		}
	}

	admission := overload.Config{
		MaxInflight: *admitInflight,
		MaxQueue:    *admitQueue,
		RetryAfter:  *retryAfter,
	}

	// One process-wide registry feeds GET /metrics and
	// GET /api/v1/telemetry. In fleet mode every in-process shard
	// registers into it: identical series share handles, so the scrape
	// shows pool-wide aggregates (per-shard breakdowns belong to the
	// per-process shard deployments the crash drills run).
	met := obs.New()
	transport.Instrument(met)

	var handler http.Handler
	var gateway *fleet.Gateway
	if *shards == 1 {
		// Single server: the admission gate sits directly on the BMS
		// ingest path; shed requests answer 429 + Retry-After.
		trainer.SetAdmission(admission)
		trainer.Instrument(met)
		handler = trainer.Handler()
	} else {
		// ProbeInterval keeps external health polling from fanning a
		// probe per shard per request (and from flapping routing);
		// ResidueTTL sweeps stranded per-device state out of the
		// federated views when an unreachable shard's devices could not
		// be migrated off it.
		gateway, err = fleet.New(pool.Shards, fleet.Config{
			ProbeInterval:    2 * time.Second,
			ResidueTTL:       *residueTTL,
			Admission:        admission,
			SkewWindow:       *skewWindow,
			BreakerThreshold: *breakerTrips,
			BreakerCooldown:  *breakerCooldown,
		})
		if err != nil {
			log.Fatal(err)
		}
		gateway.Instrument(met)
		for _, srv := range pool.Servers {
			srv.Instrument(met)
		}
		// A durable fleet's gateway persists nothing: after the shards
		// recover, repopulate the migration registry from their device
		// sets so rebalance and the TTL sweep see pre-crash devices.
		if *dataDir != "" {
			n, err := gateway.RebuildRegistry()
			if err != nil {
				log.Printf("bmsd: registry rebuild incomplete: %v", err)
			}
			log.Printf("bmsd: gateway registry rebuilt: %d device(s)", n)
		}
		handler = fleet.Handler(gateway, fleet.HandlerOptions{Trainer: trainer})
	}

	// A restored model blob needs retraining into the live classifier;
	// retrain from restored fingerprints when present, and in fleet mode
	// distribute the result to every shard.
	if trainerStore.FingerprintCount() > 0 {
		if res, err := trainer.Train(0, 0, 0); err != nil {
			log.Printf("bmsd: could not retrain from snapshot: %v", err)
		} else {
			log.Printf("bmsd: retrained from snapshot: %d fingerprints, %d support vectors",
				res.Samples, res.SupportVectors)
			if gateway != nil {
				if snap, ok := trainer.ModelSnapshot(); ok {
					if err := gateway.DistributeModel(snap); err != nil {
						log.Printf("bmsd: model distribution failed: %v", err)
					} else {
						log.Printf("bmsd: model v%d distributed to %d shards", snap.Version, gateway.Shards())
					}
				}
			}
		}
	}

	// inflight counts requests between accept and handler return, so the
	// drain log shows what Shutdown is actually waiting for. An upgraded
	// gateway stream is not one of them: its handler returns when the
	// stream ends, Shutdown does not wait for it, and the drain below
	// stops it by name.
	var inflight atomic.Int64
	counted := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != wire.StreamPath {
			inflight.Add(1)
			defer inflight.Add(-1)
		}
		handler.ServeHTTP(w, r)
	})
	openStreams := func() (n int) {
		for _, srv := range pool.Servers {
			n += srv.OpenStreams()
		}
		return n
	}
	httpServer := &http.Server{Addr: *addr, Handler: counted}

	serveErr := make(chan error, 1)
	go func() {
		serveErr <- httpServer.ListenAndServe()
	}()

	mode := "single server"
	if *shards > 1 {
		mode = fmt.Sprintf("%d-shard fleet", *shards)
	}
	log.Printf("bmsd: serving %q (%d rooms, %d beacons) as %s on %s",
		b.Name, len(b.Rooms), len(b.Beacons), mode, *addr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-serveErr:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
		return
	case s := <-sig:
		log.Printf("bmsd: %v — draining %d in-flight request(s) and %d open stream(s), closing listener", s, inflight.Load(), openStreams())
	}

	// Shutdown closes the listener immediately, then waits for in-flight
	// handlers: ingest requests already accepted run to completion.
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	if err := httpServer.Shutdown(ctx); err != nil {
		// Shutdown returned early but the abandoned handlers are still
		// running; give them a short grace so the snapshot below does
		// not race their writes, and say so if any remain.
		deadline := time.Now().Add(5 * time.Second)
		for inflight.Load() > 0 && time.Now().Before(deadline) {
			time.Sleep(50 * time.Millisecond)
		}
		if n := inflight.Load(); n > 0 {
			log.Printf("bmsd: drain cut short after %v: %v (%d request(s) still running; the saved snapshot may miss their writes)",
				*drain, err, n)
		} else {
			log.Printf("bmsd: drain exceeded %v but all handlers finished", *drain)
		}
	} else {
		log.Print("bmsd: drained cleanly")
	}
	cancel()

	// The streams next: each finishes the frame it is in, acknowledges it
	// and hangs up, so nothing is acknowledged once the state below is
	// cut. The loadgen drills read this line.
	for _, srv := range pool.Servers {
		srv.StopStreams()
	}
	log.Printf("bmsd: streams stopped between frames: %d open stream(s)", openStreams())

	// Persist training state only after the drain, so nothing lands in
	// the store once the snapshot is cut.
	if *snapshot != "" {
		if err := saveSnapshot(trainerStore, *snapshot); err != nil {
			log.Printf("bmsd: snapshot save failed: %v", err)
		} else {
			log.Printf("bmsd: training state saved to %s", *snapshot)
		}
	}
	// Durable shards drain through a final compaction: snapshot the full
	// state, reclaim the log behind it, close the file. The next boot
	// replays the snapshot alone.
	if *dataDir != "" {
		if err := pool.Close(); err != nil {
			log.Printf("bmsd: WAL close failed: %v", err)
		} else {
			for i, srv := range pool.Servers {
				c := srv.LastCompaction()
				log.Printf("bmsd: durable state compacted to %s/shard-%d: stall_ms=%.3f snapshot_bytes=%d log_bytes_sealed=%d",
					*dataDir, i, float64(c.Stall)/float64(time.Millisecond), c.SnapshotBytes, c.LogBytesSealed)
			}
		}
	}
	<-serveErr
}

// loadSnapshot restores training state when the file exists; a missing
// file is a fresh start, not an error.
func loadSnapshot(st *store.Store, path string) error {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		log.Printf("bmsd: no snapshot at %s, starting fresh", path)
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	if err := st.ReadSnapshot(f); err != nil {
		return err
	}
	log.Printf("bmsd: restored %d fingerprints from %s", st.FingerprintCount(), path)
	return nil
}

// saveSnapshot writes training state atomically and durably: temp file
// in the same directory, fsync, rename over the target, fsync the
// directory — a crash leaves either the old snapshot or the new one,
// never a torn file, and the rename survives power loss.
func saveSnapshot(st *store.Store, path string) error {
	return store.WriteFileAtomic(path, st.WriteSnapshot)
}
