// Gateway-HA mode: with -shard-urls, bmsd serves a PURE gateway over
// remote BMS shards (each itself a bmsd -shards 1 process) instead of
// hosting in-process shards. Two such gateways — one started plain, one
// with -standby — form an active/standby pair with no coordinator
// beyond the shards themselves:
//
//	bmsd -addr :9090 -shard-urls http://s1,http://s2,http://s3 \
//	     -self http://gw1:9090 -peer http://gw2:9091
//	bmsd -addr :9091 -shard-urls http://s1,http://s2,http://s3 \
//	     -self http://gw2:9091 -peer http://gw1:9090 -standby
//
// The active claims a leadership epoch on a shard quorum and stamps it
// on every write; the standby probes the active's /api/v1/health and
// claims the next epoch after -lease-ttl of silence. A deposed active
// keeps running but every write it forwards is fenced by the shards
// (409 + leader hint), so clients whose transport.HTTPUplink lists both
// gateways follow leadership automatically and nothing lands twice.
package main

import (
	"context"
	"errors"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"occusim/internal/fleet"
	"occusim/internal/obs"
	"occusim/internal/overload"
	"occusim/internal/transport"
)

// gatewayHAConfig carries the -shard-urls mode flags.
type gatewayHAConfig struct {
	addr      string
	shardURLs string
	self      string
	peer      string
	standby   bool
	leaseTTL  time.Duration
	drain     time.Duration

	residueTTL      time.Duration
	admission       overload.Config
	skewWindow      time.Duration
	breakerTrips    int
	breakerCooldown time.Duration
}

// runGatewayHA serves the HA gateway until SIGINT/SIGTERM. It owns the
// whole process lifetime in -shard-urls mode.
func runGatewayHA(cfg gatewayHAConfig) {
	if cfg.self == "" {
		log.Fatal("bmsd: -shard-urls mode needs -self (the URL clients and the peer reach this gateway at)")
	}
	var urls []string
	for _, u := range strings.Split(cfg.shardURLs, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	if len(urls) == 0 {
		log.Fatal("bmsd: -shard-urls lists no shard URLs")
	}

	shards := make([]fleet.Shard, len(urls))
	for i, u := range urls {
		sh, err := fleet.NewHTTPShard(u, nil, transport.DefaultRetry())
		if err != nil {
			log.Fatal(err)
		}
		shards[i] = sh
	}
	gateway, err := fleet.New(shards, fleet.Config{
		ProbeInterval:    2 * time.Second,
		ResidueTTL:       cfg.residueTTL,
		Admission:        cfg.admission,
		SkewWindow:       cfg.skewWindow,
		BreakerThreshold: cfg.breakerTrips,
		BreakerCooldown:  cfg.breakerCooldown,
	})
	if err != nil {
		log.Fatal(err)
	}
	met := obs.New()
	transport.Instrument(met)
	gateway.Instrument(met)
	lease, err := fleet.NewLeaseController(gateway, fleet.LeaseConfig{
		Self: cfg.self,
		Peer: cfg.peer,
		TTL:  cfg.leaseTTL,
	})
	if err != nil {
		log.Fatal(err)
	}

	role := "standby"
	if !cfg.standby {
		// Active bootstrap: claim leadership before taking traffic. The
		// shards may still be coming up, so retry briefly; if the claim
		// keeps losing (the peer already leads), fall back to standby —
		// the Run loop keeps probing and will claim when the peer dies.
		claimed := false
		for attempt := 0; attempt < 10 && !claimed; attempt++ {
			if err := lease.Claim(); err != nil {
				log.Printf("bmsd: lease claim: %v", err)
				time.Sleep(300 * time.Millisecond)
				continue
			}
			claimed = true
		}
		if claimed {
			role = "active"
			log.Printf("bmsd: leading at epoch %d", lease.Epoch())
		} else {
			log.Printf("bmsd: could not claim leadership, running as standby")
		}
	}
	stop := make(chan struct{})
	defer close(stop)
	go lease.Run(stop)

	handler := fleet.Handler(gateway, fleet.HandlerOptions{Lease: lease})
	httpServer := &http.Server{Addr: cfg.addr, Handler: handler}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpServer.ListenAndServe() }()
	log.Printf("bmsd: HA gateway (%s) over %d shard(s) on %s (self=%s peer=%s ttl=%s)",
		role, len(urls), cfg.addr, cfg.self, cfg.peer, cfg.leaseTTL)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-serveErr:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
		return
	case s := <-sig:
		log.Printf("bmsd: %v — draining", s)
	}
	ctx, cancel := context.WithTimeout(context.Background(), cfg.drain)
	defer cancel()
	if err := httpServer.Shutdown(ctx); err != nil {
		log.Printf("bmsd: drain cut short: %v", err)
	}
	<-serveErr
}
