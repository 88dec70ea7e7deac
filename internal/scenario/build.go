package scenario

import (
	"net"
	"net/http"
	"time"

	"occusim/internal/building"
	"occusim/internal/experiments"
	"occusim/internal/fleet"
	"occusim/internal/fleet/fleettest"
	"occusim/internal/obs"
	"occusim/internal/store"
	"occusim/internal/transport"
)

// Every shard the harness builds debounces 2 cycles and retains 1000
// observations, as bmsd does by default.
const (
	debounce = 2
	retain   = 1000
)

// Spec is the fleet a crowd is driven through. It carries only what
// callers set differently; the zero value of every field but Shards is
// the plain in-process fleet.
type Spec struct {
	// Shards sizes the pool Build makes (ignored with ShardURLs).
	Shards int
	// Dir, when set, makes the pool durable under Dir/shard-<i> at Policy.
	Dir    string
	Policy store.FsyncPolicy
	// Loopback puts every shard of the pool and gateway 0 behind HTTP
	// listeners on 127.0.0.1: the gateways reach the shards through
	// HTTPShard streams and devices reach gateway 0 at Fleet.URL.
	Loopback bool
	// ShardURLs names shards that already run (cmd/loadgen's bmsd
	// subprocesses); Build makes no pool and rings HTTPShard clients.
	ShardURLs []string
	// Gateways is how many gateways share the shards (default 1).
	Gateways int
	Fleet    fleet.Config
	// Wrap, when set, stands a double (Slow, Flaky) between every gateway
	// and every shard; Verify refuses a run in which none of them fired.
	Wrap func(fleet.Shard) fleet.Shard
	// Metrics, when set, is the one registry every gateway and every
	// pool server reports into.
	Metrics *obs.Metrics
}

// Slow is the Spec.Wrap that stretches every delivery by delay — the
// network hop and disk touch a local shard does not pay, without which
// no storm can overrun an admission gate in process.
func Slow(delay time.Duration) func(fleet.Shard) fleet.Shard {
	return func(s fleet.Shard) fleet.Shard { return &fleettest.SlowShard{Shard: s, Delay: delay} }
}

// Flaky is the Spec.Wrap that fails every n-th delivery, alternately
// before the shard saw it and after it committed.
func Flaky(every int) func(fleet.Shard) fleet.Shard {
	return func(s fleet.Shard) fleet.Shard { return &fleettest.FlakyShard{Shard: s, FailEvery: every} }
}

// Fleet is a built Spec: trained, model-distributed and ready to drive.
type Fleet struct {
	Spec     Spec
	Building *building.Building
	Pool     *fleet.LocalPool // nil over Spec.ShardURLs
	Gateways []*fleet.Gateway
	URL      string // gateway 0's base URL under Spec.Loopback

	seed      uint64
	shardURLs []string
	doubles   []fleet.Shard
	servers   []*http.Server
}

// Build assembles the fleet spec describes over floor plan b and, where
// the plan has the two rooms a classifier needs, trains the crowd model
// from seed and distributes it through gateway 0 (the shards are
// shared, so every gateway classifies alike).
func Build(b *building.Building, spec Spec, seed uint64) (*Fleet, error) {
	f := &Fleet{Spec: spec, Building: b, seed: seed, shardURLs: spec.ShardURLs}
	if err := f.build(); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

func (f *Fleet) build() (err error) {
	spec := f.Spec
	if spec.ShardURLs == nil {
		if f.Pool, err = fleet.OpenLocalPool(f.Building, spec.Shards, debounce, retain, spec.Dir, spec.Policy); err != nil {
			return err
		}
	}
	if f.Pool != nil {
		for _, srv := range f.Pool.Servers {
			srv.Instrument(spec.Metrics)
			if !spec.Loopback {
				continue
			}
			url, err := f.serve(srv.Handler())
			if err != nil {
				return err
			}
			f.shardURLs = append(f.shardURLs, url)
		}
	}
	for len(f.Gateways) < max(spec.Gateways, 1) {
		gw, err := f.NewGateway()
		if err != nil {
			return err
		}
		f.Gateways = append(f.Gateways, gw)
	}
	if spec.Loopback {
		if f.URL, err = f.serve(fleet.Handler(f.Gateways[0], fleet.HandlerOptions{})); err != nil {
			return err
		}
	}
	if !classifies(f.Building) {
		return nil
	}
	return experiments.TrainAndDistribute(f.Gateways[0], f.Building, f.seed)
}

// classifies reports whether the plan can carry the scene-analysis
// model: an SVM needs two classes, so a one-room plan runs fleet and
// reference alike on the default proximity classifier.
func classifies(b *building.Building) bool { return len(b.Rooms) >= 2 }

// NewGateway builds one more gateway over the fleet's shards — over
// HTTP with shard clients and streams of its own, which is all a
// gateway restart is: routing is a function of the shard names alone.
func (f *Fleet) NewGateway() (*fleet.Gateway, error) {
	var ring []fleet.Shard
	if f.shardURLs == nil {
		ring = append(ring, f.Pool.Shards...)
	}
	for _, url := range f.shardURLs {
		hs, err := fleet.NewHTTPShard(url, nil, transport.DefaultRetry())
		if err != nil {
			return nil, err
		}
		ring = append(ring, hs)
	}
	if f.Spec.Wrap != nil {
		for i, s := range ring {
			ring[i] = f.Spec.Wrap(s)
		}
		f.doubles = append(f.doubles, ring...)
	}
	gw, err := fleet.New(ring, f.Spec.Fleet)
	if err != nil {
		return nil, err
	}
	gw.Instrument(f.Spec.Metrics)
	return gw, nil
}

// serve puts h behind an ephemeral loopback listener until Close.
func (f *Fleet) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	f.servers = append(f.servers, srv)
	go srv.Serve(ln)
	return "http://" + ln.Addr().String(), nil
}

// Sinks returns the in-process door of every gateway, indexed as
// Batch.Gateway indexes them.
func (f *Fleet) Sinks() []Sink {
	sinks := make([]Sink, len(f.Gateways))
	for i, gw := range f.Gateways {
		sinks[i] = fleet.GatewayUplink{Gateway: gw}
	}
	return sinks
}

// Injected counts the deliveries the spec's doubles delayed or failed.
func (f *Fleet) Injected() int {
	n := 0
	for _, s := range f.doubles {
		switch d := s.(type) {
		case *fleettest.SlowShard:
			n += int(d.Slept())
		case *fleettest.FlakyShard:
			n += d.InjectedFailures()
		}
	}
	return n
}

// Close stops the listeners and drains the pool: a durable shard takes
// its final snapshot. A crash is a Fleet abandoned without Close.
func (f *Fleet) Close() error {
	for _, srv := range f.servers {
		srv.Close()
	}
	if f.Pool == nil {
		return nil
	}
	return f.Pool.Close()
}
