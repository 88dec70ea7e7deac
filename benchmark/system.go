package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"time"

	"occusim/internal/bms"
	"occusim/internal/building"
	"occusim/internal/experiments"
	"occusim/internal/fleet"
	"occusim/internal/obs"
	"occusim/internal/store"
	"occusim/internal/transport"
	"occusim/internal/wire"
)

// plan is one pass over one workload: which inputs, how much of them.
type plan struct {
	w       workload
	seed    uint64
	seconds int
	// scale shrinks the report counts: 1 for a measured run, traceScale
	// for the traced passes, 1/100 in the smoke test.
	scale  float64
	traced bool
	// tmpRoot holds the durable shards' data directories.
	tmpRoot string
}

func atLeast1(x float64) int {
	if n := int(math.Round(x)); n > 1 {
		return n
	}
	return 1
}

// steps is the closed-loop timed phase's length in rounds of one
// report per device: lapsPerSecond × seconds laps of 150, and never
// fewer than two batches per device.
func (p plan) steps() int {
	return max(2*batchReports, atLeast1(p.w.lapsPerSecond*float64(p.seconds)*p.scale*reportsPerLap))
}

// warmSteps is the untimed warm-up: one lap (two batches per device in
// the smoke test).
func (p plan) warmSteps() int {
	if p.small() {
		return 2 * batchReports
	}
	return reportsPerLap
}

// pacedBatches is the open-loop schedule's length at the fixed rate.
func (p plan) pacedBatches() int {
	return atLeast1(pacedReportsPerS * float64(p.seconds) * p.scale / batchReports)
}

// small reports whether the pass is below traced scale (the smoke
// test): state-filling phases and the compaction threshold then shrink
// with it, so every mechanism still fires.
func (p plan) small() bool { return p.scale < traceScale/2 }

func (p plan) fillLaps() int {
	if p.small() {
		return 1
	}
	return fillLaps
}

func (p plan) recoveryLaps() int {
	if p.small() {
		return 1
	}
	return recoveryLaps
}

// compactThreshold is 0 (the server's default) for every measured pass.
func (p plan) compactThreshold() int64 {
	if p.small() {
		return int64(bms.DefaultCompactThreshold * p.scale * 3)
	}
	return 0
}

// clock is the one monotonic clock a pass's spans, acks and slice marks
// share.
type clock struct{ t0 time.Time }

func (c clock) now() int64 { return int64(time.Since(c.t0)) }

// system is one workload's topology, built in-process from the public
// constructors, with real loopback sockets wherever HTTP is on the path
// and the obs registry attached the way cmd/bmsd attaches it.
type system struct {
	plan    plan
	b       *building.Building
	met     *obs.Metrics
	servers []*bms.Server
	// shards are what the gateway routes to: HTTPShard clients, or the
	// one LocalShard of shard-durable (then the gateway serves only model
	// distribution, reads and verification — ingest bypasses it).
	shards  []fleet.Shard
	gw      *fleet.Gateway
	gwURL   string
	model   bms.ModelSnapshot
	streams [][]transport.Report
	names   []string
	clients []*client
	// readc is the reader's own one-connection client (HTTP workloads).
	readc *http.Client

	clock clock
	tr    *tracer // nil when the pass is untraced
	ph    *phase  // non-nil only while the timed phase runs

	closers []func() error
}

// modelFor trains the crowd scene model once per set-up; every server
// of the system installs the same snapshot.
func modelFor(b *building.Building, seed uint64) (bms.ModelSnapshot, error) {
	st, err := store.New(retainPerDev)
	if err != nil {
		return bms.ModelSnapshot{}, err
	}
	trainer, err := bms.NewServer(b, st, debounce)
	if err != nil {
		return bms.ModelSnapshot{}, err
	}
	if err := experiments.TrainCrowdModel(trainer, b, seed); err != nil {
		return bms.ModelSnapshot{}, err
	}
	snap, ok := trainer.ModelSnapshot()
	if !ok {
		return bms.ModelSnapshot{}, fmt.Errorf("trainer produced no model snapshot")
	}
	return snap, nil
}

// serveLoopback serves h on an ephemeral loopback port. The returned
// closer stops the server and waits for its accept loop to end.
func serveLoopback(h http.Handler) (addr string, closer func() error, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // returns ErrServerClosed once closer runs
	}()
	return ln.Addr().String(), func() error {
		err := srv.Close()
		<-done
		return err
	}, nil
}

// dialFixed makes a transport reach addr whatever host the URL names.
// HTTPShard's URL is its ring identity, so the shards get stable names
// ("http://shard-0.bench") — placement must not follow ephemeral ports —
// while the bytes still cross a real loopback socket.
func dialFixed(addr string) func(ctx context.Context, network, _ string) (net.Conn, error) {
	var d net.Dialer
	return func(ctx context.Context, network, _ string) (net.Conn, error) {
		return d.DialContext(ctx, network, addr)
	}
}

func openServer(b *building.Building, dir string, policy store.FsyncPolicy, threshold int64) (*bms.Server, error) {
	st, err := store.New(retainPerDev)
	if err != nil {
		return nil, err
	}
	if dir == "" {
		return bms.NewServer(b, st, debounce)
	}
	return bms.OpenDurableServer(b, st, debounce, bms.DurableConfig{
		Dir: dir, Policy: policy, CompactThreshold: threshold,
	})
}

// build constructs the topology and the clients, but sends nothing.
func build(p plan) (sys *system, err error) {
	sys = &system{plan: p, b: building.PaperHouse(), met: obs.New(), clock: clock{time.Now()}}
	defer func() {
		if err != nil {
			_ = sys.close()
		}
	}()
	w := p.w
	transport.Instrument(sys.met)
	sys.streams, sys.names, _ = experiments.SynthCrowdStreams(sys.b, w.devices, reportsPerLap, p.seed)
	if p.traced {
		// Spans per upload: sink, RoundTrip(s), gateway handler, and per
		// shard call its RoundTrip and handler; 24 covers a relay upload
		// split four ways, with the reads and ring fetches on top.
		uploads := w.devices*(p.steps()+p.warmSteps())/batchReports + p.pacedBatches()
		sys.tr = newTracer(sys.clock, w.devices, 24*uploads+4096)
	}
	snap, err := modelFor(sys.b, p.seed)
	if err != nil {
		return nil, err
	}
	sys.model = snap

	nShards := w.shards
	if nShards == 0 {
		nShards = 1
	}
	for i := 0; i < nShards; i++ {
		dir := ""
		if w.durable {
			if dir, err = os.MkdirTemp(p.tmpRoot, fmt.Sprintf("%s-shard%d-", w.name, i)); err != nil {
				return nil, err
			}
			sys.closers = append(sys.closers, func() error { return os.RemoveAll(dir) })
		}
		if w.shards == 0 && w.durable {
			if err := sys.fillRetention(dir, snap); err != nil {
				return nil, err
			}
		}
		srv, err := openServer(sys.b, dir, store.FsyncBatch, p.compactThreshold())
		if err != nil {
			return nil, err
		}
		sys.closers = append(sys.closers, srv.Close)
		srv.Instrument(sys.met)
		sys.servers = append(sys.servers, srv)

		var shard fleet.Shard
		if w.shards == 0 {
			if shard, err = fleet.NewLocalShard("shard-0", srv); err != nil {
				return nil, err
			}
		} else {
			var h http.Handler = srv.Handler()
			if sys.tr != nil {
				h = &tracedHandler{next: h, tr: sys.tr}
			}
			addr, closeSrv, err := serveLoopback(h)
			if err != nil {
				return nil, err
			}
			sys.closers = append(sys.closers, closeSrv)
			// The same keep-alive tuning as transport.PooledClient, which
			// a nil client would select.
			t := &http.Transport{
				DialContext:         dialFixed(addr),
				MaxIdleConns:        1024,
				MaxIdleConnsPerHost: 256,
				IdleConnTimeout:     90 * time.Second,
			}
			sys.closers = append(sys.closers, func() error { t.CloseIdleConnections(); return nil })
			var rt http.RoundTripper = t
			if sys.tr != nil {
				rt = &tracedRT{next: t, tr: sys.tr, layer: lShardRT}
			}
			hs, err := fleet.NewHTTPShard(fmt.Sprintf("http://shard-%d.bench", i), &http.Client{Transport: rt}, transport.DefaultRetry())
			if err != nil {
				return nil, err
			}
			hs.SetCodec(w.codec)
			shard = hs
		}
		if sys.tr != nil {
			if shard, err = newTracedShard(shard, sys.tr); err != nil {
				return nil, err
			}
		}
		sys.shards = append(sys.shards, shard)
	}

	if sys.gw, err = fleet.New(sys.shards, fleet.Config{}); err != nil {
		return nil, err
	}
	sys.gw.Instrument(sys.met)
	if err := sys.gw.DistributeModel(snap); err != nil {
		return nil, err
	}
	if w.shards > 0 {
		var h http.Handler = fleet.Handler(sys.gw, fleet.HandlerOptions{})
		if sys.tr != nil {
			h = &tracedHandler{next: h, tr: sys.tr, gateway: true}
		}
		addr, closeGW, err := serveLoopback(h)
		if err != nil {
			return nil, err
		}
		sys.closers = append(sys.closers, closeGW)
		sys.gwURL = "http://" + addr
		sys.readc = sys.oneConnClient(nil)
	}
	return sys, sys.buildClients()
}

// oneConnClient builds an http.Client capped at one connection — one
// client goroutine is one device radio. upload is where a device client
// publishes its in-flight upload id on a traced pass; the reader passes
// nil and stays untraced on its side (the gateway handler times reads).
func (sys *system) oneConnClient(upload *uint32) *http.Client {
	t := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, IdleConnTimeout: 90 * time.Second}
	sys.closers = append(sys.closers, func() error { t.CloseIdleConnections(); return nil })
	var rt http.RoundTripper = t
	if sys.tr != nil && upload != nil {
		rt = &tracedRT{next: t, tr: sys.tr, layer: lDevRT, upload: upload}
	}
	return &http.Client{Transport: rt}
}

// close tears the topology down in reverse build order. Durable servers
// drain through a final compaction before their directories go.
func (sys *system) close() error {
	var first error
	for i := len(sys.closers) - 1; i >= 0; i-- {
		if err := sys.closers[i](); err != nil && first == nil {
			first = err
		}
	}
	sys.closers = nil
	return first
}

// encodeFrame appends reports to dst as one wire frame, as the device
// side of the binary codec does.
func encodeFrame(dst []byte, reports []transport.Report) ([]byte, error) {
	b := wire.GetBatch()
	defer wire.PutBatch(b)
	if err := transport.EncodeReports(b, reports); err != nil {
		return nil, err
	}
	return wire.AppendFrame(dst, b), nil
}

// frameSink is shard-durable's uplink: it encodes a batch as one wire
// frame and hands it to the shard the way an in-process gateway's
// verbatim forward does. One per client; buf is reused across sends.
type frameSink struct {
	shard fleet.FrameIngester
	buf   []byte
}

func (f *frameSink) Name() string { return "frame-direct" }

func (f *frameSink) Send(r transport.Report) error {
	return f.SendBatch([]transport.Report{r})
}

func (f *frameSink) SendBatch(reports []transport.Report) error {
	var err error
	if f.buf, err = encodeFrame(f.buf[:0], reports); err != nil {
		return err
	}
	rooms, err := f.shard.IngestFrame(f.buf, len(reports))
	if err == nil && len(rooms) != len(reports) {
		err = fmt.Errorf("shard answered %d rooms for %d reports", len(rooms), len(reports))
	}
	return err
}

// feedDirect opens a server on dir with fsync off and no compaction,
// installs the model and streams every device's reports [from, from+n)
// into it as 11-report frames under the given device epoch — the fast
// untimed feeder behind the retention fill and the recovery phase.
func (sys *system) feedDirect(dir string, snap bms.ModelSnapshot, epoch uint64, from, n int) (*bms.Server, error) {
	srv, err := openServer(sys.b, dir, store.FsyncOff, -1)
	if err != nil {
		return nil, err
	}
	if _, err := srv.InstallModel(snap); err != nil {
		return nil, err
	}
	ls, err := fleet.NewLocalShard("shard-0", srv)
	if err != nil {
		return nil, err
	}
	all := make([]int, sys.plan.w.devices)
	for d := range all {
		all[d] = d
	}
	c, err := newClient(sys, all, &frameSink{shard: ls}, transport.NewSequencer(epoch), false)
	if err != nil {
		return nil, err
	}
	for k := range c.pos {
		c.pos[k] = from
	}
	c.drive(n)
	c.flush()
	if c.failed > 0 {
		return nil, fmt.Errorf("direct feed: %d sends failed: %w", c.failed, c.lastErr)
	}
	return srv, nil
}

// fillRetention brings a fresh data directory to shard-durable's steady
// state: every device at its 1000-observation retention, so each
// compaction of the timed phase snapshots the same amount. The fill
// runs with fsync off, drains through Close (one snapshot), and the
// measured server then recovers from that snapshot. It uses device
// epoch 1; the measured traffic restarts sequences under epoch 2.
func (sys *system) fillRetention(dir string, snap bms.ModelSnapshot) error {
	srv, err := sys.feedDirect(dir, snap, 1, 0, sys.plan.fillLaps()*reportsPerLap)
	if err != nil {
		return err
	}
	return srv.Close()
}

// firstPos is where the measured traffic starts in each device's
// stream: after the retention fill when there was one.
func (sys *system) firstPos() int {
	if sys.plan.w.shards == 0 && sys.plan.w.durable {
		return sys.plan.fillLaps() * reportsPerLap
	}
	return 0
}

func (sys *system) deviceEpoch() uint64 {
	if sys.firstPos() > 0 {
		return 2
	}
	return 1
}

// buildClients partitions the devices over C = min(nproc, 4) client
// goroutines (an open loop keeps one of them for the reader) and gives
// each its own one-connection http.Client, sink and uplinks.
func (sys *system) buildClients() error {
	w := sys.plan.w
	n := clientCount()
	if w.openLoop && n > 1 {
		n--
	}
	for ci := 0; ci < n; ci++ {
		var devs []int
		for d := ci; d < w.devices; d += n {
			devs = append(devs, d)
		}
		c := &client{}
		var sink transport.Uplink
		switch {
		case w.shards == 0:
			sink = &frameSink{shard: sys.shards[0].(fleet.FrameIngester)}
		case w.codec == transport.CodecBinary:
			sink = &transport.ShardSplitter{BaseURL: sys.gwURL, Client: sys.oneConnClient(&c.upload), Retry: transport.DefaultRetry()}
		default:
			sink = &transport.HTTPUplink{BaseURL: sys.gwURL, Client: sys.oneConnClient(&c.upload), Retry: transport.DefaultRetry(), Codec: transport.CodecJSON}
		}
		if err := c.init(sys, devs, sink, transport.NewSequencer(sys.deviceEpoch()), w.relay); err != nil {
			return err
		}
		for k := range c.pos {
			c.pos[k] = sys.firstPos()
		}
		sys.clients = append(sys.clients, c)
	}
	return nil
}
