// Package ble models the Bluetooth Low Energy advertising link between
// the beacon boards and the phones: periodic advertising events with the
// spec's pseudo-random advDelay jitter, per-packet channel draws from the
// radio model, listener duty cycling (a scanner hears only a fraction of
// the packets physically present), and an ALOHA-style collision model for
// co-located advertisers.
//
// The package deliberately stops below the scanning semantics of any
// particular OS: it delivers raw advertisement receptions. The scanner
// package layers Android's one-report-per-cycle behaviour and iOS's
// every-packet behaviour on top.
package ble

import (
	"fmt"
	"math"
	"time"

	"occusim/internal/geom"
	"occusim/internal/mobility"
	"occusim/internal/radio"
	"occusim/internal/rng"
	"occusim/internal/sim"
)

// AdvAirtime is the on-air duration of one iBeacon advertising PDU
// (preamble + access address + 30-byte payload + CRC at 1 Mb/s ≈ 376 µs,
// rounded up).
const AdvAirtime = 400 * time.Microsecond

// MaxAdvDelay is the specification's pseudo-random per-event advertising
// delay bound (0–10 ms).
const MaxAdvDelay = 10 * time.Millisecond

// Advertiser is one beacon transmitter.
type Advertiser struct {
	// Name identifies the advertiser in reports; typically the beacon ID
	// string.
	Name string
	// Payload is the advertising PDU payload (an encoded iBeacon packet).
	Payload []byte
	// LinkID feeds the per-link shadowing field of the radio model;
	// typically ibeacon.BeaconID.Hash64().
	LinkID uint64
	// PowerAt1mDBm is the true received power 1 m from the antenna, the
	// reference the channel model propagates from. After calibration this
	// is close to the advertised measured-power field, but the two are
	// independent knobs.
	PowerAt1mDBm float64
	// Interval is the advertising interval. The paper's transmitter
	// advertises ~30 times per second (≈33 ms).
	Interval time.Duration
	// Pos is the mounting position (beacon boards do not move).
	Pos geom.Point
}

// Validate reports the first invalid field, or nil.
func (a *Advertiser) Validate() error {
	switch {
	case len(a.Payload) == 0:
		return fmt.Errorf("ble: advertiser %q has empty payload", a.Name)
	case a.Interval <= 0:
		return fmt.Errorf("ble: advertiser %q has non-positive interval", a.Name)
	}
	return nil
}

// Reception is one successfully decoded advertisement at a listener.
type Reception struct {
	// At is the simulated reception time.
	At time.Duration
	// Payload is the advertising payload as transmitted.
	Payload []byte
	// RSSI is the received signal strength indicator in dBm, including
	// the listener's device offset and measurement noise.
	RSSI float64
}

// Listener is one receiving radio attached to the world.
type Listener struct {
	// Name identifies the listener.
	Name string
	// Mobility yields the listener position over time.
	Mobility mobility.Model
	// OffsetDB is the handset's systematic RSSI offset (device.Profile).
	OffsetDB float64
	// NoiseSigmaDB is per-sample measurement noise added on top of the
	// channel.
	NoiseSigmaDB float64
	// CaptureProb is the probability that the listener's radio is tuned
	// and listening when a packet arrives (channel rotation × scan duty
	// cycle). 0 means "use 1.0".
	CaptureProb float64
	// Handler receives every decoded advertisement. Handlers run inside
	// the world's batched-delivery flow, where the engine clock may lag
	// Reception.At; they must not schedule engine events (react from a
	// ticker or cycle callback instead — see sim.Flow).
	Handler func(Reception)

	src *rng.Source
	idx int
	// capProb is captureProb() resolved once at attach time; lnMissProb
	// is ln(1−capProb), the geometric skip-sampling scale.
	capProb    float64
	lnMissProb float64
	// gapCDF[k-1] = P(gap ≤ k) = 1 − (1−capProb)^k, the geometric
	// capture-gap CDF prefix; gapGuide[j] is the Chen–Asau guide table
	// (the first CDF index whose value exceeds j/gapGuideLen). Gap draws
	// resolve by one guide lookup plus on average about one compare,
	// instead of paying a logarithm per captured packet; only the deep
	// tail past the CDF table falls back to inversion.
	gapCDF   []float64
	gapGuide []uint8
	// staticPos holds the listener's position when its mobility model is
	// mobility.Static, hoisting the per-packet interface call out of the
	// gather loop; nil for genuinely mobile listeners.
	staticPos *geom.Point
	// cullBelowDBm is the mean-RSSI level under which packets to this
	// listener are hopeless (sensitivity minus the fading-tail margin);
	// see radio.(*Channel).CullMarginDB.
	cullBelowDBm float64
}

func (l *Listener) captureProb() float64 {
	if l.CaptureProb == 0 {
		return 1
	}
	return l.CaptureProb
}

// Validate reports the first invalid field, or nil.
func (l *Listener) Validate() error {
	switch {
	case l.Mobility == nil:
		return fmt.Errorf("ble: listener %q has no mobility model", l.Name)
	case l.Handler == nil:
		return fmt.Errorf("ble: listener %q has no handler", l.Name)
	case l.CaptureProb < 0 || l.CaptureProb > 1:
		return fmt.Errorf("ble: listener %q capture probability %v outside [0,1]", l.Name, l.CaptureProb)
	case l.NoiseSigmaDB < 0:
		return fmt.Errorf("ble: listener %q negative noise sigma", l.Name)
	}
	return nil
}

// World wires advertisers, listeners, the radio channel and the event
// engine together.
//
// Advertising is delivered in batches: instead of one simulation-heap
// event per advertisement (one every ~28 ms of simulated time per beacon,
// with a closure allocation and heap churn each), the world registers a
// single sim.Flow. Whenever the engine is about to advance the clock past
// a gap between discrete events, the flow enumerates the deterministic
// advertisement times of every advertiser inside that window and samples
// receptions in a tight loop. Per-packet randomness comes from a stream
// derived from (listener, advertiser, packet index), so outcomes do not
// depend on how simulated time happens to be partitioned into windows.
type World struct {
	engine      *sim.Engine
	channel     *radio.Channel
	advertisers []*Advertiser
	advStates   []advState
	// listeners is indexed by Listener.idx; removed listeners leave a
	// nil hole so the indices (and hence the per-packet randomness tags)
	// of the remaining listeners never shift.
	listeners []*Listener
	src       *rng.Source

	// meanCache memoises the deterministic per-(link, position) part of
	// the channel response; the world is single-goroutine, so one cache
	// serves every link.
	meanCache *radio.MeanCache
	// slowGen caches the channel's slow-fade generator (immutable after
	// construction).
	slowGen radio.SlowFade

	// collisionProb[i] is the per-packet probability that advertiser i's
	// packet overlaps another advertiser's packet on the same channel at
	// a listener (slotted-ALOHA approximation: Σ over other advertisers
	// of 2·airtime/interval, divided by 3 channels).
	collisionProb []float64

	// links[listener][advertiser] holds the per-link hot-path state:
	// the Ornstein–Uhlenbeck fading value and the last receiver position
	// with its memoised channel environment. Direct slab indexing here
	// replaces a per-packet map lookup.
	links [][]linkState

	// pktBuf is the reused per-window packet-time buffer of
	// deliverWindow.
	pktBuf []time.Duration

	// batch is the reused struct-of-arrays scratch of the vectorized
	// delivery loop: one (listener, advertiser) link's captured packets
	// of the current window, processed stage by stage (draw fill, fading
	// chain, decode) in tight loops over the columns.
	batch linkBatch

	// cullEnabled gates hopeless-link culling: packets whose memoised
	// mean RSSI sits below the listener's cull threshold skip the fading
	// draws and the decode test entirely. Enabled by default; tests
	// disable it to compare against the exhaustive path.
	cullEnabled bool
	// culled counts packets skipped by the cull, for benchmarks and the
	// culling regression tests.
	culled uint64
}

// advState tracks one advertiser's position in its advertising train.
type advState struct {
	// nextAt is the time of the next advertising event.
	nextAt time.Duration
	// pkt counts advertising events from zero; it tags the per-packet
	// randomness streams.
	pkt uint64
	// src draws the spec's pseudo-random per-event advDelay jitter.
	src *rng.Source
}

// linkBatch is the struct-of-arrays buffer of one link's captured
// packets within a delivery window. Columns are indexed per packet;
// uni and nrm are strided (uniPerPkt / nrmPerPkt draws per packet).
type linkBatch struct {
	at   []time.Duration
	mean []float64 // memoised link mean: tx power + environment
	tag  []uint64  // per-packet stream derivation tag
	uni  []float64 // uniforms: collision test, decode test
	nrm  []float64 // normals: Rician I/Q, OU innovation, noise
	rssi []float64
}

// uniPerPkt and nrmPerPkt are the per-packet draw widths of the batch:
// two uniforms (collision, decode) and four standard normals (Rician
// quadratures, OU innovation, measurement noise).
const (
	uniPerPkt = 2
	nrmPerPkt = 4
)

// reset clears the gather columns for the next link, keeping capacity.
func (b *linkBatch) reset() {
	b.at = b.at[:0]
	b.mean = b.mean[:0]
	b.tag = b.tag[:0]
}

// sized returns buf resized to n entries, reallocating only on growth.
func sized(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// linkState is the per-(listener, advertiser) hot-path state.
type linkState struct {
	// fade is the link's Ornstein–Uhlenbeck slow-fading state.
	fadeV    float64
	fadeLast time.Duration
	fadeInit bool
	// lastRx memoises the channel environment for the most recent
	// receiver position: a dwelling or static listener pays the channel
	// model once per position instead of once per packet.
	lastRx geom.Point
	env    float64
	envOK  bool
	// capNext is the next packet index of this advertiser that passes
	// the listener's capture test, advanced by geometric gap draws
	// (capGap tags them); see the capture notes on deliverWindow.
	capNext uint64
	capGap  uint64
	capInit bool
}

// NewWorld creates a world over the given channel. seed drives all link
// randomness (jitter, fading draws, capture, noise).
func NewWorld(engine *sim.Engine, channel *radio.Channel, seed uint64) *World {
	w := &World{
		engine:      engine,
		channel:     channel,
		src:         rng.New(seed),
		meanCache:   radio.NewMeanCache(),
		slowGen:     channel.SlowFade(),
		cullEnabled: true,
	}
	engine.AddFlow(w.deliverWindow)
	return w
}

// SetCulling enables or disables hopeless-link culling. Culling is on by
// default; the regression tests turn it off to compare the culled run
// against the exhaustive one.
func (w *World) SetCulling(enabled bool) { w.cullEnabled = enabled }

// Culled returns the number of packets skipped by hopeless-link culling.
func (w *World) Culled() uint64 { return w.culled }

// Engine returns the underlying event engine.
func (w *World) Engine() *sim.Engine { return w.engine }

// AddAdvertiser registers a beacon transmitter; its advertising train
// starts at a small random phase.
func (w *World) AddAdvertiser(a *Advertiser) error {
	if err := a.Validate(); err != nil {
		return err
	}
	w.advertisers = append(w.advertisers, a)
	w.recomputeCollisions()
	advSrc := w.src.Split(uint64(len(w.advertisers)))
	// Random initial phase avoids artificial synchronisation between
	// transmitters.
	phase := time.Duration(advSrc.Uniform(0, float64(a.Interval)))
	w.advStates = append(w.advStates, advState{
		nextAt: w.engine.Now() + phase,
		src:    advSrc,
	})
	for i := range w.links {
		w.links[i] = append(w.links[i], linkState{})
	}
	return nil
}

// AddListener registers a receiver.
func (w *World) AddListener(l *Listener) error {
	if err := l.Validate(); err != nil {
		return err
	}
	l.src = w.src.Split(0x10000 + uint64(len(w.listeners)))
	l.idx = len(w.listeners)
	l.capProb = l.captureProb()
	if l.capProb < 1 {
		l.lnMissProb = math.Log(1 - l.capProb)
		l.gapCDF = make([]float64, gapTableLen)
		tail := 1.0
		for k := range l.gapCDF {
			tail *= 1 - l.capProb
			l.gapCDF[k] = 1 - tail
		}
		l.gapGuide = make([]uint8, gapGuideLen)
		idx := 0
		for j := range l.gapGuide {
			for idx < gapTableLen && l.gapCDF[idx] <= float64(j)/gapGuideLen {
				idx++
			}
			l.gapGuide[j] = uint8(idx)
		}
	}
	l.cullBelowDBm = w.channel.Params().SensitivityDBm - w.channel.CullMarginDB(l.NoiseSigmaDB)
	if s, ok := l.Mobility.(mobility.Static); ok {
		p := s.P
		l.staticPos = &p
	}
	w.listeners = append(w.listeners, l)
	w.links = append(w.links, make([]linkState, len(w.advertisers)))
	return nil
}

// RemoveListener detaches a previously added receiver: the handset has
// left the deployment and its packets need not be sampled any more.
// Removal leaves other listeners' randomness streams untouched (per-
// packet draws are derived from each listener's own stream and index).
// Removing a listener that is not attached is a no-op.
func (w *World) RemoveListener(l *Listener) {
	if l == nil || l.idx >= len(w.listeners) || w.listeners[l.idx] != l {
		return
	}
	w.listeners[l.idx] = nil
}

func (w *World) recomputeCollisions() {
	// One aggregate pass: each advertiser's exposure is the total
	// airtime-fraction sum minus its own contribution.
	w.collisionProb = make([]float64, len(w.advertisers))
	var total float64
	for _, a := range w.advertisers {
		total += 2 * AdvAirtime.Seconds() / a.Interval.Seconds() / 3
	}
	for i, a := range w.advertisers {
		p := total - 2*AdvAirtime.Seconds()/a.Interval.Seconds()/3
		if p > 1 {
			p = 1
		}
		w.collisionProb[i] = p
	}
}

// deliverWindow is the world's sim.Flow: it walks every advertiser's
// train across the window (from, to] and samples receptions for each
// listener. Windows partition simulated time exactly, and scan-cycle
// boundaries are themselves engine events, so every reception is
// delivered before any event with an equal or later timestamp runs — the
// same observable order as one heap event per advertisement.
// Sampling runs in two passes per advertiser: the packet times of the
// window are enumerated once into a reused buffer (the jitter stream
// depends only on the advertiser), then each listener processes the
// window through the struct-of-arrays link batch (gatherLink /
// sampleLink). The capture test is geometric skip-ahead sampling: the
// packets a duty-cycled radio captures form an iid Bernoulli(p) process
// over the advertiser's packet indices, so instead of hashing a
// decision per packet each link stores the index of its next capture
// and draws the geometric gap to the following one only when it fires —
// a duty-cycled listener costs O(captured packets), not O(packets on
// air). Gap draws are tagged by their ordinal, so the sequence of
// capture indices is a pure function of the seed: independent of window
// partitioning and of other listeners, exactly like the per-packet
// streams. Within a window receptions are enumerated per listener
// (cross-listener order is unobservable: handlers only accumulate
// per-listener state and react at engine events).
func (w *World) deliverWindow(from, to time.Duration) {
	listeners := w.listeners
	for idx := range w.advertisers {
		a := w.advertisers[idx]
		st := &w.advStates[idx]
		if st.nextAt > to {
			continue
		}
		buf := w.pktBuf[:0]
		firstPkt := st.pkt
		for st.nextAt <= to {
			buf = append(buf, st.nextAt)
			st.nextAt += a.Interval + time.Duration(st.src.Uniform(0, float64(MaxAdvDelay)))
			st.pkt++
		}
		w.pktBuf = buf
		for _, l := range listeners {
			if l == nil {
				continue
			}
			ls := &w.links[l.idx][idx]
			w.gatherLink(buf, firstPkt, idx, a, l, ls)
			if len(w.batch.at) > 0 {
				w.sampleLink(idx, a, l, ls)
			}
		}
	}
}

// gatherLink fills the batch's gather columns with the link's captured,
// non-hopeless packets of the window: reception time, derivation tag
// and the memoised deterministic link mean. No stream state is consumed
// here — capture gaps come from pure ordinal hashes and the mean is
// deterministic — so culling a packet cannot shift any other packet's
// randomness.
func (w *World) gatherLink(buf []time.Duration, firstPkt uint64, advIdx int, a *Advertiser, l *Listener, ls *linkState) {
	w.batch.reset()
	if l.capProb >= 1 {
		for i, at := range buf {
			w.gatherPkt(at, advIdx, a, l, ls, firstPkt+uint64(i))
		}
		return
	}
	if !ls.capInit {
		ls.capInit = true
		// First capture: the success index offset from here is
		// geometric-minus-one.
		ls.capNext = firstPkt + w.captureGap(l, advIdx, ls) - 1
	}
	n := uint64(len(buf))
	for ls.capNext-firstPkt < n {
		w.gatherPkt(buf[ls.capNext-firstPkt], advIdx, a, l, ls, ls.capNext)
		ls.capNext += w.captureGap(l, advIdx, ls)
	}
}

// gatherPkt appends one captured packet to the batch unless the link's
// memoised mean sits below the listener's cull threshold — then the
// packet is hopeless (even the upper tail of the combined fading cannot
// lift it to a plausible decode) and the whole sampling chain is
// skipped. For links that never cull, batch contents are independent of
// the cull setting, so receptions are bit-identical to the exhaustive
// path.
func (w *World) gatherPkt(at time.Duration, advIdx int, a *Advertiser, l *Listener, ls *linkState, pkt uint64) {
	var rxPos geom.Point
	if l.staticPos != nil {
		rxPos = *l.staticPos
	} else {
		rxPos = l.Mobility.Position(at)
	}
	if !ls.envOK || rxPos != ls.lastRx {
		ls.env = w.channel.EnvironmentDB(w.meanCache, a.LinkID, a.Pos, rxPos)
		ls.lastRx = rxPos
		ls.envOK = true
	}
	mean := a.PowerAt1mDBm + ls.env
	if w.cullEnabled && mean < l.cullBelowDBm {
		w.culled++
		return
	}
	b := &w.batch
	b.at = append(b.at, at)
	b.mean = append(b.mean, mean)
	b.tag = append(b.tag, pktTag(advIdx, pkt))
}

// sampleLink runs the gathered packets of one link through the fading
// chain in stages over the batch columns:
//
//  1. draw fill — derive each packet's stream from its tag and bulk-fill
//     its uniforms and ziggurat normals,
//  2. fading chain — Rician fast fade from the packet quadratures, the
//     OU slow-fade recurrence stepped packet to packet, device offset
//     and measurement noise,
//  3. decode — collision test, then the lazily evaluated logistic
//     decision, invoking the handler in packet order.
//
// All randomness is a pure function of the seed and each packet's
// (listener, advertiser, packet index) identity, so outcomes are
// independent of window partitioning. The OU state advances at every
// captured packet — including collided ones — which keeps stage 2 a
// straight-line loop; its stationary init uses the first packet's
// innovation slot, the same N(0, σ²) law as a dedicated draw.
func (w *World) sampleLink(advIdx int, a *Advertiser, l *Listener, ls *linkState) {
	b := &w.batch
	n := len(b.at)
	b.uni = sized(b.uni, uniPerPkt*n)
	b.nrm = sized(b.nrm, nrmPerPkt*n)
	b.rssi = sized(b.rssi, n)

	var ps rng.Source
	for k := 0; k < n; k++ {
		l.src.Derive(b.tag[k], &ps)
		ps.FillFloat64(b.uni[uniPerPkt*k : uniPerPkt*k+uniPerPkt])
		ps.FillStdNormal(b.nrm[nrmPerPkt*k : nrmPerPkt*k+nrmPerPkt])
	}

	ch := w.channel
	gen := w.slowGen
	bias := l.OffsetDB
	noise := l.NoiseSigmaDB
	for k := 0; k < n; k++ {
		nrm := b.nrm[nrmPerPkt*k : nrmPerPkt*k+nrmPerPkt]
		rssi := b.mean[k] + ch.RicianFadeDB(nrm[0], nrm[1])
		if gen.SigmaDB != 0 {
			if !ls.fadeInit {
				ls.fadeV = gen.SigmaDB * nrm[2]
				ls.fadeInit = true
			} else {
				ls.fadeV = gen.Step(ls.fadeV, (b.at[k] - ls.fadeLast).Seconds(), nrm[2])
			}
			ls.fadeLast = b.at[k]
			rssi += ls.fadeV
		}
		b.rssi[k] = rssi + bias + noise*nrm[3]
	}

	collP := w.collisionProb[advIdx]
	for k := 0; k < n; k++ {
		// Did another transmitter collide on the same channel?
		if b.uni[uniPerPkt*k] < collP {
			continue
		}
		// Sensitivity: can the radio decode at this level?
		if !ch.DecideReceived(b.rssi[k]-bias, b.uni[uniPerPkt*k+1]) {
			continue
		}
		l.Handler(Reception{At: b.at[k], Payload: a.Payload, RSSI: b.rssi[k]})
	}
}

// gapTableLen is the length of the precomputed capture-gap CDF and
// gapGuideLen the resolution of its guide table. At the Android duty
// cycle (p = 0.12) the CDF covers all but ~3·10⁻⁴ of the gap mass;
// lower capture probabilities fall back to inversion more often but
// remain exact.
const (
	gapTableLen = 64
	gapGuideLen = 256
)

// captureGap draws the geometric gap (≥ 1) to the link's next captured
// packet: the guide-table equivalent of inversion ceil(ln(1−U)/ln(1−p)),
// paying an index and a compare or two instead of a logarithm. The
// uniform comes from a pure hash of the gap ordinal, so no stream state
// lives in the link.
func (w *World) captureGap(l *Listener, advIdx int, ls *linkState) uint64 {
	u := l.src.Hash01(capTag(advIdx, ls.capGap))
	ls.capGap++
	for k := int(l.gapGuide[int(u*gapGuideLen)]); k < gapTableLen; k++ {
		if u < l.gapCDF[k] {
			return uint64(k + 1)
		}
	}
	// Deep tail: inversion over the remaining mass.
	gap := math.Ceil(math.Log1p(-u) / l.lnMissProb)
	if gap < gapTableLen+1 {
		// Floating-point disagreement at the table boundary resolves in
		// favour of the table.
		return gapTableLen + 1
	}
	return uint64(gap)
}

// capTag composes the derivation tag of one (advertiser, gap ordinal)
// pair, in a space disjoint from pktTag's.
func capTag(advIdx int, gap uint64) uint64 {
	return 1<<63 | uint64(advIdx+1)<<40 + gap
}

// pktTag composes the derivation tag of one (advertiser, packet) pair.
// Packet indices stay far below 2⁴⁰ for any plausible simulation length,
// so tags never collide across advertisers.
func pktTag(advIdx int, pkt uint64) uint64 {
	return uint64(advIdx+1)<<40 + pkt
}

// Run advances the simulation until the given duration of simulated time
// has elapsed.
func (w *World) Run(duration time.Duration) {
	w.engine.RunUntil(w.engine.Now() + duration)
}
