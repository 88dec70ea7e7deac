// Package radio models 2.4 GHz indoor propagation for the BLE link: a
// log-distance path-loss law with per-wall attenuation, a spatially
// correlated log-normal shadowing field, per-packet Rician/Rayleigh fast
// fading and a logistic packet-error model around the receiver
// sensitivity.
//
// The model reproduces the phenomena the paper observes on real hardware
// (Section V): large sample-to-sample variance of the estimated distance,
// occasional packet loss, and systematic RSSI offsets between devices
// (Section VIII, Figure 11).
package radio

import (
	"fmt"
	"math"

	"occusim/internal/geom"
)

// Params configures the physical channel.
type Params struct {
	// Exponent is the path-loss exponent n: 2.0 in free space, typically
	// 2.5–3.5 indoors.
	Exponent float64
	// WallLossDB is the attenuation charged per wall crossed by the
	// direct path, in dB (≈5 dB for light interior walls).
	WallLossDB float64
	// ShadowSigmaDB is the standard deviation of the log-normal shadowing
	// field in dB (≈2–4 dB indoors).
	ShadowSigmaDB float64
	// ShadowCorrLen is the spatial correlation length of the shadowing
	// field in metres (≈2 m indoors).
	ShadowCorrLen float64
	// RiceK is the Rician K-factor (linear, not dB) of the fast fading:
	// the ratio of line-of-sight to scattered power. 0 degenerates to
	// Rayleigh fading; ≈4–10 is typical with line of sight.
	RiceK float64
	// SlowFadeSigmaDB is the standard deviation of the temporally
	// correlated fading component (people moving, doors, multipath
	// drift). Unlike the per-packet fast fading it does not average out
	// within one scan cycle, which is what makes consecutive Android
	// distance estimates wander as in the paper's Figure 4.
	SlowFadeSigmaDB float64
	// SlowFadeTau is the correlation time of the slow fading in seconds.
	SlowFadeTau float64
	// SensitivityDBm is the RSSI at which packet reception probability is
	// 50% (≈-90 dBm for BLE receivers).
	SensitivityDBm float64
	// PERSlopeDB controls how sharply reception probability transitions
	// around the sensitivity (logistic scale parameter, in dB).
	PERSlopeDB float64
}

// DefaultIndoor returns channel parameters tuned to an indoor office /
// residential environment, matching the variance the paper reports for a
// device 2 m from a transmitter.
func DefaultIndoor() Params {
	return Params{
		Exponent:        2.4,
		WallLossDB:      6.0,
		ShadowSigmaDB:   3.0,
		ShadowCorrLen:   2.0,
		RiceK:           5.0,
		SlowFadeSigmaDB: 3.0,
		SlowFadeTau:     2.0,
		SensitivityDBm:  -92,
		PERSlopeDB:      2.0,
	}
}

// Validate reports the first invalid parameter, or nil.
func (p Params) Validate() error {
	switch {
	case p.Exponent <= 0:
		return fmt.Errorf("radio: path-loss exponent must be positive, got %v", p.Exponent)
	case p.WallLossDB < 0:
		return fmt.Errorf("radio: wall loss must be non-negative, got %v", p.WallLossDB)
	case p.ShadowSigmaDB < 0:
		return fmt.Errorf("radio: shadow sigma must be non-negative, got %v", p.ShadowSigmaDB)
	case p.ShadowSigmaDB > 0 && p.ShadowCorrLen <= 0:
		return fmt.Errorf("radio: shadow correlation length must be positive, got %v", p.ShadowCorrLen)
	case p.RiceK < 0:
		return fmt.Errorf("radio: Rician K must be non-negative, got %v", p.RiceK)
	case p.SlowFadeSigmaDB < 0:
		return fmt.Errorf("radio: slow-fade sigma must be non-negative, got %v", p.SlowFadeSigmaDB)
	case p.SlowFadeSigmaDB > 0 && p.SlowFadeTau <= 0:
		return fmt.Errorf("radio: slow-fade correlation time must be positive, got %v", p.SlowFadeTau)
	case p.PERSlopeDB <= 0:
		return fmt.Errorf("radio: PER slope must be positive, got %v", p.PERSlopeDB)
	}
	return nil
}

// SlowFade is a per-link Ornstein–Uhlenbeck process in dB: an AR(1)
// random walk that reverts to zero with correlation time tau. Callers
// keep one state value per link and advance it with Step at every
// packet.
type SlowFade struct {
	SigmaDB float64
	Tau     float64 // seconds
}

// Step advances the process by dt seconds using the exact OU
// discretisation: v' = ρ·v + σ·√(1−ρ²)·n with ρ = exp(−dt/τ) and n the
// caller's standard-normal innovation, so hot paths can batch their
// normal draws (see rng.FillStdNormal).
func (f SlowFade) Step(v, dt, n float64) float64 {
	if f.SigmaDB == 0 {
		return 0
	}
	if dt < 0 {
		dt = 0
	}
	rho := math.Exp(-dt / f.Tau)
	return rho*v + f.SigmaDB*math.Sqrt(1-rho*rho)*n
}

// SlowFade returns the channel's slow-fading generator.
func (c *Channel) SlowFade() SlowFade {
	return SlowFade{SigmaDB: c.params.SlowFadeSigmaDB, Tau: c.params.SlowFadeTau}
}

// Channel is the propagation model bound to a floor plan. It is safe for
// concurrent reads after construction as long as callers pass their own
// rng sources.
type Channel struct {
	params Params
	index  *geom.SegmentIndex
	shadow *shadowField
	// riceNu and riceSigma are the unit-mean-power Rician decomposition
	// of the K-factor (ν² + 2σ² = 1), resolved once at construction so
	// the per-packet fading draw pays no square roots.
	riceNu, riceSigma float64
	// sigTab samples the logistic over x ∈ [−7, 7] for DecideReceived's
	// interpolated bound; invSlope hoists the per-packet division.
	sigTab   [sigTabLen + 1]float64
	invSlope float64
}

// sigTabLen is the resolution of the logistic guide table; sigTabEps
// bounds the linear-interpolation error over it (h²/8 · max|σ″| with
// h = 14/sigTabLen, padded well past the true ≈1.5e-4).
const (
	sigTabLen = 128
	sigTabEps = 5e-4
)

// NewChannel builds a channel over the given wall list. seed fixes the
// shadowing field; two channels built with the same seed and walls are
// identical.
func NewChannel(params Params, walls []geom.Segment, seed uint64) (*Channel, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	k := params.RiceK
	c := &Channel{
		params:    params,
		index:     geom.NewSegmentIndex(walls, 2),
		shadow:    newShadowField(params.ShadowSigmaDB, params.ShadowCorrLen, seed),
		riceNu:    math.Sqrt(k / (k + 1)),
		riceSigma: math.Sqrt(1 / (2 * (k + 1))),
		invSlope:  1 / params.PERSlopeDB,
	}
	for i := range c.sigTab {
		x := -7 + 14*float64(i)/sigTabLen
		c.sigTab[i] = 1 / (1 + math.Exp(-x))
	}
	return c, nil
}

// Params returns the channel parameters.
func (c *Channel) Params() Params { return c.params }

// meanEnvironment is the transmit-power-independent part of the mean
// received power: −pathLoss − wallLoss + shadow. It is a pure function
// of the link and the two positions, which is what makes it memoisable.
func (c *Channel) meanEnvironment(linkID uint64, txPos, rxPos geom.Point) float64 {
	d := txPos.Dist(rxPos)
	if d < 0.1 {
		d = 0.1 // clamp inside near field; the log law diverges at 0
	}
	pathLoss := 10 * c.params.Exponent * math.Log10(d)
	wallLoss := float64(c.index.CrossingCount(txPos, rxPos)) * c.params.WallLossDB
	shadow := c.shadow.at(linkID, rxPos)
	return -pathLoss - wallLoss + shadow
}

// MeanCache memoises the deterministic environment term of the mean
// received power per (link, transmitter position, receiver position).
// Dwell-heavy mobility (static probes, operators standing at survey
// points, walkers pausing for tens of seconds) revisits exactly the same
// receiver position for many consecutive packets, so the path-loss
// logarithm, the wall segment-intersection count and the shadow-field
// hashing are paid once per dwell position instead of once per packet.
//
// The memo is a fixed-size direct-mapped table rather than a Go map: a
// lookup is one multiplicative hash, one slot index and one key compare,
// with no per-insert allocation and no growth — a walker generating a
// fresh position per packet just overwrites slots instead of churning a
// map. Hash collisions evict the previous occupant, which only costs a
// recompute; results stay bit-identical because the full key is verified
// on every hit.
//
// A MeanCache belongs to one caller (it is not safe for concurrent use);
// the Channel itself stays safe for concurrent reads.
type MeanCache struct {
	slots []meanCacheSlot
	used  int
	// hits and misses gate growth: a continuously moving receiver never
	// revisits a position, and a table that never hits must not pay
	// doubling reallocations just because insertions keep it full.
	hits, misses uint64
}

type meanCacheKey struct {
	linkID             uint64
	txX, txY, rxX, rxY uint64 // float bit patterns: exact-position keying
}

type meanCacheSlot struct {
	key  meanCacheKey
	env  float64
	used bool
}

// meanCacheMinSlots and meanCacheMaxSlots bound the direct-mapped table
// (powers of two). The table starts small — a single-room scenario must
// not pay a megabyte of zeroed slab per world — and doubles while its
// occupancy exceeds half, up to ~1 MiB. Growth simply drops the old
// table: evicted entries are recomputed on their next miss, which is
// bit-identical, merely once more.
const (
	meanCacheMinSlots = 1 << 8
	meanCacheMaxSlots = 1 << 14
)

// NewMeanCache returns an empty memo.
func NewMeanCache() *MeanCache {
	return &MeanCache{slots: make([]meanCacheSlot, meanCacheMinSlots)}
}

// slotIndex hashes the key into a table of the given size (power of
// two).
func (k *meanCacheKey) slotIndex(slots int) uint64 {
	h := k.linkID
	h = mix(h ^ k.txX*0x9e3779b97f4a7c15)
	h = mix(h ^ k.txY*0xc2b2ae3d27d4eb4f)
	h = mix(h ^ k.rxX*0x9e3779b97f4a7c15)
	h = mix(h ^ k.rxY*0xc2b2ae3d27d4eb4f)
	return h & uint64(slots-1)
}

// EnvironmentDB returns the memoised environment term of the link:
// −pathLoss − wallLoss + shadow. The mean received power is
// txPowerAt1m plus this; results are bit-identical (the cache keys on
// the exact position bits, so no quantisation error is introduced).
func (c *Channel) EnvironmentDB(mc *MeanCache, linkID uint64, txPos, rxPos geom.Point) float64 {
	key := meanCacheKey{
		linkID: linkID,
		txX:    math.Float64bits(txPos.X), txY: math.Float64bits(txPos.Y),
		rxX: math.Float64bits(rxPos.X), rxY: math.Float64bits(rxPos.Y),
	}
	slot := &mc.slots[key.slotIndex(len(mc.slots))]
	if slot.used && slot.key == key {
		mc.hits++
		return slot.env
	}
	mc.misses++
	env := c.meanEnvironment(linkID, txPos, rxPos)
	if !slot.used {
		mc.used++
		// Grow only while the table earns its keep (≥ ~11% hit rate):
		// dwell-heavy workloads double up to the cap, pure walkers stay
		// at the minimum size instead of reallocating slabs they will
		// never read back.
		if mc.used*2 > len(mc.slots) && len(mc.slots) < meanCacheMaxSlots &&
			mc.hits >= mc.misses/8 {
			mc.slots = make([]meanCacheSlot, len(mc.slots)*2)
			mc.used = 0
			slot = &mc.slots[key.slotIndex(len(mc.slots))]
			mc.used++
		}
	}
	slot.key = key
	slot.env = env
	slot.used = true
	return env
}

// RicianFadeDB returns the fast-fading term in dB for the
// standard-normal quadrature innovations n1 and n2, which hot paths draw
// in batches (see rng.FillStdNormal). The envelope is Rician with the
// configured K-factor, normalised to unit mean power, so the dB term has
// (approximately) zero mean. Working on the squared envelope skips the
// envelope root: 20·log10(√e²) = 10·log10(e²).
func (c *Channel) RicianFadeDB(n1, n2 float64) float64 {
	a := c.riceNu + c.riceSigma*n1
	b := c.riceSigma * n2
	e2 := a*a + b*b
	if e2 < 1e-12 {
		e2 = 1e-12 // deep fade floor: -120 dB
	}
	return 10 * math.Log10(e2)
}

// ReceptionProb returns the probability that a packet at the given RSSI
// is successfully decoded, via a logistic curve centred on the receiver
// sensitivity.
func (c *Channel) ReceptionProb(rssi float64) float64 {
	x := (rssi - c.params.SensitivityDBm) / c.params.PERSlopeDB
	return 1 / (1 + math.Exp(-x))
}

// DecideReceived is the decode decision for a packet at the given RSSI,
// with a caller-supplied uniform draw u, for hot paths that fill their
// uniforms in bulk. The decision is exactly "u < ReceptionProb(rssi)",
// but the exponential is almost never paid: far from the sensitivity
// the cheap logistic bounds decide (sigmoid(7) > 0.999, sigmoid(−7) <
// 0.001), and inside the transition the interpolated guide table
// decides unless u lands within its error band of the curve —
// probability 2·sigTabEps per packet.
func (c *Channel) DecideReceived(rssi, u float64) bool {
	x := (rssi - c.params.SensitivityDBm) * c.invSlope
	switch {
	case x >= 7:
		if u >= 0.999 {
			return u < c.ReceptionProb(rssi)
		}
		return true
	case x <= -7:
		if u < 0.001 {
			return u < c.ReceptionProb(rssi)
		}
		return false
	default:
		t := (x + 7) * (sigTabLen / 14.0)
		i := int(t)
		frac := t - float64(i)
		p := c.sigTab[i] + frac*(c.sigTab[i+1]-c.sigTab[i])
		switch {
		case u < p-sigTabEps:
			return true
		case u > p+sigTabEps:
			return false
		default:
			return u < c.ReceptionProb(rssi)
		}
	}
}

// cullEpsilon is the per-packet decode probability below which a link is
// considered hopeless: at most one in 10⁷ culled packets would have
// decoded, orders of magnitude under the packet counts of any workload.
const cullEpsilon = 1e-7

// rayleighSigmaDB bounds the standard deviation of the per-packet fast
// fading in dB. The Rayleigh case (K = 0) is the widest: the dB power of
// a unit-mean exponential has variance (10/ln10)²·π²/6 ≈ (5.57 dB)².
// Rician fading with K > 0 is strictly narrower, so using the Rayleigh
// value for every K keeps the margin conservative.
const rayleighSigmaDB = 5.57

// CullMarginDB returns the margin M (in dB) such that a packet whose
// mean RSSI sits more than M below the receiver sensitivity decodes with
// probability at most cullEpsilon, accounting for the combined tails of
// fast fading, slow fading and per-sample measurement noise at the given
// listener noise sigma. The link layer skips the fading draws entirely
// for such packets (hopeless-link culling).
//
// Derivation: with total fading F ≈ N(0, σ²) the decode probability is
// E[sigmoid((F − M)/s)] ≤ exp(−M/s)·E[exp(F/s)] = exp(−M/s + σ²/(2s²)),
// so M = s·ln(1/ε) + σ²/(2s) guarantees the bound. The Gaussian tail
// model is validated empirically by TestCullMarginStatistical.
func (c *Channel) CullMarginDB(noiseSigmaDB float64) float64 {
	s := c.params.PERSlopeDB
	sigma2 := rayleighSigmaDB*rayleighSigmaDB +
		c.params.SlowFadeSigmaDB*c.params.SlowFadeSigmaDB +
		noiseSigmaDB*noiseSigmaDB
	return s*math.Log(1/cullEpsilon) + sigma2/(2*s)
}

// shadowField is a frozen, spatially correlated Gaussian field: lattice
// Gaussians from a hash of the integer cell coordinates, bilinearly
// interpolated. Each link (transmitter) gets an independent field by
// folding its linkID into the hash, matching the standard per-link
// log-normal shadowing model while keeping the field deterministic in
// space — a static receiver sees a constant shadowing value, as on real
// hardware.
type shadowField struct {
	sigma float64
	corr  float64
	seed  uint64
}

func newShadowField(sigma, corr float64, seed uint64) *shadowField {
	if corr <= 0 {
		corr = 1
	}
	return &shadowField{sigma: sigma, corr: corr, seed: seed}
}

func (f *shadowField) at(linkID uint64, p geom.Point) float64 {
	if f.sigma == 0 {
		return 0
	}
	gx := p.X / f.corr
	gy := p.Y / f.corr
	x0 := math.Floor(gx)
	y0 := math.Floor(gy)
	tx := gx - x0
	ty := gy - y0
	ix, iy := int64(x0), int64(y0)

	v00 := f.lattice(linkID, ix, iy)
	v10 := f.lattice(linkID, ix+1, iy)
	v01 := f.lattice(linkID, ix, iy+1)
	v11 := f.lattice(linkID, ix+1, iy+1)

	top := v01*(1-tx) + v11*tx
	bot := v00*(1-tx) + v10*tx
	raw := bot*(1-ty) + top*ty
	// Bilinear blending of unit-variance lattice values shrinks the
	// variance by the squared weight norm; renormalise so the field has
	// variance sigma² at every point, not only on lattice nodes.
	norm := math.Sqrt(((1-tx)*(1-tx) + tx*tx) * ((1-ty)*(1-ty) + ty*ty))
	return f.sigma * raw / norm
}

// lattice returns a standard normal pseudo-random value fixed to the
// lattice cell, derived by hashing (seed, linkID, ix, iy).
func (f *shadowField) lattice(linkID uint64, ix, iy int64) float64 {
	h := f.seed
	h = mix(h ^ linkID)
	h = mix(h ^ uint64(ix)*0x9e3779b97f4a7c15)
	h = mix(h ^ uint64(iy)*0xc2b2ae3d27d4eb4f)
	u1 := float64(h>>11) / (1 << 53)
	h2 := mix(h)
	u2 := float64(h2>>11) / (1 << 53)
	if u1 < 1e-300 {
		u1 = 1e-300
	}
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
