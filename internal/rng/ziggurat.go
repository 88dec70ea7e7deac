package rng

import "math"

// Ziggurat standard-normal sampler (Marsaglia & Tsang layout, 256
// layers, 64-bit draws). One Uint64 supplies both the layer index (low
// 8 bits) and a signed 56-bit mantissa for the candidate value, so the
// ~99% fast path is one generator step, one table multiply and one
// compare — no transcendentals. The slow path pays the wedge test
// (one Exp) or, for the base layer, Marsaglia's exact tail method.
//
// The tables are built once at init from the canonical 256-layer
// constants: zigR is the base-strip boundary x₁ and zigV the common
// strip area, the unique pair for which 256 equal-area strips plus the
// tail tile the half-Gaussian exactly. Construction is the standard
// downward recurrence x_{i-1} = f⁻¹(v/x_i + f(x_i)) with f(x) =
// exp(−x²/2); the goodness-of-fit tests in dist_test.go validate the
// resulting sampler against the analytic normal CDF.
const (
	zigLayers = 256
	zigR      = 3.6541528853610087963519472518
	zigV      = 4.92867323399e-3
	zigInvR   = 1 / zigR
	// zigM scales table entries to the signed 56-bit mantissa slot
	// (int64(u) >> 8 spans ±2⁵⁵).
	zigM = float64(1 << 55)
)

var (
	// zigK[i] is the fast-accept threshold of layer i: |j| < zigK[i]
	// guarantees x = j·zigW[i] lies inside the part of the layer
	// rectangle that is entirely under the density.
	zigK [zigLayers]uint64
	// zigW[i] maps the mantissa to the layer's x range: x_i / zigM.
	zigW [zigLayers]float64
	// zigF[i] is the density exp(−x_i²/2) at the layer boundary.
	zigF [zigLayers]float64
)

func init() {
	dn, tn, vn := zigR, zigR, zigV
	q := vn / math.Exp(-0.5*dn*dn)
	zigK[0] = uint64((dn / q) * zigM)
	zigK[1] = 0
	zigW[0] = q / zigM
	zigW[zigLayers-1] = dn / zigM
	zigF[0] = 1
	zigF[zigLayers-1] = math.Exp(-0.5 * dn * dn)
	for i := zigLayers - 2; i >= 1; i-- {
		dn = math.Sqrt(-2 * math.Log(vn/dn+math.Exp(-0.5*dn*dn)))
		zigK[i+1] = uint64((dn / tn) * zigM)
		tn = dn
		zigF[i] = math.Exp(-0.5 * dn * dn)
		zigW[i] = dn / zigM
	}
}

// StdNormal returns a draw from the standard normal distribution via
// the ziggurat tables. The number of generator steps consumed varies
// with the draw (rejections and the tail consume extra), so callers
// that need draw-for-draw stream stability across code versions derive
// a fresh stream per item (see Derive), as the link layer does.
func (r *Source) StdNormal() float64 {
	for {
		u := r.Uint64()
		i := u & (zigLayers - 1)
		j := int64(u) >> 8
		x := float64(j) * zigW[i]
		abs := uint64(j)
		if j < 0 {
			abs = uint64(-j)
		}
		if abs < zigK[i] {
			return x
		}
		if v, ok := r.stdNormalSlow(j, i, x); ok {
			return v
		}
	}
}

// stdNormalSlow resolves a fast-path rejection: the exact tail beyond
// zigR for the base layer, the wedge accept/reject test otherwise.
// ok = false means "redraw from scratch".
func (r *Source) stdNormalSlow(j int64, i uint64, x float64) (float64, bool) {
	if i == 0 {
		// Marsaglia's tail method: exact samples from the normal tail
		// conditioned on |x| > zigR.
		for {
			x = -math.Log(r.nonZeroFloat64()) * zigInvR
			y := -math.Log(r.nonZeroFloat64())
			if y+y >= x*x {
				break
			}
		}
		if j > 0 {
			return zigR + x, true
		}
		return -(zigR + x), true
	}
	if zigF[i]+r.Float64()*(zigF[i-1]-zigF[i]) < math.Exp(-0.5*x*x) {
		return x, true
	}
	return 0, false
}

// nonZeroFloat64 returns a uniform in (0, 1), for logarithms.
func (r *Source) nonZeroFloat64() float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return u
}

// FillStdNormal fills dst with independent standard-normal draws. The
// ziggurat fast path is inlined into the loop, so bulk consumers (the
// link layer's per-window fading buffers) pay one function call per
// slice instead of one per draw.
func (r *Source) FillStdNormal(dst []float64) {
	for k := range dst {
		u := r.Uint64()
		i := u & (zigLayers - 1)
		j := int64(u) >> 8
		x := float64(j) * zigW[i]
		abs := uint64(j)
		if j < 0 {
			abs = uint64(-j)
		}
		if abs < zigK[i] {
			dst[k] = x
			continue
		}
		if v, ok := r.stdNormalSlow(j, i, x); ok {
			dst[k] = v
			continue
		}
		dst[k] = r.StdNormal()
	}
}

// FillFloat64 fills dst with independent uniforms in [0, 1).
func (r *Source) FillFloat64(dst []float64) {
	for k := range dst {
		dst[k] = float64(r.Uint64()>>11) / (1 << 53)
	}
}
