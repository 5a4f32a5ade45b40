package mnist

import (
	"math"
	"math/rand"
)

// Synthetic generates n deterministic MNIST-like digit images. Each
// digit class is a hand-designed stroke skeleton (polylines and
// ellipses in a normalized box), rasterized at 28×28 with per-sample
// random affine jitter (shift, scale, rotation, shear), stroke-width
// variation, intensity variation, and speckle noise. Classes cycle
// round-robin so any prefix is class-balanced.
func Synthetic(n int, seed int64) []Image {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Image, n)
	for i := range out {
		label := uint8(i % 10)
		out[i] = renderDigit(label, rng)
	}
	return out
}

type point struct{ x, y float64 }

type stroke []point // polyline in normalized [0,1]² coordinates, y down

// ellipsePath approximates an ellipse as a closed polyline.
func ellipsePath(cx, cy, rx, ry float64, segments int) stroke {
	s := make(stroke, segments+1)
	for i := 0; i <= segments; i++ {
		a := 2 * math.Pi * float64(i) / float64(segments)
		s[i] = point{cx + rx*math.Cos(a), cy + ry*math.Sin(a)}
	}
	return s
}

// arcPath approximates an elliptic arc from angle a0 to a1 (radians).
func arcPath(cx, cy, rx, ry, a0, a1 float64, segments int) stroke {
	s := make(stroke, segments+1)
	for i := 0; i <= segments; i++ {
		a := a0 + (a1-a0)*float64(i)/float64(segments)
		s[i] = point{cx + rx*math.Cos(a), cy + ry*math.Sin(a)}
	}
	return s
}

// glyphs returns the stroke skeleton of each digit in the normalized
// box (x∈[0.25,0.75], y∈[0.12,0.88], y growing downward).
func glyphs(label uint8) []stroke {
	switch label {
	case 0:
		return []stroke{ellipsePath(0.5, 0.5, 0.19, 0.33, 24)}
	case 1:
		return []stroke{
			{{0.38, 0.28}, {0.52, 0.13}},
			{{0.52, 0.13}, {0.52, 0.87}},
			{{0.38, 0.87}, {0.66, 0.87}},
		}
	case 2:
		return []stroke{
			arcPath(0.5, 0.32, 0.2, 0.19, math.Pi, 2.25*math.Pi, 12),
			{{0.68, 0.45}, {0.30, 0.87}},
			{{0.30, 0.87}, {0.72, 0.87}},
		}
	case 3:
		return []stroke{
			arcPath(0.48, 0.31, 0.19, 0.18, 1.1*math.Pi, 2.4*math.Pi, 12),
			arcPath(0.48, 0.68, 0.21, 0.20, 1.6*math.Pi, 2.9*math.Pi, 12),
		}
	case 4:
		return []stroke{
			{{0.62, 0.13}, {0.28, 0.60}},
			{{0.28, 0.60}, {0.75, 0.60}},
			{{0.62, 0.34}, {0.62, 0.87}},
		}
	case 5:
		return []stroke{
			{{0.70, 0.13}, {0.32, 0.13}},
			{{0.32, 0.13}, {0.31, 0.45}},
			arcPath(0.49, 0.65, 0.21, 0.22, 1.3*math.Pi, 2.85*math.Pi, 14),
		}
	case 6:
		return []stroke{
			{{0.64, 0.14}, {0.40, 0.42}},
			ellipsePath(0.49, 0.64, 0.18, 0.22, 20),
		}
	case 7:
		return []stroke{
			{{0.28, 0.15}, {0.72, 0.15}},
			{{0.72, 0.15}, {0.44, 0.87}},
		}
	case 8:
		return []stroke{
			ellipsePath(0.5, 0.32, 0.16, 0.17, 20),
			ellipsePath(0.5, 0.68, 0.19, 0.19, 20),
		}
	default: // 9
		return []stroke{
			ellipsePath(0.52, 0.35, 0.17, 0.20, 20),
			{{0.69, 0.37}, {0.58, 0.87}},
		}
	}
}

// affine is a 2D affine transform applied to glyph coordinates.
type affine struct {
	a, b, c float64 // x' = a·x + b·y + c
	d, e, f float64 // y' = d·x + e·y + f
}

func (t affine) apply(p point) point {
	return point{t.a*p.x + t.b*p.y + t.c, t.d*p.x + t.e*p.y + t.f}
}

// jitterTransform samples a random affine transform around the glyph
// center: scale 0.85–1.15, rotation ±0.2 rad, shear ±0.15, shift ±2 px.
func jitterTransform(rng *rand.Rand) affine {
	scale := 0.85 + 0.3*rng.Float64()
	rot := (rng.Float64() - 0.5) * 0.4
	shear := (rng.Float64() - 0.5) * 0.3
	dx := (rng.Float64() - 0.5) * 4 / Side
	dy := (rng.Float64() - 0.5) * 4 / Side
	cosr, sinr := math.Cos(rot), math.Sin(rot)
	// Compose: translate to center, scale+rotate+shear, translate back
	// plus jitter shift.
	const cx, cy = 0.5, 0.5
	a := scale * cosr
	b := scale * (shear*cosr - sinr)
	d := scale * sinr
	e := scale * (shear*sinr + cosr)
	return affine{
		a: a, b: b, c: cx - a*cx - b*cy + dx,
		d: d, e: e, f: cy - d*cx - e*cy + dy,
	}
}

// distToSegment returns the distance from p to segment ab.
func distToSegment(p, a, b point) float64 {
	abx, aby := b.x-a.x, b.y-a.y
	apx, apy := p.x-a.x, p.y-a.y
	den := abx*abx + aby*aby
	t := 0.0
	if den > 0 {
		t = (apx*abx + apy*aby) / den
		if t < 0 {
			t = 0
		} else if t > 1 {
			t = 1
		}
	}
	dx, dy := p.x-(a.x+t*abx), p.y-(a.y+t*aby)
	return math.Sqrt(dx*dx + dy*dy)
}

// renderDigit rasterizes one jittered sample of a digit class.
func renderDigit(label uint8, rng *rand.Rand) Image {
	t := jitterTransform(rng)
	var segs [][2]point
	for _, s := range glyphs(label) {
		prev := t.apply(s[0])
		for _, p := range s[1:] {
			cur := t.apply(p)
			segs = append(segs, [2]point{prev, cur})
			prev = cur
		}
	}
	// Stroke half-width in normalized units (≈1.6–2.6 px full width).
	halfW := (0.8 + 0.5*rng.Float64()) / Side
	softness := 0.6 / Side
	peak := 200 + rng.Float64()*55

	var img Image
	img.Label = label
	for y := 0; y < Side; y++ {
		for x := 0; x < Side; x++ {
			p := point{(float64(x) + 0.5) / Side, (float64(y) + 0.5) / Side}
			d := math.Inf(1)
			for _, s := range segs {
				if v := distToSegment(p, s[0], s[1]); v < d {
					d = v
				}
			}
			// Smooth falloff from the stroke centerline.
			v := (halfW - d) / softness
			var in float64
			switch {
			case v > 4:
				in = 1
			case v < -4:
				in = 0
			default:
				in = 1 / (1 + math.Exp(-2*v))
			}
			val := peak * in
			// Speckle noise on lit pixels and a faint background floor.
			if in > 0.02 {
				val += (rng.Float64() - 0.5) * 30 * in
			}
			if val < 0 {
				val = 0
			} else if val > 255 {
				val = 255
			}
			img.Pixels[y*Side+x] = uint8(val)
		}
	}
	return img
}
