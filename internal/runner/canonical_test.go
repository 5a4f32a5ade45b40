package runner

import (
	"math"
	"strings"
	"testing"
)

type inner struct {
	N int
}

type specWithPtr struct {
	Name string
	In   *inner
	Rate *float64
}

// TestKeyOfPointerFieldsKeyOnPointee: the documented contract — two
// structurally equal specs must key identically no matter where their
// pointer fields point. The old %#v implementation keyed nested
// pointers on their hex address, so equality held only within one
// allocation.
func TestKeyOfPointerFieldsKeyOnPointee(t *testing.T) {
	r1, r2 := 1.5, 1.5
	a := specWithPtr{Name: "x", In: &inner{N: 7}, Rate: &r1}
	b := specWithPtr{Name: "x", In: &inner{N: 7}, Rate: &r2}
	if KeyOf(a) != KeyOf(b) {
		t.Fatal("equal specs with distinct allocations must key equal")
	}

	c := specWithPtr{Name: "x", In: &inner{N: 8}, Rate: &r1}
	if KeyOf(a) == KeyOf(c) {
		t.Fatal("different pointee values must key differently")
	}

	d := specWithPtr{Name: "x", In: nil, Rate: &r1}
	if KeyOf(a) == KeyOf(d) {
		t.Fatal("nil pointer must key differently from a set one")
	}
	if KeyOf(d) != KeyOf(specWithPtr{Name: "x", Rate: &r2}) {
		t.Fatal("nil pointers must key equal")
	}
}

// TestKeyOfMapOrderIndependent: map iteration order must not leak into
// the key.
func TestKeyOfMapOrderIndependent(t *testing.T) {
	m1 := map[string]int{}
	m2 := map[string]int{}
	for i, k := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
		m1[k] = i
	}
	for i := 7; i >= 0; i-- {
		m2[[]string{"a", "b", "c", "d", "e", "f", "g", "h"}[i]] = i
	}
	want := KeyOf(m1)
	for trial := 0; trial < 20; trial++ {
		if KeyOf(m2) != want {
			t.Fatal("map keys must hash order-independently")
		}
	}
}

// TestKeyOfDistinguishesTypesAndValues: type information is part of the
// key, and float values hash exactly.
func TestKeyOfDistinguishesTypesAndValues(t *testing.T) {
	if KeyOf(int32(1)) == KeyOf(int64(1)) {
		t.Fatal("same number, different type must key differently")
	}
	if KeyOf(1.0) == KeyOf(1.0+1e-15) {
		t.Fatal("nearby floats must not be conflated")
	}
	if KeyOf([]int(nil)) == KeyOf([]int{}) {
		t.Fatal("nil and empty slices are distinct specifications")
	}
}

// TestKeyOfPanicsOnRuntimeObjects: channels and funcs identify runtime
// objects, not data; keying them silently would reintroduce the
// address-determinism bug, so KeyOf must refuse loudly.
func TestKeyOfPanicsOnRuntimeObjects(t *testing.T) {
	for _, part := range []any{make(chan int), func() {}, struct{ F func() }{func() {}}} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("KeyOf(%T) must panic", part)
				}
				if !strings.Contains(r.(string), "cannot canonicalize") {
					t.Fatalf("unexpected panic %v", r)
				}
			}()
			KeyOf(part)
		}()
	}
}

// TestKeyOfStableAcrossCalls is the determinism floor: the same parts
// must key identically on every call (this is what the cache and the
// singleflight rely on).
func TestKeyOfStableAcrossCalls(t *testing.T) {
	parts := []any{"experiment-v1", specWithPtr{Name: "n", In: &inner{N: 3}}, int64(42), 3.25}
	want := KeyOf(parts...)
	for i := 0; i < 10; i++ {
		if KeyOf(parts...) != want {
			t.Fatal("KeyOf is not stable across calls")
		}
	}
}

// keySpec nests the kinds of field cache keys are built of: strings,
// numbers, pointers, slices, maps, arrays and interfaces.
type keySpec struct {
	Name string
	F    float64
	P    *float64
	S    []int64
	M    map[string]float32
	A    [2]float32
	I    any
}

// newKeySpec builds a freshly allocated keySpec from fuzz input. The
// bits of shape choose a nil or set pointer (bit 0), a nil, empty or
// full slice (bits 1–2) and map (bits 3–4), and a nil, string, float
// or pointer interface (bits 5–6).
func newKeySpec(name string, f float64, n int64, shape uint8) keySpec {
	s := keySpec{Name: name, F: f, A: [2]float32{float32(f), float32(n)}}
	if shape&1 != 0 {
		p := f
		s.P = &p
	}
	switch shape >> 1 & 3 {
	case 1:
		s.S = []int64{}
	case 2, 3:
		s.S = []int64{n, -n}
	}
	switch shape >> 3 & 3 {
	case 1:
		s.M = map[string]float32{}
	case 2, 3:
		s.M = map[string]float32{name: float32(f), name + "'": float32(n)}
	}
	switch shape >> 5 & 3 {
	case 1:
		s.I = name
	case 2:
		s.I = f
	case 3:
		s.I = &keySpec{Name: name, S: []int64{n}}
	}
	return s
}

// flip64 and flip32 change a float's lowest bit: a different value,
// unless both sides are NaN.
func flip64(x float64) float64 { return math.Float64frombits(math.Float64bits(x) ^ 1) }
func flip32(x float32) float32 { return math.Float32frombits(math.Float32bits(x) ^ 1) }

// bothNaN reports whether a leaf changed only in a NaN's payload,
// which KeyOf renders as NaN whatever its bits.
func bothNaN(a, b float64) bool { return math.IsNaN(a) && math.IsNaN(b) }

// FuzzKeyOf: two separately allocated copies of one nested value get
// the same key, and changing any one leaf gives a different key — but
// for a NaN's payload, which keys the same. KeyOf never panics on a
// value built of these kinds.
func FuzzKeyOf(f *testing.F) {
	f.Add("spec", math.Copysign(0, -1), int64(0), uint8(0b1010101)) // −0 everywhere
	f.Add("spec", math.NaN(), int64(3), uint8(0b1010101))           // NaN everywhere
	f.Add("", 1.5, int64(-1), uint8(0b1110100))                     // nil pointer
	f.Add("s", 0.25, int64(7), uint8(0b0000001))                    // nil slice and map
	f.Add("s", 0.25, int64(7), uint8(0b0001011))                    // empty slice and map
	f.Fuzz(func(t *testing.T, name string, x float64, n int64, shape uint8) {
		want := KeyOf(newKeySpec(name, x, n, shape))
		if got := KeyOf(newKeySpec(name, x, n, shape)); got != want {
			t.Fatalf("two copies of %+v keyed %s and %s", newKeySpec(name, x, n, shape), want, got)
		}
		// Each change returns whether the key must stay the same.
		for i, change := range []func(s *keySpec) bool{
			func(s *keySpec) bool { s.Name += "x"; return false },
			func(s *keySpec) bool { old := s.F; s.F = flip64(old); return bothNaN(old, s.F) },
			func(s *keySpec) bool { s.F = -s.F; return math.IsNaN(s.F) }, // 0 and −0 key apart
			func(s *keySpec) bool {
				if s.P == nil {
					s.P = new(float64)
					return false
				}
				old := *s.P
				*s.P = flip64(old)
				return bothNaN(old, *s.P)
			},
			func(s *keySpec) bool {
				switch {
				case s.S == nil:
					s.S = []int64{}
				case len(s.S) == 0:
					s.S = nil
				default:
					s.S[1] ^= 1
				}
				return false
			},
			func(s *keySpec) bool {
				switch {
				case s.M == nil:
					s.M = map[string]float32{}
				case len(s.M) == 0:
					s.M[""] = 0
				default:
					old := s.M[name]
					s.M[name] = flip32(old)
					return bothNaN(float64(old), float64(s.M[name]))
				}
				return false
			},
			func(s *keySpec) bool {
				old := s.A[1]
				s.A[1] = flip32(old)
				return bothNaN(float64(old), float64(s.A[1]))
			},
			func(s *keySpec) bool {
				switch v := s.I.(type) {
				case nil:
					s.I = 0
				case string:
					s.I = v + "x"
				case float64:
					s.I = flip64(v)
					return bothNaN(v, s.I.(float64))
				case *keySpec:
					v.S[0] ^= 1
				}
				return false
			},
		} {
			s := newKeySpec(name, x, n, shape)
			same := change(&s)
			if got := KeyOf(s); (got == want) != same {
				t.Fatalf("change %d of %+v to %+v: key %s, the value's %s; want them the same: %v",
					i, newKeySpec(name, x, n, shape), s, got, want, same)
			}
		}
	})
}
