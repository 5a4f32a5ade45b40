package mnist

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

func TestSyntheticDeterministic(t *testing.T) {
	a := Synthetic(20, 9)
	b := Synthetic(20, 9)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("image %d differs across same-seed generations", i)
		}
	}
	c := Synthetic(20, 10)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds should give different corpora")
	}
}

func TestSyntheticClassBalance(t *testing.T) {
	imgs := Synthetic(100, 3)
	var count [10]int
	for i := range imgs {
		count[imgs[i].Label]++
	}
	for c, n := range count {
		if n != 10 {
			t.Fatalf("class %d has %d samples, want 10 (round-robin)", c, n)
		}
	}
}

func TestSyntheticPixelsInRangeAndInk(t *testing.T) {
	imgs := Synthetic(50, 4)
	for i := range imgs {
		ink := 0
		for _, p := range imgs[i].Pixels {
			if p > 0 {
				ink++
			}
		}
		// A digit should light a plausible fraction of the 784 pixels.
		if ink < 30 || ink > 500 {
			t.Fatalf("image %d (label %d) has %d lit pixels", i, imgs[i].Label, ink)
		}
	}
}

func TestSyntheticSeparability(t *testing.T) {
	// The corpus must be classifiable: nearest-centroid accuracy well
	// above chance is the substitution's fitness criterion (DESIGN.md).
	train := Synthetic(500, 1)
	test := Synthetic(200, 2)
	var cent [10][Side * Side]float64
	var cnt [10]float64
	for i := range train {
		c := train[i].Label
		cnt[c]++
		for j, p := range train[i].Pixels {
			cent[c][j] += float64(p)
		}
	}
	for c := range cent {
		for j := range cent[c] {
			cent[c][j] /= cnt[c]
		}
	}
	correct := 0
	for i := range test {
		best, bestD := -1, 1e300
		for c := 0; c < 10; c++ {
			d := 0.0
			for j, p := range test[i].Pixels {
				diff := float64(p) - cent[c][j]
				d += diff * diff
			}
			if d < bestD {
				bestD, best = d, c
			}
		}
		if best == int(test[i].Label) {
			correct++
		}
	}
	acc := float64(correct) / float64(len(test))
	if acc < 0.75 {
		t.Fatalf("nearest-centroid accuracy %.3f, want ≥0.75 (corpus too hard or broken)", acc)
	}
}

func TestIDXRoundTrip(t *testing.T) {
	dir := t.TempDir()
	imgPath := filepath.Join(dir, "imgs")
	lblPath := filepath.Join(dir, "lbls")
	orig := Synthetic(30, 11)
	if err := WriteIDX(orig, imgPath, lblPath); err != nil {
		t.Fatal(err)
	}
	back, err := ReadIDX(imgPath, lblPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(orig) {
		t.Fatalf("round trip count %d != %d", len(back), len(orig))
	}
	for i := range orig {
		if back[i] != orig[i] {
			t.Fatalf("image %d corrupted in round trip", i)
		}
	}
}

func TestIDXRejectsBadMagic(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad")
	if err := os.WriteFile(bad, []byte{0, 0, 8, 1, 0, 0, 0, 0}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readIDXImages(bad); err == nil {
		t.Fatal("expected magic error for label file read as images")
	}
}

func TestLoadFallsBackToSynthetic(t *testing.T) {
	imgs, err := Load(t.TempDir(), 40, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(imgs) != 40 {
		t.Fatalf("got %d images", len(imgs))
	}
}

func TestLoadReadsRealIDXWhenPresent(t *testing.T) {
	dir := t.TempDir()
	orig := Synthetic(25, 13)
	if err := WriteIDX(orig,
		filepath.Join(dir, "train-images-idx3-ubyte"),
		filepath.Join(dir, "train-labels-idx1-ubyte")); err != nil {
		t.Fatal(err)
	}
	imgs, err := Load(dir, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(imgs) != 10 {
		t.Fatalf("got %d images, want truncation to 10", len(imgs))
	}
	if imgs[0] != orig[0] {
		t.Fatal("loaded images differ from written ones")
	}
}

// Property: every generated image keeps its label in 0..9 and pixels
// are deterministic functions of (label index, seed).
func TestSyntheticLabelProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%40) + 1
		imgs := Synthetic(n, seed)
		for i := range imgs {
			if imgs[i].Label != uint8(i%10) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

// idxPair writes images with WriteIDX and returns the two files' bytes.
func idxPair(t testing.TB, images []Image) (imgs, lbls []byte) {
	dir := t.TempDir()
	imgPath, lblPath := filepath.Join(dir, "imgs"), filepath.Join(dir, "lbls")
	if err := WriteIDX(images, imgPath, lblPath); err != nil {
		t.Fatal(err)
	}
	imgs, err := os.ReadFile(imgPath)
	if err != nil {
		t.Fatal(err)
	}
	lbls, err = os.ReadFile(lblPath)
	if err != nil {
		t.Fatal(err)
	}
	return imgs, lbls
}

// readIDXBytes decodes an image and a label file held in memory, as
// ReadIDX does from disk.
func readIDXBytes(imgs, lbls []byte) ([]Image, error) {
	got, err := decodeIDXImages(bytes.NewReader(imgs), "images")
	if err != nil {
		return nil, err
	}
	labels, err := decodeIDXLabels(bytes.NewReader(lbls), "labels")
	if err != nil {
		return nil, err
	}
	if len(got) != len(labels) {
		return nil, fmt.Errorf("%d images but %d labels", len(got), len(labels))
	}
	for i := range got {
		got[i].Label = labels[i]
	}
	return got, nil
}

// hugeImageHeader is a 16-byte image file whose header claims 0xFFFFFF
// images and holds none.
var hugeImageHeader = []byte{0, 0, 8, 3, 0, 0xff, 0xff, 0xff, 0, 0, 0, 28, 0, 0, 0, 28}

// TestIDXRejectsHostileFiles: a header that claims more records than
// its file holds is an error, not an allocation of the claimed size,
// and so is a label outside 0–9, which would index past the ten
// classes downstream.
func TestIDXRejectsHostileFiles(t *testing.T) {
	imgs, lbls := idxPair(t, Synthetic(3, 5))
	if _, err := readIDXBytes(hugeImageHeader, lbls); err == nil {
		t.Fatal("image header claiming 0xFFFFFF images in a 16-byte file was accepted")
	}
	hugeLabels := []byte{0, 0, 8, 1, 0xff, 0xff, 0xff, 0xff}
	if _, err := readIDXBytes(imgs, hugeLabels); err == nil {
		t.Fatal("label header claiming 2^32−1 labels in an 8-byte file was accepted")
	}
	if _, err := readIDXBytes(imgs[:len(imgs)-1], lbls); err == nil {
		t.Fatal("image file one byte short was accepted")
	}
	bad := append([]byte(nil), lbls...)
	bad[len(bad)-1] = 10
	if _, err := readIDXBytes(imgs, bad); err == nil {
		t.Fatal("label 10 was accepted")
	}
}

// FuzzReadIDX: no image and label file pair may crash ReadIDX's
// decoders or make them allocate beyond their input, and what they
// accept has one image per label, every label a digit.
func FuzzReadIDX(f *testing.F) {
	imgs, lbls := idxPair(f, Synthetic(4, 9))
	f.Add(imgs, lbls)
	f.Add(hugeImageHeader, lbls)
	bad := append([]byte(nil), lbls...)
	bad[len(bad)-1] = 10
	f.Add(imgs, bad)
	f.Fuzz(func(t *testing.T, imgs, lbls []byte) {
		got, err := readIDXBytes(imgs, lbls)
		if err != nil {
			return
		}
		if want := (len(imgs) - 16) / (Side * Side); len(got) > want {
			t.Fatalf("%d images from %d bytes", len(got), len(imgs))
		}
		for i := range got {
			if got[i].Label > 9 {
				t.Fatalf("image %d labelled %d", i, got[i].Label)
			}
		}
	})
}
