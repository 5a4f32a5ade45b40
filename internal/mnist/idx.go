// Package mnist provides the digit-classification corpus used by the
// network-level attack experiments: a reader/writer for the standard
// IDX (ubyte) MNIST file format when the real dataset is available, and
// a deterministic synthetic 28×28 digit generator used by default,
// since the dataset cannot be bundled in an offline build.
//
// The attack experiments measure *relative* accuracy degradation versus
// an attack-free baseline on the same data, so any classifiable
// 10-class digit task of the same dimensionality exercises identical
// code paths; DESIGN.md records the substitution.
package mnist

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
)

// Image is a 28×28 grayscale digit with its class label.
type Image struct {
	Pixels [Side * Side]uint8
	Label  uint8
}

// Side is the image edge length in pixels.
const Side = 28

// IDX magic numbers for the MNIST distribution files.
const (
	magicImages = 0x00000803
	magicLabels = 0x00000801
)

// ReadIDX loads an MNIST image file and its label file in the standard
// IDX format (as distributed at yann.lecun.com, already gunzipped).
func ReadIDX(imagePath, labelPath string) ([]Image, error) {
	imgs, err := readIDXImages(imagePath)
	if err != nil {
		return nil, err
	}
	labels, err := readIDXLabels(labelPath)
	if err != nil {
		return nil, err
	}
	if len(imgs) != len(labels) {
		return nil, fmt.Errorf("mnist: %d images but %d labels", len(imgs), len(labels))
	}
	for i := range imgs {
		imgs[i].Label = labels[i]
	}
	return imgs, nil
}

func readIDXImages(path string) ([]Image, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return decodeIDXImages(bufio.NewReader(f), path)
}

// decodeIDXImages decodes an IDX image file read from r; path names it
// in errors.
func decodeIDXImages(r io.Reader, path string) ([]Image, error) {
	var hdr [4]uint32
	for i := range hdr {
		if err := binary.Read(r, binary.BigEndian, &hdr[i]); err != nil {
			return nil, fmt.Errorf("mnist: reading %s header: %w", path, err)
		}
	}
	if hdr[0] != magicImages {
		return nil, fmt.Errorf("mnist: %s has magic %#x, want %#x", path, hdr[0], magicImages)
	}
	if hdr[2] != Side || hdr[3] != Side {
		return nil, fmt.Errorf("mnist: %s is %dx%d, want %dx%d", path, hdr[2], hdr[3], Side, Side)
	}
	pixels, err := readPayload(r, path, int64(hdr[1])*Side*Side)
	if err != nil {
		return nil, err
	}
	imgs := make([]Image, hdr[1])
	for i := range imgs {
		copy(imgs[i].Pixels[:], pixels[i*Side*Side:])
	}
	return imgs, nil
}

func readIDXLabels(path string) ([]uint8, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return decodeIDXLabels(bufio.NewReader(f), path)
}

// decodeIDXLabels decodes an IDX label file read from r; path names it
// in errors.
func decodeIDXLabels(r io.Reader, path string) ([]uint8, error) {
	var magic, count uint32
	if err := binary.Read(r, binary.BigEndian, &magic); err != nil {
		return nil, err
	}
	if magic != magicLabels {
		return nil, fmt.Errorf("mnist: %s has magic %#x, want %#x", path, magic, magicLabels)
	}
	if err := binary.Read(r, binary.BigEndian, &count); err != nil {
		return nil, err
	}
	labels, err := readPayload(r, path, int64(count))
	if err != nil {
		return nil, err
	}
	for i, l := range labels {
		if l > 9 {
			return nil, fmt.Errorf("mnist: %s: label %d is %d, want 0–9", path, i, l)
		}
	}
	return labels, nil
}

// readPayload reads the n bytes of records a header claims. The buffer
// grows as bytes arrive instead of being sized from the claim, so a
// header that claims more than its file holds costs an error, not an
// allocation of the claimed size.
func readPayload(r io.Reader, path string, n int64) ([]byte, error) {
	b, err := io.ReadAll(io.LimitReader(r, n))
	if err != nil {
		return nil, fmt.Errorf("mnist: reading %s: %w", path, err)
	}
	if int64(len(b)) < n {
		return nil, fmt.Errorf("mnist: %s holds %d bytes of records, its header claims %d", path, len(b), n)
	}
	return b, nil
}

// WriteIDX saves images in the IDX pair format, the inverse of ReadIDX.
// Useful for exporting the synthetic corpus for inspection by standard
// MNIST tooling.
func WriteIDX(images []Image, imagePath, labelPath string) error {
	imgF, err := os.Create(imagePath)
	if err != nil {
		return err
	}
	defer imgF.Close()
	w := bufio.NewWriter(imgF)
	for _, v := range []uint32{magicImages, uint32(len(images)), Side, Side} {
		if err := binary.Write(w, binary.BigEndian, v); err != nil {
			return err
		}
	}
	for i := range images {
		if _, err := w.Write(images[i].Pixels[:]); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}

	lblF, err := os.Create(labelPath)
	if err != nil {
		return err
	}
	defer lblF.Close()
	lw := bufio.NewWriter(lblF)
	for _, v := range []uint32{magicLabels, uint32(len(images))} {
		if err := binary.Write(lw, binary.BigEndian, v); err != nil {
			return err
		}
	}
	for i := range images {
		if err := lw.WriteByte(images[i].Label); err != nil {
			return err
		}
	}
	return lw.Flush()
}

// Load returns n training digits: real MNIST from dir when it contains
// the standard files (train-images-idx3-ubyte / train-labels-idx1-ubyte),
// otherwise the deterministic synthetic corpus with the given seed.
func Load(dir string, n int, seed int64) ([]Image, error) {
	if dir != "" {
		imgPath := dir + "/train-images-idx3-ubyte"
		lblPath := dir + "/train-labels-idx1-ubyte"
		if _, err := os.Stat(imgPath); err == nil {
			imgs, err := ReadIDX(imgPath, lblPath)
			if err != nil {
				return nil, err
			}
			if n > 0 && n < len(imgs) {
				imgs = imgs[:n]
			}
			return imgs, nil
		}
	}
	return Synthetic(n, seed), nil
}
