package mnist

import (
	"crypto/sha256"
	"encoding/hex"
)

// Digest content-addresses an image corpus (pixels and labels, in
// order). Campaign fingerprints (internal/core) build every cell key
// from it, so cells trained on different data never share an address.
func Digest(images []Image) string {
	h := sha256.New()
	for i := range images {
		h.Write(images[i].Pixels[:])
		h.Write([]byte{images[i].Label})
	}
	return hex.EncodeToString(h.Sum(nil))
}
