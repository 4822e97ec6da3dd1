package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"

	"rdlroute/internal/design"
)

// Key returns the content-addressed cache key of a routing request: a
// sha256 over the canonical JSON of the design and over the JSON encoding
// of the validated router.Options, each length-prefixed so the
// concatenation is unambiguous. Two requests share a key exactly when they
// describe the same routing problem under the same configuration; the
// options' encoding leaves out recorders and callbacks by construction.
func Key(d *design.Design, options []byte) (string, error) {
	db, err := d.CanonicalJSON()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(db)))
	h.Write(n[:])
	h.Write(db)
	binary.LittleEndian.PutUint64(n[:], uint64(len(options)))
	h.Write(n[:])
	h.Write(options)
	return hex.EncodeToString(h.Sum(nil)), nil
}
