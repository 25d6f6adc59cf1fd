// Content hashing: a canonical digest of a sparse matrix's content,
// the key under which the serving tier caches prepared plans. Two
// requests for the same matrix — whether uploaded twice, or
// re-generated from the same generator parameters — must map to the
// same cached plan, so the hash covers exactly the mathematical content
// (dimensions, structure, values) and nothing incidental (upload
// formatting, duplicate-entry order — both are erased by the CSR
// canonicalization in COO.ToCSR / ParseMatrixMarket). The cluster
// router places a job on a shard without building its matrix: a
// generated problem by its spec digest, an upload by a digest of its
// text (HashUploadText) — so a re-encoded upload can land on another
// shard and miss that shard's cache, and can never get another
// matrix's plan.
package sparse

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"strings"
)

// ContentHash returns the canonical content digest of a CSR matrix:
// SHA-256 over the dimensions, row pointers, sorted column indices and
// the IEEE-754 bits of the values. CSR construction sorts each row and
// accumulates duplicates, so any two representations of the same
// matrix digest identically. The result is 16 hex bytes (64 bits) —
// plenty for cache keys and ring placement.
func ContentHash(m *CSR) string {
	h := sha256.New()
	var buf [8]byte
	writeInt := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	h.Write([]byte("csr\x00"))
	writeInt(m.NRows)
	writeInt(m.NCols)
	for _, v := range m.RowPtr {
		writeInt(v)
	}
	for _, v := range m.Col {
		writeInt(v)
	}
	for _, v := range m.Val {
		binary.LittleEndian.PutUint64(buf[:], floatBits(v))
		h.Write(buf[:])
	}
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:8])
}

// HashGeneratorSpec digests a generator spec string ("laplace2d:32:32")
// by its parameters: specs are already canonical parameter lists, so
// the digest is over the trimmed, lowercased text in a separate
// namespace from uploaded-matrix digests. The matrix need not be
// generated to route or cache-key a generator job.
func HashGeneratorSpec(spec string) string {
	h := sha256.New()
	h.Write([]byte("gen\x00"))
	h.Write([]byte(strings.ToLower(strings.TrimSpace(spec))))
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:8])
}

// HashUploadText digests a Matrix Market upload as text, unparsed, in
// a namespace of its own: the cluster router's placement key for an
// upload. Only byte-identical documents agree on it; the key a plan is
// cached under is ContentHash of the parsed matrix.
func HashUploadText(doc string) string {
	h := sha256.New()
	h.Write([]byte("mmtext\x00"))
	// In bounded pieces: converting the whole upload to []byte at once
	// would copy it to the heap.
	var piece [4096]byte
	for len(doc) > 0 {
		n := copy(piece[:], doc)
		h.Write(piece[:n])
		doc = doc[n:]
	}
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:8])
}

// floatBits returns the IEEE-754 bit pattern, with -0 folded into +0
// so the digest matches numeric equality for every value CG can
// produce (NaN never survives ParseMatrixMarket or the generators).
func floatBits(f float64) uint64 {
	if f == 0 {
		return 0
	}
	return math.Float64bits(f)
}
