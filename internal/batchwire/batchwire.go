// Package batchwire implements hib1, hido's length-prefixed binary
// columnar batch format — the third Content-Type of the hidod scoring
// API next to CSV and JSON lines, and the cheapest one to decode:
// values travel as raw big-endian IEEE 754 bits (NaN encodes missing
// exactly, like the hcp1 cluster protocol), laid out column-major so a
// client can emit one column of a columnar store without transposing.
//
// Wire layout (all integers big-endian):
//
//	offset 0   magic "hib1" (4 bytes)
//	offset 4   flags (1 byte; bit0 = labels present)
//	offset 5   N, record count (uint32)
//	offset 9   D, attribute count (uint32)
//	offset 13  D columns × N float64 bit patterns (8 bytes each)
//	then       N × (uint32 length + raw bytes) labels, iff flags bit0
//
// The decoder follows the hcp1 discipline: every declared length is
// validated against the bytes actually present before anything is
// allocated, so a hostile frame can never make the server allocate
// more than the frame's own size.
package batchwire

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"hido/internal/dataset"
)

// ContentType is the HTTP media type of a hib1 batch.
const ContentType = "application/x-hido-batch"

const magic = "hib1"

const (
	flagLabels = 1 << 0

	headerLen = len(magic) + 1 + 4 + 4

	// maxDims mirrors the cluster protocol's per-record dimension cap.
	maxDims = 4096
	// maxLabel bounds any single label string.
	maxLabel = 1 << 20
	// internCap bounds the distinct labels one batch shares strings
	// for: labels are usually a few class names repeated on every row.
	internCap = 8
)

// Append appends the wire form of ds to dst and returns the extended
// buffer.
func Append(dst []byte, ds *dataset.Dataset) []byte {
	n, d := ds.N(), ds.D()
	flags := byte(0)
	if ds.Labels != nil {
		flags |= flagLabels
	}
	dst = append(dst, magic...)
	dst = append(dst, flags)
	dst = binary.BigEndian.AppendUint32(dst, uint32(n))
	dst = binary.BigEndian.AppendUint32(dst, uint32(d))
	for j := 0; j < d; j++ {
		for i := 0; i < n; i++ {
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(ds.At(i, j)))
		}
	}
	if ds.Labels != nil {
		for _, l := range ds.Labels {
			dst = binary.BigEndian.AppendUint32(dst, uint32(len(l)))
			dst = append(dst, l...)
		}
	}
	return dst
}

// Encode returns the wire form of ds.
func Encode(ds *dataset.Dataset) []byte {
	n, d := ds.N(), ds.D()
	size := headerLen + n*d*8
	if ds.Labels != nil {
		for _, l := range ds.Labels {
			size += 4 + len(l)
		}
	}
	return Append(make([]byte, 0, size), ds)
}

// Decode parses a hib1 batch into dst, which is Reset in place (a nil
// dst allocates a fresh dataset). wantD, when positive, enforces the
// batch's attribute count — the decoder rejects a mismatched batch
// before touching the values. Column names are the positional
// c0 … c{D-1}; in steady state with a reused dst, decoding an
// unlabeled batch allocates nothing, and a labeled one allocates once
// per distinct label (up to internCap of them, then once per row).
func Decode(dst *dataset.Dataset, b []byte, wantD int) (*dataset.Dataset, error) {
	if len(b) < headerLen {
		return nil, fmt.Errorf("batchwire: batch truncated (%d bytes, want at least %d)", len(b), headerLen)
	}
	if string(b[:len(magic)]) != magic {
		return nil, fmt.Errorf("batchwire: bad magic")
	}
	flags := b[len(magic)]
	if flags&^byte(flagLabels) != 0 {
		return nil, fmt.Errorf("batchwire: unknown flag bits %#x", flags)
	}
	n := int(binary.BigEndian.Uint32(b[len(magic)+1:]))
	d := int(binary.BigEndian.Uint32(b[len(magic)+5:]))
	if n == 0 {
		return nil, fmt.Errorf("batchwire: empty batch")
	}
	if d < 1 || d > maxDims {
		return nil, fmt.Errorf("batchwire: dimension count %d outside [1,%d]", d, maxDims)
	}
	if wantD > 0 && d != wantD {
		return nil, fmt.Errorf("batchwire: batch has %d attributes, model expects %d", d, wantD)
	}
	body := b[headerLen:]
	need := int64(n) * int64(d) * 8
	if need > int64(len(body)) {
		return nil, fmt.Errorf("batchwire: batch declares %dx%d values (%d bytes), carries %d", n, d, need, len(body))
	}
	if flags&flagLabels == 0 && need != int64(len(body)) {
		return nil, fmt.Errorf("batchwire: %d trailing bytes after values", int64(len(body))-need)
	}

	var labels []string
	if dst == nil {
		dst = dataset.New(dataset.GenericNames(d), n)
	} else {
		labels = dst.Labels[:0]
		dst.Reset(dataset.GenericNames(d))
	}
	vals := dst.AppendRows(n)
	for j := 0; j < d; j++ {
		col := body[j*n*8:]
		for i := 0; i < n; i++ {
			vals[i*d+j] = math.Float64frombits(binary.BigEndian.Uint64(col[i*8:]))
		}
	}

	if flags&flagLabels != 0 {
		rest := body[need:]
		labels = slices.Grow(labels, n)[:n]
		var interned interner
		for i := range labels {
			if len(rest) < 4 {
				return nil, fmt.Errorf("batchwire: labels truncated at record %d", i)
			}
			l := int(binary.BigEndian.Uint32(rest))
			if l > maxLabel {
				return nil, fmt.Errorf("batchwire: label of %d bytes exceeds limit %d", l, maxLabel)
			}
			rest = rest[4:]
			if l > len(rest) {
				return nil, fmt.Errorf("batchwire: label of %d bytes exceeds payload (%d left)", l, len(rest))
			}
			labels[i] = interned.get(rest[:l])
			rest = rest[l:]
		}
		if len(rest) != 0 {
			return nil, fmt.Errorf("batchwire: %d trailing bytes after labels", len(rest))
		}
		dst.Labels = labels
	}
	return dst, nil
}

// interner shares one string among a batch's repeats of a label, for
// up to internCap distinct labels; past that each new label is its
// own string. Its table is fixed-size and lives for one batch.
type interner struct {
	n    int
	strs [internCap]string
}

func (t *interner) get(b []byte) string {
	for _, s := range t.strs[:t.n] {
		if s == string(b) {
			return s
		}
	}
	s := string(b)
	if t.n < len(t.strs) {
		t.strs[t.n] = s
		t.n++
	}
	return s
}
