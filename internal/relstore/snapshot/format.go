// Package snapshot persists built relstore.Store indexes as versioned binary
// files (conventionally *.lpx), so a server cold-starts by reading and
// validating flat arrays instead of re-parsing Penn text and re-sorting every
// index — the paper's workflow of labeling the treebank once and loading the
// stored relation for querying.
//
// Layout (all integers little-endian, sections 8-byte aligned):
//
//	magic "LPXSNAP\x00" (8 bytes)
//	u32 version (currently 2)
//	u32 section count
//	u64 file size
//	directory: per section {u32 id, u32 crc32c, u64 offset, u64 length}
//	u32 header crc32c (over everything above)
//	...sections...
//
// Section payloads carry the relstore.Parts arrays verbatim (see that type
// for what each array means); every payload is covered by a CRC-32C checksum
// and every structural invariant is revalidated by relstore.Assemble, so a
// truncated, bit-flipped, or logically inconsistent file is rejected with a
// typed error — never a panic, never a silently wrong store.
//
// Loading is zero-copy where the host allows it: on little-endian machines
// the int32/int64/float64 arrays are aliased straight into the file bytes
// (which is what makes mmap-backed loading O(touched pages)), and dictionary
// strings alias the mapped blob. The store therefore keeps the backing
// buffer alive; File.Close documents the mmap lifetime.
package snapshot

import (
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"unsafe"
)

// Magic identifies an lpath snapshot file.
const Magic = "LPXSNAP\x00"

// Version is the current format version. Bump it on any layout change and
// regenerate testdata/smoke.lpx (the golden compatibility test fails
// deliberately otherwise).
const Version = 2

// Section identifiers. Every section must appear exactly once. Ids 6, 7 and
// 10 held version 1's reverse-axis postings, doc-order permutations and
// elements by right; they are retired and never reused.
const (
	secMeta        = 1  // scheme, tree/row/name/value counts
	secNames       = 2  // name dictionary string table
	secNameStarts  = 3  // clustered partition prefix, i32[names+1]
	secValues      = 4  // value dictionary string table
	secCols        = 5  // six i32 label columns, concatenated
	secValueIdx    = 8  // per-value attribute-row postings
	secElemsByLeft = 9  // all elements by (tid, left, depth)
	secStats       = 11 // statistics block remainder
)

// sectionOrder is the canonical write order; the reader requires exactly
// this set (any order), each section once.
var sectionOrder = []uint32{
	secMeta, secNames, secNameStarts, secValues, secCols,
	secValueIdx, secElemsByLeft, secStats,
}

// Typed load failures. Every error returned by Decode/Read/Open wraps
// exactly one of these sentinels, so callers can classify failures with
// errors.Is.
var (
	// ErrBadMagic: the bytes are not an lpath snapshot at all.
	ErrBadMagic = errors.New("snapshot: bad magic")
	// ErrBadVersion: a snapshot, but from an incompatible format version.
	ErrBadVersion = errors.New("snapshot: unsupported format version")
	// ErrTruncated: the file ends before its declared contents do.
	ErrTruncated = errors.New("snapshot: truncated")
	// ErrChecksum: a section or the header fails its CRC-32C.
	ErrChecksum = errors.New("snapshot: checksum mismatch")
	// ErrCorrupt: checksums pass but the decoded structure is inconsistent.
	ErrCorrupt = errors.New("snapshot: corrupt")
)

// IsFormatError reports whether err is any snapshot load failure.
func IsFormatError(err error) bool {
	return errors.Is(err, ErrBadMagic) || errors.Is(err, ErrBadVersion) ||
		errors.Is(err, ErrTruncated) || errors.Is(err, ErrChecksum) ||
		errors.Is(err, ErrCorrupt)
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

func checksum(b []byte) uint32 { return crc32.Checksum(b, crcTable) }

// hostLittle reports whether the host is little-endian; when true, the
// numeric sections can be aliased instead of decoded.
var hostLittle = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

const align = 8

func padded(n int) int { return (n + align - 1) &^ (align - 1) }

// --- encoding ----------------------------------------------------------

// enc is a little-endian append-only buffer.
type enc struct{ b []byte }

func (e *enc) u32(v uint32) {
	e.b = append(e.b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func (e *enc) u64(v uint64) {
	e.b = append(e.b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

func (e *enc) f64(v float64) { e.u64(math.Float64bits(v)) }

func (e *enc) i32s(v []int32) {
	if hostLittle && len(v) > 0 {
		e.b = append(e.b, unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 4*len(v))...)
		return
	}
	for _, x := range v {
		e.u32(uint32(x))
	}
}

func (e *enc) i64s(v []int64) {
	if hostLittle && len(v) > 0 {
		e.b = append(e.b, unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 8*len(v))...)
		return
	}
	for _, x := range v {
		e.u64(uint64(x))
	}
}

func (e *enc) f64s(v []float64) {
	if hostLittle && len(v) > 0 {
		e.b = append(e.b, unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 8*len(v))...)
		return
	}
	for _, x := range v {
		e.f64(x)
	}
}

// stringTable encodes a string dictionary: u32 count, u32 offsets[count+1]
// (relative to the blob), blob bytes.
func (e *enc) stringTable(strs []string) {
	e.u32(uint32(len(strs)))
	off := uint32(0)
	e.u32(0)
	for _, s := range strs {
		off += uint32(len(s))
		e.u32(off)
	}
	for _, s := range strs {
		e.b = append(e.b, s...)
	}
}

// --- decoding ----------------------------------------------------------

// cursor walks a section payload; every read is bounds-checked and returns
// ErrCorrupt when the payload is shorter than its contents claim.
type cursor struct {
	b   []byte
	off int
	sec string
}

func (c *cursor) fail(what string) error {
	return fmt.Errorf("%w: section %s: short or oversized %s at offset %d", ErrCorrupt, c.sec, what, c.off)
}

func (c *cursor) u32() (uint32, error) {
	if c.off+4 > len(c.b) {
		return 0, c.fail("u32")
	}
	v := uint32(c.b[c.off]) | uint32(c.b[c.off+1])<<8 | uint32(c.b[c.off+2])<<16 | uint32(c.b[c.off+3])<<24
	c.off += 4
	return v, nil
}

func (c *cursor) u64() (uint64, error) {
	lo, err := c.u32()
	if err != nil {
		return 0, err
	}
	hi, err := c.u32()
	if err != nil {
		return 0, err
	}
	return uint64(lo) | uint64(hi)<<32, nil
}

// intCount validates a u64 element count against the bytes remaining in the
// cursor, so no allocation can exceed the section size.
func (c *cursor) intCount(v uint64, width int) (int, error) {
	if v > uint64(len(c.b)-c.off)/uint64(width) {
		return 0, c.fail("count")
	}
	return int(v), nil
}

func (c *cursor) i32s(n int) ([]int32, error) {
	if n < 0 || c.off+4*n > len(c.b) {
		return nil, c.fail("i32 array")
	}
	raw := c.b[c.off : c.off+4*n]
	c.off += 4 * n
	if n == 0 {
		return []int32{}, nil
	}
	if hostLittle && uintptr(unsafe.Pointer(&raw[0]))%4 == 0 {
		return unsafe.Slice((*int32)(unsafe.Pointer(&raw[0])), n), nil
	}
	out := make([]int32, n)
	for i := range out {
		j := 4 * i
		out[i] = int32(uint32(raw[j]) | uint32(raw[j+1])<<8 | uint32(raw[j+2])<<16 | uint32(raw[j+3])<<24)
	}
	return out, nil
}

func (c *cursor) i64s(n int) ([]int64, error) {
	if n < 0 || c.off+8*n > len(c.b) {
		return nil, c.fail("i64 array")
	}
	raw := c.b[c.off : c.off+8*n]
	c.off += 8 * n
	if n == 0 {
		return []int64{}, nil
	}
	if hostLittle && uintptr(unsafe.Pointer(&raw[0]))%8 == 0 {
		return unsafe.Slice((*int64)(unsafe.Pointer(&raw[0])), n), nil
	}
	out := make([]int64, n)
	for i := range out {
		j := 8 * i
		out[i] = int64(uint64(raw[j]) | uint64(raw[j+1])<<8 | uint64(raw[j+2])<<16 | uint64(raw[j+3])<<24 |
			uint64(raw[j+4])<<32 | uint64(raw[j+5])<<40 | uint64(raw[j+6])<<48 | uint64(raw[j+7])<<56)
	}
	return out, nil
}

func (c *cursor) f64s(n int) ([]float64, error) {
	if n < 0 || c.off+8*n > len(c.b) {
		return nil, c.fail("f64 array")
	}
	raw := c.b[c.off : c.off+8*n]
	c.off += 8 * n
	if n == 0 {
		return []float64{}, nil
	}
	if hostLittle && uintptr(unsafe.Pointer(&raw[0]))%8 == 0 {
		return unsafe.Slice((*float64)(unsafe.Pointer(&raw[0])), n), nil
	}
	out := make([]float64, n)
	for i := range out {
		j := 8 * i
		out[i] = math.Float64frombits(uint64(raw[j]) | uint64(raw[j+1])<<8 | uint64(raw[j+2])<<16 |
			uint64(raw[j+3])<<24 | uint64(raw[j+4])<<32 | uint64(raw[j+5])<<40 |
			uint64(raw[j+6])<<48 | uint64(raw[j+7])<<56)
	}
	return out, nil
}

// stringTable decodes a dictionary written by enc.stringTable. The returned
// strings alias the underlying buffer (zero copy).
func (c *cursor) stringTable(wantCount int) ([]string, error) {
	count, err := c.u32()
	if err != nil {
		return nil, err
	}
	if int64(count) != int64(wantCount) {
		return nil, fmt.Errorf("%w: section %s: dictionary has %d entries, directory says %d",
			ErrCorrupt, c.sec, count, wantCount)
	}
	offs, err := c.i32s(wantCount + 1)
	if err != nil {
		return nil, err
	}
	if offs[0] != 0 {
		return nil, c.fail("dictionary offsets")
	}
	blobLen := int(offs[wantCount])
	if blobLen < 0 || c.off+blobLen > len(c.b) {
		return nil, c.fail("dictionary blob")
	}
	blob := c.b[c.off : c.off+blobLen]
	c.off += blobLen
	out := make([]string, wantCount)
	for i := 0; i < wantCount; i++ {
		lo, hi := offs[i], offs[i+1]
		if lo > hi || int(hi) > blobLen {
			return nil, c.fail("dictionary offsets")
		}
		if lo == hi {
			out[i] = ""
			continue
		}
		out[i] = unsafe.String(&blob[lo], int(hi-lo))
	}
	return out, nil
}

// done verifies the cursor consumed its section exactly.
func (c *cursor) done() error {
	if c.off != len(c.b) {
		return fmt.Errorf("%w: section %s: %d trailing bytes", ErrCorrupt, c.sec, len(c.b)-c.off)
	}
	return nil
}
