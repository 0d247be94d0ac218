package snapshot

import (
	"bytes"
	"fmt"
	"io"
	"math"

	"lpath/internal/relstore"
)

// Decode validates and loads a snapshot image, returning the ready-to-query
// store. No tree is built: the store materializes one from its columns when
// a caller asks for a node (relstore.Store.NodeFor, Forest).
//
// The store aliases data where the host allows it (numeric columns, posting
// arrays, dictionary strings), so the caller must keep data alive and
// unmodified for the lifetime of the store and of every tree it hands out.
// What does not alias is derived per load in linear passes (see
// docs/SNAPSHOT.md, "What open costs"). Use Open for the mmap-backed variant
// with an explicit lifetime.
func Decode(data []byte) (*relstore.Store, error) {
	secs, err := parseDirectory(data)
	if err != nil {
		return nil, err
	}
	p, err := decodeParts(secs)
	if err != nil {
		return nil, err
	}
	s, err := relstore.Assemble(p)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return s, nil
}

// Read loads a snapshot from r (reading it fully into memory) and decodes
// it.
func Read(r io.Reader) (*relstore.Store, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}

// Sniff reports whether the byte prefix looks like a snapshot file.
func Sniff(prefix []byte) bool {
	return len(prefix) >= len(Magic) && bytes.Equal(prefix[:len(Magic)], []byte(Magic))
}

// section is one directory entry resolved against the file bytes.
type section struct {
	id   uint32
	body []byte
}

// parseDirectory validates magic, version, header checksum, and every
// section frame (bounds, alignment, checksum, exact required set), returning
// the section payloads by id.
func parseDirectory(data []byte) (map[uint32][]byte, error) {
	fixed := len(Magic) + 4 + 4 + 8
	if len(data) < fixed {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the fixed header", ErrTruncated, len(data))
	}
	if !Sniff(data) {
		return nil, fmt.Errorf("%w: got %q", ErrBadMagic, data[:len(Magic)])
	}
	hc := &cursor{b: data, off: len(Magic), sec: "header"}
	version, _ := hc.u32()
	count, _ := hc.u32()
	fileSize, _ := hc.u64()
	if version != Version {
		return nil, fmt.Errorf("%w: file version %d, this build reads version %d", ErrBadVersion, version, Version)
	}
	if count != uint32(len(sectionOrder)) {
		return nil, fmt.Errorf("%w: %d sections, format version %d has %d", ErrCorrupt, count, Version, len(sectionOrder))
	}
	dirEnd := fixed + 24*int(count)
	if dirEnd+4 > len(data) {
		return nil, fmt.Errorf("%w: directory extends past end of file", ErrTruncated)
	}
	hc.off = dirEnd
	wantCRC, _ := hc.u32()
	if checksum(data[:dirEnd]) != wantCRC {
		return nil, fmt.Errorf("%w: header", ErrChecksum)
	}
	if fileSize != uint64(len(data)) {
		return nil, fmt.Errorf("%w: header says %d bytes, file has %d", ErrTruncated, fileSize, len(data))
	}
	secs := make(map[uint32][]byte, count)
	dc := &cursor{b: data, off: fixed, sec: "directory"}
	for i := 0; i < int(count); i++ {
		id, _ := dc.u32()
		crc, _ := dc.u32()
		off, _ := dc.u64()
		length, _ := dc.u64()
		if off%align != 0 {
			return nil, fmt.Errorf("%w: section %d misaligned at offset %d", ErrCorrupt, id, off)
		}
		if off > uint64(len(data)) || length > uint64(len(data))-off {
			return nil, fmt.Errorf("%w: section %d extends past end of file", ErrTruncated, id)
		}
		body := data[off : off+length]
		if checksum(body) != crc {
			return nil, fmt.Errorf("%w: section %d", ErrChecksum, id)
		}
		if _, dup := secs[id]; dup {
			return nil, fmt.Errorf("%w: duplicate section %d", ErrCorrupt, id)
		}
		secs[id] = body
	}
	for _, id := range sectionOrder {
		if _, ok := secs[id]; !ok {
			return nil, fmt.Errorf("%w: missing section %d", ErrCorrupt, id)
		}
	}
	return secs, nil
}

// decodeParts reads every section payload into the flat Parts arrays,
// enforcing that declared counts agree across sections.
func decodeParts(secs map[uint32][]byte) (*relstore.Parts, error) {
	p := &relstore.Parts{}

	mc := &cursor{b: secs[secMeta], sec: "meta"}
	scheme, err := mc.u32()
	if err != nil {
		return nil, err
	}
	if _, err := mc.u32(); err != nil { // reserved
		return nil, err
	}
	treeCount, err := mc.u64()
	if err != nil {
		return nil, err
	}
	rowCount64, err := mc.u64()
	if err != nil {
		return nil, err
	}
	nameCount64, err := mc.u64()
	if err != nil {
		return nil, err
	}
	valueCount64, err := mc.u64()
	if err != nil {
		return nil, err
	}
	if err := mc.done(); err != nil {
		return nil, err
	}
	p.Scheme = relstore.Scheme(scheme)
	// Counts are validated against the section byte lengths they index
	// into, so a forged count cannot force an oversized allocation.
	colsBody := secs[secCols]
	if rowCount64 > uint64(len(colsBody))/4 || rowCount64 >= 1<<31 || treeCount >= 1<<31 {
		return nil, fmt.Errorf("%w: meta counts exceed section sizes", ErrCorrupt)
	}
	rowCount := int(rowCount64)
	p.TreeCount = int(treeCount)

	nc := &cursor{b: secs[secNames], sec: "names"}
	nameCount, err := nc.intCount(nameCount64, 4)
	if err != nil {
		return nil, err
	}
	if p.Names, err = nc.stringTable(nameCount); err != nil {
		return nil, err
	}
	if err := nc.done(); err != nil {
		return nil, err
	}

	nsc := &cursor{b: secs[secNameStarts], sec: "name-starts"}
	if p.NameStarts, err = nsc.i32s(nameCount + 1); err != nil {
		return nil, err
	}
	if err := nsc.done(); err != nil {
		return nil, err
	}

	vc := &cursor{b: secs[secValues], sec: "values"}
	valueCount, err := vc.intCount(valueCount64, 4)
	if err != nil {
		return nil, err
	}
	if p.Values, err = vc.stringTable(valueCount); err != nil {
		return nil, err
	}
	if err := vc.done(); err != nil {
		return nil, err
	}

	cc := &cursor{b: colsBody, sec: "cols"}
	cols := [6][]int32{}
	for i := range cols {
		if cols[i], err = cc.i32s(rowCount); err != nil {
			return nil, err
		}
	}
	if err := cc.done(); err != nil {
		return nil, err
	}
	p.Cols = relstore.Cols{
		TID: cols[0], Left: cols[1], Right: cols[2],
		Depth: cols[3], ID: cols[4], PID: cols[5],
	}

	vic := &cursor{b: secs[secValueIdx], sec: "value-postings"}
	if p.ValueStarts, err = vic.i32s(valueCount + 1); err != nil {
		return nil, err
	}
	if p.ValuePost, err = vic.i32s((len(vic.b) - vic.off) / 4); err != nil {
		return nil, err
	}
	if err := vic.done(); err != nil {
		return nil, err
	}

	blc := &cursor{b: secs[secElemsByLeft], sec: "elems-by-left"}
	if p.ElemsByLeft, err = blc.i32s(len(blc.b) / 4); err != nil {
		return nil, err
	}
	if err := blc.done(); err != nil {
		return nil, err
	}

	sc := &cursor{b: secs[secStats], sec: "stats"}
	var ints [5]uint64
	for i := range ints {
		if ints[i], err = sc.u64(); err != nil {
			return nil, err
		}
	}
	avgBits, err := sc.u64()
	if err != nil {
		return nil, err
	}
	histLen64, err := sc.u64()
	if err != nil {
		return nil, err
	}
	histLen, err := sc.intCount(histLen64, 8)
	if err != nil {
		return nil, err
	}
	hist, err := sc.i64s(histLen)
	if err != nil {
		return nil, err
	}
	fanout, err := sc.f64s(nameCount)
	if err != nil {
		return nil, err
	}
	span, err := sc.f64s(nameCount)
	if err != nil {
		return nil, err
	}
	if err := sc.done(); err != nil {
		return nil, err
	}
	const maxInt = int(^uint(0) >> 1)
	for _, v := range ints {
		if v > uint64(maxInt) {
			return nil, fmt.Errorf("%w: statistics count overflows", ErrCorrupt)
		}
	}
	p.Stats = relstore.StatsParts{
		Elements:   int(ints[0]),
		AttrRows:   int(ints[1]),
		Leaves:     int(ints[2]),
		TotalSpan:  int(ints[3]),
		MaxDepth:   int(ints[4]),
		AvgDepth:   math.Float64frombits(avgBits),
		DepthHist:  hist,
		NameFanout: fanout,
		NameSpan:   span,
	}
	return p, nil
}
