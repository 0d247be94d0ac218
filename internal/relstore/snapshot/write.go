package snapshot

import (
	"fmt"
	"io"
	"os"

	"lpath/internal/relstore"
)

// Write serializes the built store to w in the snapshot format. The store
// must be fully built (relstore.Build or a prior snapshot load); the output
// is deterministic — the same store always produces byte-identical
// snapshots, which the golden compatibility test pins.
func Write(w io.Writer, s *relstore.Store) error {
	data, err := Encode(s)
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// WriteFile writes the store snapshot to path via a same-directory temp file
// and rename, so a crashed writer never leaves a half-written snapshot where
// a loader would find it.
func WriteFile(path string, s *relstore.Store) error {
	data, err := Encode(s)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(pathDir(path), ".lpx-tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

func pathDir(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' || path[i] == os.PathSeparator {
			return path[:i+1]
		}
	}
	return "."
}

// Encode serializes the store into a snapshot byte image.
func Encode(s *relstore.Store) ([]byte, error) {
	return encodeParts(s.Parts())
}

// encodeParts lays the flattened parts out as sections and frames them with
// the checksummed directory.
func encodeParts(p *relstore.Parts) ([]byte, error) {
	if len(p.Names) > 1<<31-2 || len(p.Values) > 1<<31-2 || len(p.Cols.TID) > 1<<31-2 {
		return nil, fmt.Errorf("snapshot: store too large for the 32-bit row index space")
	}
	sections := make([][]byte, 0, len(sectionOrder))
	add := func(body *enc) { sections = append(sections, body.b) }

	meta := &enc{}
	meta.u32(uint32(p.Scheme))
	meta.u32(0) // pad / reserved
	meta.u64(uint64(p.TreeCount))
	meta.u64(uint64(len(p.Cols.TID)))
	meta.u64(uint64(len(p.Names)))
	meta.u64(uint64(len(p.Values)))
	add(meta)

	names := &enc{}
	names.stringTable(p.Names)
	add(names)

	nameStarts := &enc{}
	nameStarts.i32s(p.NameStarts)
	add(nameStarts)

	values := &enc{}
	values.stringTable(p.Values)
	add(values)

	cols := &enc{}
	for _, col := range [][]int32{p.Cols.TID, p.Cols.Left, p.Cols.Right, p.Cols.Depth, p.Cols.ID, p.Cols.PID} {
		cols.i32s(col)
	}
	add(cols)

	valueIdx := &enc{}
	valueIdx.i32s(p.ValueStarts)
	valueIdx.i32s(p.ValuePost)
	add(valueIdx)

	byLeft := &enc{}
	byLeft.i32s(p.ElemsByLeft)
	add(byLeft)

	stats := &enc{}
	stats.u64(uint64(p.Stats.Elements))
	stats.u64(uint64(p.Stats.AttrRows))
	stats.u64(uint64(p.Stats.Leaves))
	stats.u64(uint64(p.Stats.TotalSpan))
	stats.u64(uint64(p.Stats.MaxDepth))
	stats.f64(p.Stats.AvgDepth)
	stats.u64(uint64(len(p.Stats.DepthHist)))
	stats.i64s(p.Stats.DepthHist)
	stats.f64s(p.Stats.NameFanout)
	stats.f64s(p.Stats.NameSpan)
	add(stats)

	// Frame: header, checksummed directory, aligned sections.
	headerLen := padded(len(Magic) + 4 + 4 + 8 + 24*len(sections) + 4)
	total := headerLen
	offsets := make([]int, len(sections))
	for i, sec := range sections {
		offsets[i] = total
		total += padded(len(sec))
	}

	h := &enc{b: make([]byte, 0, total)}
	h.b = append(h.b, Magic...)
	h.u32(Version)
	h.u32(uint32(len(sections)))
	h.u64(uint64(total))
	for i, sec := range sections {
		h.u32(sectionOrder[i])
		h.u32(checksum(sec))
		h.u64(uint64(offsets[i]))
		h.u64(uint64(len(sec)))
	}
	h.u32(checksum(h.b))
	for len(h.b) < headerLen {
		h.b = append(h.b, 0)
	}
	for _, sec := range sections {
		h.b = append(h.b, sec...)
		for len(h.b)%align != 0 {
			h.b = append(h.b, 0)
		}
	}
	return h.b, nil
}
