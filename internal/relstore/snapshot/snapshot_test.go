package snapshot

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"lpath/internal/corpus"
	"lpath/internal/relstore"
	"lpath/internal/tree"
)

// partsEqual compares flattened parts, treating nil and empty slices as the
// same (the decoder materializes empty arrays where a freshly built store has
// nil ones).
func partsEqual(a, b *relstore.Parts) bool {
	norm := func(p *relstore.Parts) relstore.Parts {
		q := *p
		v := reflect.ValueOf(&q).Elem()
		var fix func(v reflect.Value)
		fix = func(v reflect.Value) {
			for i := 0; i < v.NumField(); i++ {
				f := v.Field(i)
				switch f.Kind() {
				case reflect.Slice:
					if f.IsNil() {
						f.Set(reflect.MakeSlice(f.Type(), 0, 0))
					}
				case reflect.Struct:
					fix(f)
				}
			}
		}
		fix(v)
		return q
	}
	an, bn := norm(a), norm(b)
	return reflect.DeepEqual(an, bn)
}

// buildGen builds a store from a seeded synthetic corpus; the same arguments
// always yield the identical store.
func buildGen(t testing.TB, profile corpus.Profile, scale float64, seed int64) (*relstore.Store, *tree.Corpus) {
	t.Helper()
	c := corpus.Generate(corpus.Config{Profile: profile, Scale: scale, Seed: seed})
	return relstore.Build(c, relstore.SchemeInterval), c
}

// checkRoundTrip encodes the store, decodes the image, and compares the
// flattened parts of both stores — which covers every serialized structure,
// including the posting permutations and statistics.
func checkRoundTrip(t *testing.T, orig *relstore.Store, origTrees *tree.Corpus) []byte {
	t.Helper()
	data, err := Encode(orig)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !partsEqual(loaded.Parts(), orig.Parts()) {
		t.Error("decoded parts differ from original")
	}
	if n := loaded.TreesBuilt(); n != 0 {
		t.Errorf("decoding built %d trees; none was asked for", n)
	}
	loadedTrees := loaded.Forest()
	if loadedTrees.Len() != origTrees.Len() {
		t.Fatalf("decoded %d trees, want %d", loadedTrees.Len(), origTrees.Len())
	}
	for i := range origTrees.Trees {
		if got, want := loadedTrees.Trees[i].Root.String(), origTrees.Trees[i].Root.String(); got != want {
			t.Fatalf("tree %d differs:\n got %s\nwant %s", i+1, got, want)
		}
	}
	// Writing is deterministic: re-encoding either store reproduces the
	// image byte for byte.
	again, err := Encode(orig)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Error("encoding the same store twice produced different bytes")
	}
	fromLoaded, err := Encode(loaded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, fromLoaded) {
		t.Error("re-encoding the decoded store produced different bytes")
	}
	return data
}

func TestRoundTripGenerated(t *testing.T) {
	cases := []struct {
		name    string
		profile corpus.Profile
		scale   float64
		seed    int64
	}{
		{"wsj-tiny", corpus.WSJ, 0.0005, 1},
		{"wsj-small", corpus.WSJ, 0.002, 42},
		{"wsj-mid", corpus.WSJ, 0.01, 7},
		{"swb-small", corpus.SWB, 0.002, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, trees := buildGen(t, tc.profile, tc.scale, tc.seed)
			checkRoundTrip(t, s, trees)
		})
	}
}

func TestRoundTripHandAssembled(t *testing.T) {
	c := tree.NewCorpus()
	c.Add(tree.Figure1())
	c.Add(tree.MustParseTree(`(S (NP-SBJ (-NONE- *T*-1)) (VP (VBD saw)))`))
	c.Add(tree.MustParseTree(`(NP (NP (NP x)))`)) // unary same-name chain
	s := relstore.Build(c, relstore.SchemeInterval)
	data := checkRoundTrip(t, s, c)
	if !Sniff(data) {
		t.Error("Sniff rejects a valid snapshot")
	}
}

func TestRoundTripEmpty(t *testing.T) {
	c := tree.NewCorpus()
	s := relstore.Build(c, relstore.SchemeInterval)
	checkRoundTrip(t, s, c)
}

func TestReadWriter(t *testing.T) {
	s, trees := buildGen(t, corpus.WSJ, 0.001, 5)
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	loaded, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != s.Len() || loaded.Forest().Len() != trees.Len() {
		t.Fatalf("loaded %d rows/%d trees, want %d/%d",
			loaded.Len(), loaded.Forest().Len(), s.Len(), trees.Len())
	}
}

func TestWriteFileAndOpen(t *testing.T) {
	s, trees := buildGen(t, corpus.WSJ, 0.001, 9)
	path := filepath.Join(t.TempDir(), "corpus.lpx")
	if err := WriteFile(path, s); err != nil {
		t.Fatal(err)
	}
	ok, err := SniffFile(path)
	if err != nil || !ok {
		t.Fatalf("SniffFile = %v, %v", ok, err)
	}
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.Store().Len() != s.Len() || f.Corpus().Len() != trees.Len() {
		t.Fatalf("open: %d rows/%d trees, want %d/%d",
			f.Store().Len(), f.Corpus().Len(), s.Len(), trees.Len())
	}
	if info, err := os.Stat(path); err != nil || f.Size() != info.Size() {
		t.Errorf("Size = %d (stat %v, %v)", f.Size(), info, err)
	}
	if !partsEqual(f.Store().Parts(), s.Parts()) {
		t.Error("opened parts differ")
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil { // double close is safe
		t.Fatal(err)
	}
}

func TestSniffFileShort(t *testing.T) {
	path := filepath.Join(t.TempDir(), "short")
	if err := os.WriteFile(path, []byte("LP"), 0o644); err != nil {
		t.Fatal(err)
	}
	ok, err := SniffFile(path)
	if err != nil || ok {
		t.Fatalf("SniffFile(short) = %v, %v", ok, err)
	}
}

func TestOpenRejectsCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.lpx")
	if err := os.WriteFile(path, []byte("LPXSNAP\x00garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); !IsFormatError(err) {
		t.Fatalf("Open(corrupt) = %v, want a format error", err)
	}
}

// headerDirEnd returns the byte offset where the header CRC lives, so tests
// can tamper with header fields and re-sign the header to reach the checks
// behind the checksum.
func headerDirEnd(data []byte) int {
	fixed := len(Magic) + 4 + 4 + 8
	count := int(uint32(data[len(Magic)+4]) | uint32(data[len(Magic)+5])<<8 |
		uint32(data[len(Magic)+6])<<16 | uint32(data[len(Magic)+7])<<24)
	return fixed + 24*count
}

func resignHeader(data []byte) {
	dirEnd := headerDirEnd(data)
	crc := checksum(data[:dirEnd])
	data[dirEnd] = byte(crc)
	data[dirEnd+1] = byte(crc >> 8)
	data[dirEnd+2] = byte(crc >> 16)
	data[dirEnd+3] = byte(crc >> 24)
}

func TestDecodeRejectsTamperedImages(t *testing.T) {
	s, _ := buildGen(t, corpus.WSJ, 0.001, 11)
	valid, err := Encode(s)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		mutate func(data []byte) []byte
		want   error // nil = any typed format error
	}{
		{"empty", func(d []byte) []byte { return nil }, ErrTruncated},
		{"magic only", func(d []byte) []byte { return d[:len(Magic)] }, ErrTruncated},
		{"bad magic", func(d []byte) []byte { d[0] ^= 0xff; return d }, ErrBadMagic},
		{"wrong version", func(d []byte) []byte {
			d[len(Magic)] = 99
			resignHeader(d)
			return d
		}, ErrBadVersion},
		{"wrong section count", func(d []byte) []byte {
			d[len(Magic)+4] = 3
			// A smaller count moves the CRC slot; the original checksum no
			// longer lines up, whatever bytes happen to sit there.
			return d
		}, nil},
		{"header bit flip", func(d []byte) []byte {
			d[len(Magic)+13] ^= 0x01 // inside the file-size field
			return d
		}, ErrChecksum},
		{"file size lies", func(d []byte) []byte {
			d = append(d, 0, 0, 0, 0, 0, 0, 0, 0) // real file grows, header doesn't
			return d
		}, ErrTruncated},
		{"truncated mid-directory", func(d []byte) []byte { return d[:len(Magic)+20] }, ErrTruncated},
		{"truncated mid-section", func(d []byte) []byte { return d[:len(d)/2] }, nil},
		{"truncated one byte", func(d []byte) []byte { return d[:len(d)-1] }, nil},
		{"section offset corrupted", func(d []byte) []byte {
			// Point the first section's offset far past the end of the file
			// (aligned, so the bounds check is what fires).
			off := len(Magic) + 4 + 4 + 8 + 8
			d[off] = 0xf8
			d[off+1] = 0xff
			d[off+2] = 0xff
			resignHeader(d)
			return d
		}, ErrTruncated},
		{"section misaligned", func(d []byte) []byte {
			off := len(Magic) + 4 + 4 + 8 + 8
			d[off] ^= 0x01
			resignHeader(d)
			return d
		}, ErrCorrupt},
		{"section bit flip", func(d []byte) []byte {
			d[len(d)-9] ^= 0x40 // inside the last section's payload
			return d
		}, ErrChecksum},
		{"section crc forged", func(d []byte) []byte {
			off := len(Magic) + 4 + 4 + 8 + 4 // first section's crc field
			d[off] ^= 0xff
			resignHeader(d)
			return d
		}, ErrChecksum},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.mutate(append([]byte(nil), valid...))
			_, err := Decode(data)
			if err == nil {
				t.Fatal("tampered snapshot decoded successfully")
			}
			if !IsFormatError(err) {
				t.Fatalf("err = %v, want a typed format error", err)
			}
			if tc.want != nil && !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

// corruptIdentities are images whose every checksum and section frame is
// valid but whose relation breaks what the store's position arrays rest on:
// ids that are not a dense preorder numbering, parents and attribute owners
// that name nothing. Checksums cannot catch these — a buggy or hostile writer
// signs them like any other image — so Assemble must, before anything indexes
// by them.
func corruptIdentities(t testing.TB) map[string][]byte {
	c := tree.NewCorpus()
	c.Add(tree.Figure1())
	c.Add(tree.MustParseTree(`(S (NP (Det the) (N cat)) (VP (V sat)))`))
	lastAttr := func(p *relstore.Parts) int32 {
		for i := len(p.Names) - 1; ; i-- {
			if p.Names[i][0] == '@' {
				return p.NameStarts[i+1] - 1
			}
		}
	}
	out := make(map[string][]byte)
	for name, mutate := range map[string]func(p *relstore.Parts){
		"id out of range":      func(p *relstore.Parts) { p.Cols.ID[p.ElemsByLeft[3]] = 1 << 30 },
		"negative id":          func(p *relstore.Parts) { p.Cols.ID[p.ElemsByLeft[3]] = -4 },
		"ids out of preorder":  func(p *relstore.Parts) { p.Cols.ID[p.ElemsByLeft[2]], p.Cols.ID[p.ElemsByLeft[3]] = 4, 3 },
		"duplicate identity":   func(p *relstore.Parts) { p.Cols.ID[p.ElemsByLeft[3]] = 3 },
		"unknown parent":       func(p *relstore.Parts) { p.Cols.PID[p.ElemsByLeft[3]] = 1 << 30 },
		"negative parent":      func(p *relstore.Parts) { p.Cols.PID[p.ElemsByLeft[3]] = -1 },
		"second root":          func(p *relstore.Parts) { p.Cols.PID[p.ElemsByLeft[3]] = 0 },
		"orphan attribute tid": func(p *relstore.Parts) { p.Cols.TID[lastAttr(p)] = 1 << 30 },
		"orphan attribute id":  func(p *relstore.Parts) { p.Cols.ID[lastAttr(p)] = 1 << 30 },
		"tree ids past count":  func(p *relstore.Parts) { p.TreeCount = 1 },
	} {
		// Parts aliases the store, so every case mutates a build of its own.
		p := relstore.Build(c, relstore.SchemeInterval).Parts()
		mutate(p)
		data, err := encodeParts(p)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = data
	}
	return out
}

func TestDecodeRejectsCorruptIdentities(t *testing.T) {
	for name, data := range corruptIdentities(t) {
		t.Run(name, func(t *testing.T) {
			if _, err := Decode(data); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("err = %v, want ErrCorrupt", err)
			}
		})
	}
}

// TestDecodeRejectsEveryTruncation walks all prefix lengths of a small valid
// snapshot: none may decode, and none may panic.
func TestDecodeRejectsEveryTruncation(t *testing.T) {
	c := tree.NewCorpus()
	c.Add(tree.Figure1())
	s := relstore.Build(c, relstore.SchemeInterval)
	valid, err := Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(valid); n++ {
		if _, err := Decode(valid[:n]); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded successfully", n, len(valid))
		} else if !IsFormatError(err) {
			t.Fatalf("prefix %d: err = %v, want a typed format error", n, err)
		}
	}
}

// TestDecodeSurvivesEveryBitFlip flips each byte of a small valid snapshot in
// turn. Any flip either fails with a typed error or — if it lands in header
// padding — still decodes the identical store. Either way: no panic, no
// silently different result.
func TestDecodeSurvivesEveryBitFlip(t *testing.T) {
	c := tree.NewCorpus()
	c.Add(tree.Figure1())
	s := relstore.Build(c, relstore.SchemeInterval)
	valid, err := Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	want := s.Parts()
	for i := 0; i < len(valid); i++ {
		data := append([]byte(nil), valid...)
		data[i] ^= 0x55
		loaded, err := Decode(data)
		if err != nil {
			if !IsFormatError(err) {
				t.Fatalf("flip at %d: err = %v, want a typed format error", i, err)
			}
			continue
		}
		if !partsEqual(loaded.Parts(), want) {
			t.Fatalf("flip at %d decoded a different store", i)
		}
	}
}
