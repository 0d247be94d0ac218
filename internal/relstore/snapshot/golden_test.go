package snapshot

import (
	"bytes"
	"flag"
	"os"
	"testing"

	"lpath/internal/relstore"
	"lpath/internal/tree"
)

var updateGolden = flag.Bool("update", false, "regenerate testdata/smoke.lpx")

const goldenPath = "../../../testdata/smoke.lpx"
const goldenSource = "../../../testdata/smoke.mrg"

// TestGoldenSnapshot pins the on-disk format: building the committed smoke
// corpus and encoding it must reproduce testdata/smoke.lpx byte for byte.
// If this fails because the format changed, bump Version and regenerate
// deliberately with:
//
//	go test ./internal/relstore/snapshot -run TestGoldenSnapshot -update
func TestGoldenSnapshot(t *testing.T) {
	src, err := os.Open(goldenSource)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	c, err := tree.ReadAll(src)
	if err != nil {
		t.Fatal(err)
	}
	data, err := Encode(relstore.Build(c, relstore.SchemeInterval))
	if err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.WriteFile(goldenPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", goldenPath, len(data))
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("encoding %s produced %d bytes that differ from the committed %s (%d bytes); "+
			"a format change must bump Version and regenerate with -update",
			goldenSource, len(data), goldenPath, len(want))
	}
	// The committed golden loads into a store equivalent to a fresh build.
	loaded, err := Decode(want)
	if err != nil {
		t.Fatal(err)
	}
	fresh := relstore.Build(c, relstore.SchemeInterval)
	if !partsEqual(loaded.Parts(), fresh.Parts()) {
		t.Error("golden snapshot decodes to a different store than a fresh build")
	}
	if trees := loaded.Forest(); trees.Len() != c.Len() {
		t.Errorf("golden snapshot has %d trees, corpus has %d", trees.Len(), c.Len())
	}
}
