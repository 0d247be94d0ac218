package snapshot

import (
	"fmt"
	"os"

	"lpath/internal/relstore"
	"lpath/internal/tree"
)

// File is a snapshot opened from disk: the decoded store plus the backing
// buffer it aliases. On platforms with mmap the buffer is the mapped file,
// whose pages the kernel shares across processes serving the same corpus;
// validation reads every section once, so all of them are faulted in by the
// time Open returns.
type File struct {
	store *relstore.Store
	data  []byte
	unmap func([]byte) error // nil when the buffer is heap memory
}

// Open maps (or, where mmap is unavailable, reads) the snapshot at path and
// decodes it. The returned store remains valid until Close.
func Open(path string) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	data, unmap, err := mapFile(f, info.Size())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	store, err := Decode(data)
	if err != nil {
		if unmap != nil {
			unmap(data)
		}
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &File{store: store, data: data, unmap: unmap}, nil
}

// Store returns the decoded store. It aliases the mapped file and must not
// be used after Close.
func (f *File) Store() *relstore.Store { return f.store }

// Corpus returns the corpus trees, materializing the whole forest from the
// store's columns on the first call (relstore.Store.Forest). Tree structure
// is heap memory, but tag and attribute strings alias the mapped file and
// must not be used after Close.
func (f *File) Corpus() *tree.Corpus { return f.store.Forest() }

// Size returns the snapshot size in bytes.
func (f *File) Size() int64 { return int64(len(f.data)) }

// Mapped reports whether the snapshot is mmap-backed (as opposed to read
// into heap memory).
func (f *File) Mapped() bool { return f.unmap != nil }

// Close releases the mapping. The store and corpus must not be touched
// afterwards; closing is safe to skip for process-lifetime snapshots (the
// mapping is reclaimed at exit).
func (f *File) Close() error {
	if f.unmap == nil {
		f.data = nil
		return nil
	}
	unmap := f.unmap
	f.unmap = nil
	data := f.data
	f.data = nil
	return unmap(data)
}

// SniffFile reports whether the file at path starts with the snapshot magic.
func SniffFile(path string) (bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return false, err
	}
	defer f.Close()
	prefix := make([]byte, len(Magic))
	n, err := f.Read(prefix)
	if err != nil || n < len(prefix) {
		return false, nil // too short to be a snapshot; not an I/O failure for the caller
	}
	return Sniff(prefix), nil
}
