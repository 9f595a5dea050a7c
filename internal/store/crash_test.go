package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// memFS is an in-memory FS that logs every write, file Sync, truncate,
// create, rename, remove and SyncDir, and after each one records what a
// crash at that point would leave on disk. Its crash model: a file's
// bytes are durable as of its last Sync, and a created, renamed or removed
// name is durable only after a SyncDir of its directory (the store keeps
// every file in one directory). Bytes written after the last Sync may
// survive in part: crashImage.state keeps a chosen prefix of that tail.
type memFS struct {
	mu      sync.Mutex
	live    map[string]*memInode // the namespace now
	durable map[string]*memInode // the namespace as of the last SyncDir
	log     []string             // log[k] names the (k+1)-th operation
	images  []crashImage         // images[k]: the disk after k operations
	// shortNext makes the next write persist half its bytes and fail.
	shortNext bool
}

type memInode struct {
	data   []byte // current contents
	synced []byte // contents as of the last Sync
}

// crashImage is the durable namespace at one point, with each file's
// synced and current contents.
type crashImage map[string]struct{ synced, data []byte }

func newMemFS() *memFS {
	fs := &memFS{live: map[string]*memInode{}, durable: map[string]*memInode{}}
	fs.images = append(fs.images, fs.image())
	return fs
}

// memFSFrom is a freshly booted disk holding files, all of them durable.
func memFSFrom(files map[string][]byte) *memFS {
	fs := newMemFS()
	for name, b := range files {
		ino := &memInode{data: bytes.Clone(b), synced: bytes.Clone(b)}
		fs.live[name], fs.durable[name] = ino, ino
	}
	return fs
}

func (fs *memFS) image() crashImage {
	im := crashImage{}
	for name, ino := range fs.durable {
		im[name] = struct{ synced, data []byte }{bytes.Clone(ino.synced), bytes.Clone(ino.data)}
	}
	return im
}

// note logs one operation and the crash image it leaves. Caller holds mu.
func (fs *memFS) note(format string, args ...any) {
	fs.log = append(fs.log, fmt.Sprintf(format, args...))
	fs.images = append(fs.images, fs.image())
}

// state is the disk a crash leaves: every durable name with its synced
// bytes, plus keep(n) bytes of an unsynced tail of n bytes that extends
// them. A file whose current bytes do not extend its synced ones keeps
// the synced bytes.
func (im crashImage) state(keep func(n int) int) map[string][]byte {
	out := make(map[string][]byte, len(im))
	for name, f := range im {
		b := bytes.Clone(f.synced)
		if tail := len(f.data) - len(f.synced); tail > 0 && bytes.HasPrefix(f.data, f.synced) {
			b = append(b, f.data[len(f.synced):len(f.synced)+keep(tail)]...)
		}
		out[name] = b
	}
	return out
}

func (fs *memFS) MkdirAll(string, os.FileMode) error { return nil }

func (fs *memFS) OpenFile(name string, flag int, _ os.FileMode) (File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	ino, ok := fs.live[name]
	switch {
	case !ok && flag&os.O_CREATE == 0:
		return nil, &os.PathError{Op: "open", Path: name, Err: os.ErrNotExist}
	case !ok:
		ino = &memInode{}
		fs.live[name] = ino
		fs.note("create %s", filepath.Base(name))
	case flag&(os.O_CREATE|os.O_EXCL) == os.O_CREATE|os.O_EXCL:
		return nil, &os.PathError{Op: "open", Path: name, Err: os.ErrExist}
	}
	if flag&os.O_TRUNC != 0 && len(ino.data) > 0 {
		ino.data = nil
		fs.note("truncate %s to 0", filepath.Base(name))
	}
	return &memFile{fs: fs, name: filepath.Base(name), ino: ino}, nil
}

func (fs *memFS) Glob(pattern string) ([]string, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var out []string
	for name := range fs.live {
		if ok, err := filepath.Match(pattern, name); err != nil {
			return nil, err
		} else if ok {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out, nil
}

func (fs *memFS) Rename(oldpath, newpath string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	ino, ok := fs.live[oldpath]
	if !ok {
		return &os.PathError{Op: "rename", Path: oldpath, Err: os.ErrNotExist}
	}
	fs.live[newpath] = ino
	delete(fs.live, oldpath)
	fs.note("rename %s %s", filepath.Base(oldpath), filepath.Base(newpath))
	return nil
}

func (fs *memFS) Remove(name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.live[name]; !ok {
		return &os.PathError{Op: "remove", Path: name, Err: os.ErrNotExist}
	}
	delete(fs.live, name)
	fs.note("remove %s", filepath.Base(name))
	return nil
}

func (fs *memFS) SyncDir(string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.durable = maps.Clone(fs.live)
	fs.note("syncdir")
	return nil
}

// memFile is an open handle on one inode; it keeps the inode across a
// rename or removal of its name, as a POSIX descriptor does.
type memFile struct {
	fs   *memFS
	name string
	ino  *memInode
	pos  int64
}

func (f *memFile) Read(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.pos >= int64(len(f.ino.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.ino.data[f.pos:])
	f.pos += int64(n)
	return n, nil
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if off >= int64(len(f.ino.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.ino.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *memFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	short := f.fs.shortNext
	if short {
		f.fs.shortNext = false
		p = p[:len(p)/2]
	}
	if end := f.pos + int64(len(p)); end > int64(len(f.ino.data)) {
		f.ino.data = append(f.ino.data, make([]byte, end-int64(len(f.ino.data)))...)
	}
	n := copy(f.ino.data[f.pos:], p)
	f.pos += int64(n)
	if short {
		f.fs.note("short write %s (%d bytes)", f.name, n)
		return n, errors.New("memfs: short write")
	}
	f.fs.note("write %s (%d bytes)", f.name, n)
	return n, nil
}

func (f *memFile) Seek(offset int64, whence int) (int64, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	switch whence {
	case io.SeekCurrent:
		offset += f.pos
	case io.SeekEnd:
		offset += int64(len(f.ino.data))
	}
	f.pos = offset
	return offset, nil
}

func (f *memFile) Stat() (os.FileInfo, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	return memInfo{name: f.name, size: int64(len(f.ino.data))}, nil
}

func (f *memFile) Sync() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.ino.synced = bytes.Clone(f.ino.data)
	f.fs.note("sync %s", f.name)
	return nil
}

func (f *memFile) Truncate(size int64) error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if size < int64(len(f.ino.data)) {
		f.ino.data = f.ino.data[:size:size]
	} else {
		f.ino.data = append(f.ino.data, make([]byte, size-int64(len(f.ino.data)))...)
	}
	f.fs.note("truncate %s to %d", f.name, size)
	return nil
}

func (f *memFile) Close() error { return nil }

type memInfo struct {
	name string
	size int64
}

func (i memInfo) Name() string       { return i.name }
func (i memInfo) Size() int64        { return i.size }
func (i memInfo) Mode() os.FileMode  { return 0o644 }
func (i memInfo) ModTime() time.Time { return time.Time{} }
func (i memInfo) IsDir() bool        { return false }
func (i memInfo) Sys() any           { return nil }

// TestCrashPoints enumerates the store's crash points in the style of
// ALICE (Pillai et al., OSDI 2014). A scripted workload — Puts across
// segment rotations, a failed append (a short write) and its repair, a GC
// compaction and Puts after it — runs on a memFS. For each operation k,
// and for several lengths of each file's unsynced tail, the disk a crash
// after k leaves is reopened, and:
//
//   - every Put acknowledged by then reads back, byte-identical;
//   - Get never returns a record for another hash, or other bytes;
//   - nothing is quarantined, because a crash only tears tails.
//
// Records GC expires may vanish from the moment the pass starts (GC is
// at-least-once, so they may also survive).
func TestCrashPoints(t *testing.T) {
	const dir = "/store"
	clock := newFakeClock()
	fs := newMemFS()
	opts := func(fs FS) Options {
		return Options{FS: fs, SegmentMaxBytes: 300, Now: clock.Now, Logf: quiet}
	}
	s, err := OpenOptions(dir, opts(fs))
	if err != nil {
		t.Fatal(err)
	}

	want := map[string][]byte{}   // every attempted record's value bytes
	acked := map[string]int{}     // hash -> operations done when Put returned nil
	expiring := map[string]bool{} // records the GC pass drops
	put := func(i int) error {
		key := map[string]any{"cell": i}
		h, err := CanonicalHash(key)
		if err != nil {
			t.Fatal(err)
		}
		v := cellVal{N: i, F: float64(i) * 1.5, S: fmt.Sprintf("v%d", i)}
		want[h], _ = json.Marshal(v)
		if err := s.Put(h, key, v); err != nil {
			return err
		}
		fs.mu.Lock()
		acked[h] = len(fs.log)
		fs.mu.Unlock()
		return nil
	}
	for i := 0; i < 4; i++ {
		if err := put(i); err != nil {
			t.Fatal(err)
		}
	}
	for h := range want {
		expiring[h] = true
	}
	clock.Advance(48 * time.Hour)
	for i := 4; i < 6; i++ {
		if err := put(i); err != nil {
			t.Fatal(err)
		}
	}
	fs.mu.Lock()
	fs.shortNext = true
	fs.mu.Unlock()
	if err := put(6); err == nil {
		t.Fatal("a short write was acknowledged")
	}
	if err := put(7); err != nil {
		t.Fatal(err)
	}
	fs.mu.Lock()
	gcStart := len(fs.log)
	fs.mu.Unlock()
	if st, err := s.GC(GCPolicy{TTL: 24 * time.Hour}); err != nil || st.Dropped != len(expiring) || !st.Compacted {
		t.Fatalf("GC = %+v, %v; want %d dropped by a compaction", st, err, len(expiring))
	}
	for i := 8; i < 11; i++ {
		if err := put(i); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	fs.mu.Lock()
	images, log := fs.images, fs.log
	fs.mu.Unlock()
	if rotations := countPrefix(log, "create seg-"); rotations < 3 {
		t.Fatalf("the script rotated %d segments, want at least 3:\n%v", rotations, log)
	}
	tails := map[string]func(int) int{
		"none":      func(int) int { return 0 },
		"one byte":  func(int) int { return 1 },
		"half":      func(n int) int { return n / 2 },
		"all but 1": func(n int) int { return n - 1 },
		"all":       func(n int) int { return n },
	}
	t.Logf("%d operations, %d crash points x %d unsynced-tail lengths", len(log), len(images), len(tails))
	for k, im := range images {
		at := "before any operation"
		if k > 0 {
			at = fmt.Sprintf("after op %d (%s)", k, log[k-1])
		}
		for tname, keep := range tails {
			r, err := OpenOptions(dir, opts(memFSFrom(im.state(keep))))
			if err != nil {
				t.Fatalf("crash %s, %s of the unsynced tail: reopen: %v", at, tname, err)
			}
			if q := r.Quarantined(); q != 0 {
				t.Errorf("crash %s, %s of the unsynced tail: %d record(s) quarantined", at, tname, q)
			}
			for h, v := range want {
				rec, ok, err := r.Get(h)
				switch {
				case err == nil && ok && (rec.Hash != h || !bytes.Equal(rec.Value, v)):
					t.Errorf("crash %s, %s: Get(%.8s) returned record %.8s = %s", at, tname, h, rec.Hash, rec.Value)
				case acked[h] > 0 && acked[h] <= k && !(expiring[h] && k > gcStart) && (err != nil || !ok):
					t.Errorf("crash %s, %s of the unsynced tail: acknowledged record %.8s lost (%v)", at, tname, h, err)
				}
			}
			r.Close()
		}
	}
}

func countPrefix(lines []string, prefix string) int {
	n := 0
	for _, l := range lines {
		if strings.HasPrefix(l, prefix) {
			n++
		}
	}
	return n
}
