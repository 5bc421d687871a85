package cluster

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func openDisk(t *testing.T, dir string, max int64) *DiskCache {
	t.Helper()
	d, err := OpenDisk(dir, max)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDiskRoundTripAndRestartWarm(t *testing.T) {
	dir := t.TempDir()
	d := openDisk(t, dir, 1<<20)

	key := "exp\x00T2\x00abcd\x00json"
	val := bytes.Repeat([]byte("result "), 100)
	d.Put(key, val)
	got, ok := d.Get(key)
	if !ok || !bytes.Equal(got, val) {
		t.Fatalf("round trip failed: ok=%v", ok)
	}
	if _, ok := d.Get("absent"); ok {
		t.Fatal("absent key reported present")
	}

	// A fresh open over the same directory — the restarted process —
	// serves the same bytes without any Put.
	warm := openDisk(t, dir, 1<<20)
	got, ok = warm.Get(key)
	if !ok || !bytes.Equal(got, val) {
		t.Fatalf("restart not warm: ok=%v", ok)
	}
	st := warm.Stats()
	if st.Entries != 1 || st.Hits != 1 || st.Bytes == 0 {
		t.Errorf("warm stats: %+v", st)
	}

	// Overwriting a key keeps one entry and the new bytes.
	warm.Put(key, []byte("v2"))
	if got, _ := warm.Get(key); string(got) != "v2" {
		t.Errorf("overwrite: got %q", got)
	}
	if st := warm.Stats(); st.Entries != 1 {
		t.Errorf("overwrite duplicated the entry: %+v", st)
	}
}

func TestDiskByteBudgetEviction(t *testing.T) {
	d := openDisk(t, t.TempDir(), 600)
	for i := 0; i < 5; i++ {
		d.Put(fmt.Sprintf("key-%d", i), bytes.Repeat([]byte{byte('a' + i)}, 100))
	}
	st := d.Stats()
	if st.Bytes > 600 {
		t.Errorf("resident bytes %d exceed budget", st.Bytes)
	}
	if st.Evictions == 0 {
		t.Error("no evictions under a 600-byte budget with 5 ~150-byte entries")
	}
	// The most recent entry survives; the oldest is gone.
	if _, ok := d.Get("key-4"); !ok {
		t.Error("most recent entry evicted")
	}
	if _, ok := d.Get("key-0"); ok {
		t.Error("oldest entry still resident past the budget")
	}
	// Oversized values are dropped outright.
	d.Put("huge", bytes.Repeat([]byte("x"), 4096))
	if _, ok := d.Get("huge"); ok {
		t.Error("oversized value stored despite exceeding the budget")
	}
}

// TestDiskCorruptionTolerance is the torn-line idiom applied to cache
// files: truncated values, flipped bytes, garbage headers, and leftover
// temp files are all skipped (and swept), never fatal.
func TestDiskCorruptionTolerance(t *testing.T) {
	dir := t.TempDir()
	d := openDisk(t, dir, 1<<20)
	keep := "keep"
	d.Put(keep, []byte("intact value"))
	d.Put("truncated", bytes.Repeat([]byte("t"), 200))
	d.Put("flipped", bytes.Repeat([]byte("f"), 200))

	// Truncate one file mid-value (a torn write), flip a byte in
	// another (rot), and drop in a garbage file plus a stale temp file.
	mangle := func(key string, f func(b []byte) []byte) {
		path := filepath.Join(dir, fileFor(key))
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, f(b), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	mangle("truncated", func(b []byte) []byte { return b[:len(b)-50] })
	mangle("flipped", func(b []byte) []byte { b[len(b)-1] ^= 0xff; return b })
	os.WriteFile(filepath.Join(dir, "garbage"+cacheExt), []byte("not a header\n"), 0o644)
	os.WriteFile(filepath.Join(dir, tmpPrefix+"stale"), []byte("half a wri"), 0o644)

	// The already-open cache discovers corruption lazily on Get.
	if _, ok := d.Get("truncated"); ok {
		t.Error("truncated entry served")
	}
	if _, ok := d.Get("flipped"); ok {
		t.Error("checksum-failing entry served")
	}
	if got, ok := d.Get(keep); !ok || string(got) != "intact value" {
		t.Error("intact entry lost alongside the corrupt ones")
	}
	if st := d.Stats(); st.Corrupt != 2 {
		t.Errorf("corrupt count = %d, want 2", st.Corrupt)
	}

	// A fresh open sweeps what it can see up front: the garbage file
	// and the temp file go; the intact entry survives.
	re := openDisk(t, dir, 1<<20)
	if got, ok := re.Get(keep); !ok || string(got) != "intact value" {
		t.Error("intact entry lost across reopen")
	}
	if st := re.Stats(); st.Entries != 1 || st.Corrupt == 0 {
		t.Errorf("reopen stats: %+v, want 1 entry and corrupt sweeps", st)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), tmpPrefix) || e.Name() == "garbage"+cacheExt {
			t.Errorf("reopen left %s behind", e.Name())
		}
	}
}

func TestDiskConcurrentAccess(t *testing.T) {
	d := openDisk(t, t.TempDir(), 64<<10)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				key := fmt.Sprintf("key-%d", i%10)
				want := bytes.Repeat([]byte{byte(i % 10)}, 128)
				d.Put(key, want)
				if got, ok := d.Get(key); ok && !bytes.Equal(got, want) {
					t.Errorf("key %s: read bytes differ from the last write", key)
				}
			}
		}()
	}
	wg.Wait()
	if st := d.Stats(); st.Bytes > st.MaxBytes {
		t.Errorf("budget exceeded: %+v", st)
	}

	var nilD *DiskCache
	nilD.Put("k", []byte("v"))
	if _, ok := nilD.Get("k"); ok {
		t.Error("nil DiskCache returned a value")
	}
	if st := nilD.Stats(); st != (DiskStats{}) {
		t.Errorf("nil stats: %+v", st)
	}
}

// TestDiskRejectsHeaderLength: a cache file rewritten after it was
// indexed, with a header length that is negative, huge, or does not match
// the indexed file size, is counted as corrupt on Get — never a panic or
// an unbounded allocation.
func TestDiskRejectsHeaderLength(t *testing.T) {
	for _, n := range []string{"-1", "4611686018427387904", "3"} {
		dir := t.TempDir()
		d := openDisk(t, dir, 1<<20)
		d.Put("k", []byte("value"))
		hdr := `{"key":"k","len":` + n + `,"sum":"` + valueSum([]byte("value")) + `"}` + "\n"
		if err := os.WriteFile(filepath.Join(dir, fileFor("k")), []byte(hdr+"value"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := d.Get("k"); ok {
			t.Errorf("len %s: entry served", n)
		}
		if st := d.Stats(); st.Corrupt != 1 || st.Entries != 0 {
			t.Errorf("len %s: stats %+v, want 1 corrupt and no entries", n, st)
		}
	}
}

// FuzzDiskHeader rewrites an indexed cache file with arbitrary bytes and
// checks that neither the open-time header scan nor Get panics, and that
// whatever either accepts is consistent with the file: readHeader's
// length accounts for the whole file, and Get serves exactly the bytes
// after the header line. Files are written directly rather than through
// Put, whose fsync would hold the fuzzer to a few inputs a second.
func FuzzDiskHeader(f *testing.F) {
	valid := func(key, val string) []byte {
		return []byte(`{"key":"` + key + `","len":` + fmt.Sprint(len(val)) + `,"sum":"` + valueSum([]byte(val)) + `"}` + "\n" + val)
	}
	f.Add(valid("k", "value"))
	f.Add([]byte(`{"key":"k","len":-1,"sum":""}` + "\nvalue"))
	f.Add([]byte(`{"key":"k","len":4611686018427387904,"sum":""}` + "\n"))
	f.Add(append(valid("k", "value"), "trailing"...))
	dir := f.TempDir()
	path := filepath.Join(dir, fileFor("k"))
	f.Fuzz(func(t *testing.T, content []byte) {
		write := func(b []byte) {
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		write(valid("k", "value"))
		d := openDisk(t, dir, 1<<20)
		write(content) // rewritten after OpenDisk indexed it
		if hdr, size, ok := readHeader(path); ok && (hdr.Len < 0 || size != int64(len(content))) {
			t.Fatalf("readHeader accepted len %d for a %d-byte file (size %d)", hdr.Len, len(content), size)
		}
		body := content[bytes.IndexByte(content, '\n')+1:]
		if got, ok := d.Get("k"); ok && !bytes.Equal(got, body) {
			t.Fatalf("Get served %q, file holds %q after the header", got, body)
		}
		// A reopened cache indexes the file by its own header; its Get
		// must hold to the same rule. (A failed Get above removed the
		// file, so write it again.)
		write(content)
		re := openDisk(t, dir, 1<<20)
		hdr, _, ok := readHeader(path)
		if !ok {
			return
		}
		if got, ok := re.Get(hdr.Key); ok && !bytes.Equal(got, body) {
			t.Fatalf("reopened Get served %q, file holds %q after the header", got, body)
		}
	})
}
