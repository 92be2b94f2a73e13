package rescache

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzDisk drives the disk tier with fuzzer-chosen keys and values,
// optionally smashing on-disk state between operations, and checks the
// invariants the server leans on: a stored value reads back byte-identical
// or not at all (never silently wrong), a re-put replaces the value,
// corruption is detected by re-hash, and the tier keeps serving after
// arbitrary damage.
func FuzzDisk(f *testing.F) {
	f.Add([]byte("k"), []byte("blob one"), []byte("blob two"), byte(0), false)
	f.Add([]byte("another key"), []byte(`{"schema":1}`+"\n"), []byte(`{"schema":1}`+"\n"), byte(7), true)
	f.Add([]byte(""), []byte(""), []byte("x"), byte(255), false)
	f.Add(bytes.Repeat([]byte{0xff}, 80), bytes.Repeat([]byte{0x00}, 300), []byte{}, byte(128), true)

	f.Fuzz(func(t *testing.T, keyRaw, blob, blob2 []byte, flip byte, reopen bool) {
		dir := t.TempDir()
		d, err := OpenDisk(dir, 1<<16)
		if err != nil {
			t.Fatalf("OpenDisk: %v", err)
		}
		defer d.Close()
		key := string(keyRaw)

		if _, ok := d.Get(key); ok {
			t.Fatal("hit on an empty disk tier")
		}
		if err := d.Put(key, blob); err != nil {
			t.Fatalf("Put: %v", err)
		}
		got, ok := d.Get(key)
		if !ok {
			t.Fatal("miss immediately after Put")
		}
		if !bytes.Equal(got, blob) {
			t.Fatalf("read back %d bytes, stored %d", len(got), len(blob))
		}

		if reopen {
			d.Close()
			if d, err = OpenDisk(dir, 1<<16); err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer d.Close()
			if got, ok := d.Get(key); !ok || !bytes.Equal(got, blob) {
				t.Fatalf("blob lost or changed across reopen (ok=%v)", ok)
			}
		}

		// A re-put under the same key replaces the first value: it is never
		// read back again (unless the two values are equal).
		if err := d.Put(key, blob2); err != nil {
			t.Fatalf("re-Put: %v", err)
		}
		if got, ok := d.Get(key); !ok || !bytes.Equal(got, blob2) {
			t.Fatalf("re-put value not served: ok=%v, got %d bytes, want %d", ok, len(got), len(blob2))
		}
		if entries, size, _, _, _ := d.Stats(); entries != 1 || size != int64(len(blob2)) {
			t.Fatalf("after a re-put: %d entries of %d bytes, want 1 of %d", entries, size, len(blob2))
		}

		// Corrupt the stored entry at a fuzzer-chosen position: the read
		// path must detect the damage (never serve wrong bytes) and keep
		// working.
		entryPath := filepath.Join(dir, "entries", normKey(key))
		raw, err := os.ReadFile(entryPath)
		if err != nil {
			t.Fatalf("read entry file: %v", err)
		}
		raw[int(flip)%len(raw)] ^= 0x01
		if err := os.WriteFile(entryPath, raw, 0o644); err != nil {
			t.Fatalf("rewrite entry: %v", err)
		}
		if served, ok := d.Get(key); ok {
			t.Fatalf("served a damaged entry: %q", served)
		}
		// Re-put must restore service regardless of what eviction did.
		if err := d.Put(key, blob); err != nil {
			t.Fatalf("re-Put after damage: %v", err)
		}
		if got, ok := d.Get(key); !ok || !bytes.Equal(got, blob) {
			t.Fatalf("disk tier did not recover after corruption + re-put (ok=%v)", ok)
		}
	})
}
