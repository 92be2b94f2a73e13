package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"cache8t/internal/cache"
	"cache8t/internal/trace"
)

// checkpointVariants are the (config, options) points the memory-image
// property is checked at: the paper baseline shape, the stochastic
// replacement policy (whose shared RNG is the subtlest piece of
// checkpointed state), and the no-write-allocate ablation with a deeper
// Set-Buffer.
func checkpointVariants() []struct {
	label string
	cfg   cache.Config
	opts  Options
} {
	lru := smallCfg()
	random := smallCfg()
	random.Policy = cache.Random
	random.Seed = 42
	noalloc := smallCfg()
	noalloc.Policy = cache.TreePLRU
	noalloc.NoWriteAllocate = true
	return []struct {
		label string
		cfg   cache.Config
		opts  Options
	}{
		{"lru", lru, Options{}},
		{"random-depth2", random, Options{BufferDepth: 2}},
		{"plru-noalloc", noalloc, Options{DisableSilentElision: true, CountFillTraffic: true}},
	}
}

// TestCheckpointResumeMemoryImage drives straight and resumed runs by hand
// so both caches stay inspectable, then compares the flushed memory images
// byte for byte — the part of machine state Result does not carry.
func TestCheckpointResumeMemoryImage(t *testing.T) {
	const n = 5000
	stream := randomStream(23, n, 8192)
	for _, v := range checkpointVariants() {
		for _, k := range Kinds() {
			label := fmt.Sprintf("%v/%s", k, v.label)
			sd, err := NewDriver(k, v.cfg, v.opts)
			if err != nil {
				t.Fatal(err)
			}
			var blob []byte
			for i := 0; i < n; i += 500 {
				sd.Feed(stream[i : i+500])
				if i == n/2 {
					if blob, err = sd.Snapshot(); err != nil {
						t.Fatalf("%s: snapshot: %v", label, err)
					}
				}
			}
			straight := sd.Finish()

			rd, err := ResumeDriver(blob)
			if err != nil {
				t.Fatalf("%s: ResumeDriver: %v", label, err)
			}
			// A snapshot of the freshly restored driver must reproduce the
			// blob byte for byte: restore loses nothing the codec captures.
			reblob, err := rd.Snapshot()
			if err != nil {
				t.Fatalf("%s: re-snapshot: %v", label, err)
			}
			if !bytes.Equal(reblob, blob) {
				t.Errorf("%s: re-snapshot differs from original blob", label)
			}
			rd.Feed(stream[rd.Accesses():])
			resumed := rd.Finish()
			requireResultsEqual(t, label, resumed, straight)

			sc := sd.inner.(baseHolder).baseState().cache
			rc := rd.inner.(baseHolder).baseState().cache
			sc.FlushAll()
			rc.FlushAll()
			if !sc.Backing().Equal(rc.Backing()) {
				t.Errorf("%s: flushed memory images differ", label)
			}
		}
	}
}

// snapshotsOf runs accs straight through a fresh driver of kind at
// batchSize, snapshotting every `every` batches, and returns the blobs.
func snapshotsOf(t *testing.T, k Kind, accs []trace.Access, batchSize, every int) [][]byte {
	t.Helper()
	d, err := NewDriver(k, smallCfg(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var blobs [][]byte
	d.CheckpointEvery(every, func(blob []byte, _ uint64) error {
		blobs = append(blobs, blob)
		return nil
	})
	if _, err := d.Drain(context.Background(), trace.FromSlice(accs), 0, batchSize); err != nil {
		t.Fatal(err)
	}
	return blobs
}

// resume restores blob and drains s through it.
func resume(blob []byte, s trace.Stream, max int) (Result, error) {
	d, err := ResumeDriver(blob)
	if err != nil {
		return Result{}, err
	}
	return d.Drain(context.Background(), s, max, 0)
}

// TestResumeAgainstWrongStream pins the fail-closed behaviour when the
// resumed stream is shorter than the snapshot position.
func TestResumeAgainstWrongStream(t *testing.T) {
	stream := randomStream(5, 3000, 4096)
	blobs := snapshotsOf(t, RMW, stream, 256, 1)
	last := blobs[len(blobs)-1]
	_, err := resume(last, trace.FromSlice(stream[:100]), 0)
	if !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("short stream: err = %v, want ErrBadCheckpoint", err)
	}
	// A budget below the snapshot position is equally unresumable.
	_, err = resume(last, trace.FromSlice(stream), 100)
	if !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("small budget: err = %v, want ErrBadCheckpoint", err)
	}
}

// TestResumeCorruptBlob hammers the decoder with truncations and bit flips:
// it must never panic, and every rejection must wrap ErrBadCheckpoint.
func TestResumeCorruptBlob(t *testing.T) {
	stream := randomStream(9, 2000, 4096)
	blobs := snapshotsOf(t, WGRB, stream, 512, 2)
	blob := blobs[len(blobs)-1]
	if _, err := ResumeDriver(nil); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("nil blob: err = %v, want ErrBadCheckpoint", err)
	}
	for cut := 0; cut < len(blob); cut += 91 {
		if _, err := ResumeDriver(blob[:cut]); !errors.Is(err, ErrBadCheckpoint) {
			t.Fatalf("truncation at %d: err = %v, want ErrBadCheckpoint", cut, err)
		}
	}
	for off := 0; off < len(blob); off += 137 {
		mut := bytes.Clone(blob)
		mut[off] ^= 0x5a
		// A flip may land in a data byte and still decode; the contract is
		// no panic and no non-wrapped error.
		if _, err := ResumeDriver(mut); err != nil && !errors.Is(err, ErrBadCheckpoint) {
			t.Fatalf("flip at %d: err = %v, want ErrBadCheckpoint wrap", off, err)
		}
	}
	if _, err := ResumeDriver(append(bytes.Clone(blob), 0)); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("trailing byte: err = %v, want ErrBadCheckpoint", err)
	}
}
