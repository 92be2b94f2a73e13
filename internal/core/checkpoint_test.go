package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
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
			sd, err := NewDriver(v.cfg, Scheme{k, v.opts})
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
			straight := sd.Finish()[0]

			rd, err := ResumeDriver(blob, Scheme{k, v.opts}, v.cfg)
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
			resumed := rd.Finish()[0]
			requireResultsEqual(t, label, resumed, straight)

			sc := sd.inner.walk.cache
			rc := rd.inner.walk.cache
			sc.FlushAll()
			rc.FlushAll()
			if !sc.Backing().Equal(rc.Backing()) {
				t.Errorf("%s: flushed memory images differ", label)
			}
		}
	}
}

// snapshotsOf runs accs straight through a fresh driver of kind on
// smallCfg at batchSize, snapshotting every `every` batches, and returns the
// blobs.
func snapshotsOf(t *testing.T, k Kind, accs []trace.Access, batchSize, every int) [][]byte {
	t.Helper()
	d, err := NewDriver(smallCfg(), Scheme{Kind: k})
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

// TestResumedSnapshotsMatchStraight pins the Set-Buffer across a resume: a
// driver resumed from any snapshot of a checkpointed run takes the same
// snapshots from there on as the run that never stopped, byte for byte, so
// a buffered set's entry and its lines survive a resume mid-residency.
func TestResumedSnapshotsMatchStraight(t *testing.T) {
	// The middle third keeps set 0 buffered and dirty across many batch
	// boundaries: writes to its block, between reads of other sets.
	long := randomStream(33, 1000, 8192)
	for i := range long {
		if i%2 == 0 {
			long[i] = trace.Access{Kind: trace.Write, Addr: uint64(i%32) &^ 7, Size: 8, Data: uint64(i) * 0x9e3779b97f4a7c15}
			continue
		}
		long[i].Kind, long[i].Data = trace.Read, 0
		if long[i].Addr%(16*32) < 32 {
			long[i].Addr += 32
		}
	}
	stream := append(append(randomStream(31, 1000, 8192), long...), randomStream(32, 1000, 8192)...)
	for _, k := range Kinds() {
		straight := snapshotsOf(t, k, stream, 97, 1)
		for i := 0; i < len(straight)-1; i++ {
			d, err := ResumeDriver(straight[i], Scheme{Kind: k}, smallCfg())
			if err != nil {
				t.Fatal(err)
			}
			var blobs [][]byte
			d.CheckpointEvery(1, func(blob []byte, _ uint64) error {
				blobs = append(blobs, blob)
				return nil
			})
			if _, err := d.Drain(context.Background(), trace.FromSlice(stream), 0, 97); err != nil {
				t.Fatal(err)
			}
			want := straight[i+1:]
			if len(blobs) != len(want) {
				t.Fatalf("%v from snapshot %d: %d snapshots, want %d", k, i, len(blobs), len(want))
			}
			for j := range blobs {
				if !bytes.Equal(blobs[j], want[j]) {
					t.Fatalf("%v from snapshot %d: snapshot %d differs from the straight run's", k, i, i+1+j)
				}
			}
		}
	}
}

// resume restores a blob of snapshotsOf(k) and drains s through it.
func resume(blob []byte, k Kind, s trace.Stream, max int) ([]Result, error) {
	d, err := ResumeDriver(blob, Scheme{Kind: k}, smallCfg())
	if err != nil {
		return nil, err
	}
	return d.Drain(context.Background(), s, max, 0)
}

// TestResumeAgainstWrongStream pins the fail-closed behaviour when the
// resumed stream is shorter than the snapshot position.
func TestResumeAgainstWrongStream(t *testing.T) {
	stream := randomStream(5, 3000, 4096)
	blobs := snapshotsOf(t, RMW, stream, 256, 1)
	last := blobs[len(blobs)-1]
	_, err := resume(last, RMW, trace.FromSlice(stream[:100]), 0)
	if !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("short stream: err = %v, want ErrBadCheckpoint", err)
	}
	// A budget below the snapshot position is equally unresumable.
	_, err = resume(last, RMW, trace.FromSlice(stream), 100)
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
	sc, cfg := Scheme{Kind: WGRB}, smallCfg()
	if _, err := ResumeDriver(nil, sc, cfg); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("nil blob: err = %v, want ErrBadCheckpoint", err)
	}
	for cut := 0; cut < len(blob); cut += 91 {
		if _, err := ResumeDriver(blob[:cut], sc, cfg); !errors.Is(err, ErrBadCheckpoint) {
			t.Fatalf("truncation at %d: err = %v, want ErrBadCheckpoint", cut, err)
		}
	}
	for off := 0; off < len(blob); off += 137 {
		mut := bytes.Clone(blob)
		mut[off] ^= 0x5a
		// A flip may land in a data byte and still decode; the contract is
		// no panic and no non-wrapped error.
		if _, err := ResumeDriver(mut, sc, cfg); err != nil && !errors.Is(err, ErrBadCheckpoint) {
			t.Fatalf("flip at %d: err = %v, want ErrBadCheckpoint wrap", off, err)
		}
	}
	if _, err := ResumeDriver(append(bytes.Clone(blob), 0), sc, cfg); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("trailing byte: err = %v, want ErrBadCheckpoint", err)
	}
}

// TestResumeOlderVersion pins what an upgrade does to a checkpoint journaled
// by an older build: a blob whose version field reads 1 is refused with
// ErrBadCheckpoint, naming its version, so the caller recomputes from access
// zero instead of misreading a layout this build no longer writes.
func TestResumeOlderVersion(t *testing.T) {
	for _, k := range []Kind{RMW, WG, WGRB} {
		blobs := snapshotsOf(t, k, randomStream(13, 2000, 4096), 256, 2)
		old := bytes.Clone(blobs[len(blobs)-1])
		binary.LittleEndian.PutUint16(old[len(ckptMagic):], 1)
		_, err := ResumeDriver(old, Scheme{Kind: k}, smallCfg())
		if !errors.Is(err, ErrBadCheckpoint) || !strings.Contains(err.Error(), "version 1,") {
			t.Errorf("%v: version-1 blob: err = %v, want ErrBadCheckpoint naming version 1", k, err)
		}
	}
}

// TestResumeOtherRun pins that a blob resumes only the run it was taken
// from: offered to a run of another kind, other options or another cache
// shape, ResumeDriver refuses it with ErrBadCheckpoint, so the caller
// recomputes from access zero instead of finishing someone else's run.
func TestResumeOtherRun(t *testing.T) {
	blobs := snapshotsOf(t, WG, randomStream(17, 2000, 4096), 256, 2)
	blob := blobs[len(blobs)-1]
	if _, err := ResumeDriver(blob, Scheme{Kind: WG}, smallCfg()); err != nil {
		t.Fatalf("own run: %v", err)
	}
	bigger := smallCfg()
	bigger.SizeBytes *= 2
	for _, c := range []struct {
		name string
		sc   Scheme
		cfg  cache.Config
	}{
		{"kind", Scheme{Kind: WGRB}, smallCfg()},
		{"options", Scheme{WG, Options{BufferDepth: 2}}, smallCfg()},
		{"cache", Scheme{Kind: WG}, bigger},
	} {
		if _, err := ResumeDriver(blob, c.sc, c.cfg); !errors.Is(err, ErrBadCheckpoint) {
			t.Errorf("other %s: err = %v, want ErrBadCheckpoint", c.name, err)
		}
	}
}
