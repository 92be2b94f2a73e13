package core_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"cache8t/internal/cache"
	"cache8t/internal/core"
	"cache8t/internal/workload"
)

// TestSnapshotEncodingPinned pins the checkpoint bytes themselves, not only
// their round trip: the bytes may move only with a ckptVersion bump, so a
// change to the driver, the cache or the shadow memory that moves one fails
// here. A blob of another version recomputes from access zero. The
// constants are version 2's: RMW's blob is version 1's with only its
// version field changed, and the WG family's drops the buffered row.
func TestSnapshotEncodingPinned(t *testing.T) {
	pins := []struct {
		kind   core.Kind
		bytes  int
		sha256 string
	}{
		{core.RMW, 298404, "cc41cc2d577da5bf904264c1601dd4435769eeb8d31d39e038a5eea05ccf9d64"},
		{core.WG, 298426, "7ab1b278adf9f58ee46dabe48e8527c37b2bf33d058d8908c621075b09ee8f18"},
		{core.WGRB, 298426, "ba2cc75a8dc1ba941c6cb1899f68cb8a8521b0e70778a050fa2e20673100b837"},
	}
	for _, p := range pins {
		g, err := workload.Stream("bwaves", 3)
		if err != nil {
			t.Fatal(err)
		}
		d, err := core.NewDriver(cache.DefaultConfig(), core.Scheme{Kind: p.kind})
		if err != nil {
			t.Fatal(err)
		}
		var last []byte
		d.CheckpointEvery(5, func(blob []byte, _ uint64) error {
			last = blob
			return nil
		})
		if _, err := d.Drain(context.Background(), g, 60000, 0); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(last)
		if len(last) != p.bytes || hex.EncodeToString(sum[:]) != p.sha256 {
			t.Errorf("%v: last snapshot is %d bytes, sha256 %x; pinned %d bytes, %s",
				p.kind, len(last), sum, p.bytes, p.sha256)
		}
	}
}
