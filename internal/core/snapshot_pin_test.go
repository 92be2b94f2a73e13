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
// their round trip: a job journaled by one sramd build must resume on the
// next, so a change to the driver, the cache or the shadow memory may not
// move a byte of a snapshot. The constants were taken before the shadow
// memory became a page table.
func TestSnapshotEncodingPinned(t *testing.T) {
	pins := []struct {
		kind   core.Kind
		bytes  int
		sha256 string
	}{
		{core.RMW, 298404, "d69905fc4b20464b05979cb81430c483bbadd585a0742b1e3cc259679df0c808"},
		{core.WG, 298594, "9870401c99291d0e56dde82fdbdf0215f3f481751fb2e312e77195785199ddfa"},
		{core.WGRB, 298594, "66d18658eb496ef484a10891e496bdd1559b29202b09f945b634dc10cc426665"},
	}
	for _, p := range pins {
		g, err := workload.Stream("bwaves", 3)
		if err != nil {
			t.Fatal(err)
		}
		d, err := core.NewDriver(p.kind, cache.DefaultConfig(), core.Options{})
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
