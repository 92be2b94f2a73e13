package core

import (
	"context"
	"testing"

	"cache8t/internal/cache"
	"cache8t/internal/trace"
)

func TestLoggedControllerRecordsPerRequestOps(t *testing.T) {
	cfg := smallCfg()
	c, err := cache.New(cfg, newMem())
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := newController(c, Scheme{Kind: RMW})
	if err != nil {
		t.Fatal(err)
	}
	if ctrl.Kind() != RMW {
		t.Fatalf("Kind = %v", ctrl.Kind())
	}
	var log []PortOp
	logged := newLogged(ctrl, &log)
	g := c.Geometry()
	logged.Access(trace.Access{Kind: trace.Write, Addr: 0, Size: 8, Data: 1, Gap: 3})
	logged.Access(trace.Access{Kind: trace.Read, Addr: uint64(5 * g.BlockBytes), Size: 8, Gap: 1})
	if len(log) != 2 {
		t.Fatalf("logged %d ops", len(log))
	}
	w, r := log[0], log[1]
	if w.IsRead || w.ReadRows != 1 || w.WriteRows != 1 || w.Gap != 3 {
		t.Errorf("write op = %+v", w)
	}
	if !r.IsRead || r.ReadRows != 1 || r.WriteRows != 0 || r.Gap != 1 {
		t.Errorf("read op = %+v", r)
	}
	// Bank = set / rowsPerBank with 4 sub-arrays over 16 sets -> 4 rows/bank.
	if want := uint16(5 / (g.Sets / 4)); r.Bank != want {
		t.Errorf("read bank = %d, want %d", r.Bank, want)
	}
	logged.Finalize()
}

func TestRunLoggedBasics(t *testing.T) {
	stream := randomStream(7, 500, 4096)
	res, log, err := RunLogged(context.Background(), WGRB, smallCfg(), Options{}, trace.FromSlice(stream), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(log) != len(stream) {
		t.Fatalf("logged %d ops for %d accesses", len(log), len(stream))
	}
	var bypassed int
	for _, op := range log {
		if op.IsRead && op.SetBufOps > 0 {
			bypassed++
		}
	}
	if uint64(bypassed) != res.Counters.BypassedReads {
		t.Errorf("logged bypasses %d != counter %d", bypassed, res.Counters.BypassedReads)
	}
	// Bad config propagates.
	bad := smallCfg()
	bad.Ways = 3
	if _, _, err := RunLogged(context.Background(), RMW, bad, Options{}, trace.FromSlice(stream), 0); err == nil {
		t.Error("bad config accepted")
	}
	if _, _, err := RunLogged(context.Background(), Kind(99), smallCfg(), Options{}, trace.FromSlice(stream), 0); err == nil {
		t.Error("bad kind accepted")
	}
}
