package core

import (
	"context"

	"cache8t/internal/cache"
	"cache8t/internal/sram"
	"cache8t/internal/trace"
)

// PortOp describes the array activity one demand request triggered — the
// unit the cycle-accurate port simulator in internal/timing replays. A
// demand read is one ReadRows; an RMW write is one ReadRows plus one
// WriteRows (and this coupling is exactly why RMW blocks 1R+1W operation);
// a grouped write is all zeros; a bypassed read is one SetBufOps.
type PortOp struct {
	// IsRead marks demand reads (the core stalls on their completion).
	IsRead bool
	// Gap is the number of non-memory instructions preceding the request.
	Gap uint32
	// ReadRows, WriteRows, and SetBufOps count array row reads, array row
	// writes, and Set-Buffer accesses performed for this request.
	ReadRows  uint16
	WriteRows uint16
	SetBufOps uint16
	// Bank is the sub-array the request's row lives in (set index modulo
	// the sub-array count). The banked simulator uses it to model
	// sub-array-local write-backs (Park et al.).
	Bank uint16
}

// logged wraps a controller so every Access appends a PortOp to a
// caller-owned slice.
type logged struct {
	Controller
	arr  *sram.Array
	geom cache.Geometry
	log  *[]PortOp
}

// newLogged wraps c so every Access appends a PortOp to log.
func newLogged(c *controller, log *[]PortOp) *logged {
	return &logged{Controller: c, arr: c.accts[0].book().array, geom: c.walk.geom, log: log}
}

// Access forwards the request and records the array-operation delta.
func (l *logged) Access(a trace.Access) uint64 {
	r0 := l.arr.Count(sram.EvRowRead)
	w0 := l.arr.Count(sram.EvRowWrite)
	s0 := l.arr.Count(sram.EvSetBufRead) + l.arr.Count(sram.EvSetBufWrite)
	v := l.Controller.Access(a)
	cfg := l.arr.Config()
	rowsPerBank := cfg.Rows / cfg.Subarrays
	*l.log = append(*l.log, PortOp{
		IsRead:    a.Kind == trace.Read,
		Gap:       a.Gap,
		ReadRows:  uint16(l.arr.Count(sram.EvRowRead) - r0),
		WriteRows: uint16(l.arr.Count(sram.EvRowWrite) - w0),
		SetBufOps: uint16(l.arr.Count(sram.EvSetBufRead) + l.arr.Count(sram.EvSetBufWrite) - s0),
		Bank:      uint16(l.geom.SetIndex(a.Addr) / rowsPerBank),
	})
	return v
}

// RunLogged runs one scheme serially over up to max accesses of s (max <= 0
// drains the stream) and also returns the per-request operation log. It
// feeds the walk access by access, since the log needs each access's
// array-operation delta, so it is the one run that keeps to one scheme.
func RunLogged(ctx context.Context, kind Kind, cfg cache.Config, opts Options, s trace.Stream, max int) (Result, []PortOp, error) {
	d, err := NewDriver(cfg, Scheme{kind, opts})
	if err != nil {
		return Result{}, nil, err
	}
	var log []PortOp
	d.ctrl = newLogged(d.inner, &log)
	res, err := d.Drain(ctx, s, max, 0)
	if err != nil {
		return Result{}, nil, err
	}
	return res[0], log, nil
}
