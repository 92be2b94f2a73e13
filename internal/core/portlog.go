package core

import (
	"context"
	"fmt"

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

// eventsProvider is satisfied by every controller in this package (via
// base); it exposes the live event ledger and cache geometry so a wrapper
// can compute per-request deltas and bank indices.
type eventsProvider interface {
	events() *sram.Array
	geometry() cache.Geometry
}

func (b *base) events() *sram.Array      { return b.array }
func (b *base) geometry() cache.Geometry { return b.cache.Geometry() }

// LoggedController wraps a Controller and appends one PortOp per request to
// a caller-owned slice.
type LoggedController struct {
	Controller
	arr  *sram.Array
	geom cache.Geometry
	log  *[]PortOp
}

// NewLogged wraps ctrl (which must be a controller from this package) so
// every Access appends a PortOp to log.
func NewLogged(ctrl Controller, log *[]PortOp) (*LoggedController, error) {
	ep, ok := ctrl.(eventsProvider)
	if !ok {
		return nil, fmt.Errorf("core: controller %T does not expose its event ledger", ctrl)
	}
	return &LoggedController{Controller: ctrl, arr: ep.events(), geom: ep.geometry(), log: log}, nil
}

// Access forwards the request and records the array-operation delta.
func (l *LoggedController) Access(a trace.Access) uint64 {
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

// RunLogged is Run plus port-op capture: it returns the result and the
// per-request operation log.
func RunLogged(kind Kind, cfg cache.Config, opts Options, s trace.Stream, max int) (Result, []PortOp, error) {
	d, err := NewDriver(kind, cfg, opts)
	if err != nil {
		return Result{}, nil, err
	}
	var log []PortOp
	logged, err := NewLogged(d.ctrl, &log)
	if err != nil {
		return Result{}, nil, err
	}
	d.ctrl = logged
	res, err := d.Drain(context.TODO(), s, max, 0)
	if err != nil {
		return Result{}, nil, err
	}
	return res, log, nil
}
