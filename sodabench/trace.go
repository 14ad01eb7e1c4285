package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/soda"
)

// Leg kinds: one call into a soda.Conn, as the client sees it. A
// GetData leg ends at its Initial delivery; what follows is relay
// waiting, which belongs to the client.
const (
	legGetTag = iota
	legPutData
	legGetData
	legKinds
)

var legNames = [legKinds]string{"rpc.get_tag", "rpc.put_data", "rpc.get_data_initial"}

type opKey struct{}

type leg struct {
	kind       int
	server     int
	start, end int64 // ns since the tracer's base; end 0 while in flight
}

// opTrace is the span of one Write or Read and its legs. Legs run on
// the client's pooled goroutines and may outlive the op (stragglers),
// so the span is guarded by mu.
type opTrace struct {
	id    uint64
	read  bool
	start int64
	mu    sync.Mutex
	done  bool
	legs  []leg
}

// tracer owns the spans of one traced window. Per-op figures are
// folded in by the client that ran the op; legs that end after their
// op are folded in under mu.
type tracer struct {
	base time.Time
	seq  atomic.Uint64

	legCalls   [legKinds]atomic.Int64
	legErrors  atomic.Int64
	deliveries atomic.Int64 // deliveries carrying an element

	mu        sync.Mutex
	readSelf  []int64
	writeSelf []int64
	legNs     [legKinds][]int64
	busyNs    int64
	spans     []spanRecord // first maxLoggedOps ops, written at exit
}

// maxLoggedOps bounds the span log kept in memory.
const maxLoggedOps = 4096

type spanRecord struct {
	ID     uint64 `json:"id,omitempty"`     // ops only
	Parent uint64 `json:"parent,omitempty"` // legs only
	Name   string `json:"name"`
	Server int    `json:"server"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (tr *tracer) now() int64 { return int64(time.Since(tr.base)) }

func (tr *tracer) begin(read bool) *opTrace {
	return &opTrace{id: tr.seq.Add(1), read: read, start: tr.now()}
}

// end closes an op span: it computes the op's self time (span minus
// the union of its legs, in-flight legs counting up to the op's end)
// and folds the op's finished legs into the layer figures. A nil
// tracer is the untraced run.
func (tr *tracer) end(op *opTrace, err error) {
	if tr == nil {
		return
	}
	end := tr.now()
	op.mu.Lock()
	op.done = true
	legs := slices.Clone(op.legs)
	op.mu.Unlock()

	ivs := make([][2]int64, len(legs))
	for i, l := range legs {
		e := l.end
		if e == 0 || e > end {
			e = end
		}
		ivs[i] = [2]int64{l.start, e}
	}
	self := (end - op.start) - unionLen(ivs)

	tr.mu.Lock()
	defer tr.mu.Unlock()
	if err == nil {
		if op.read {
			tr.readSelf = append(tr.readSelf, self)
		} else {
			tr.writeSelf = append(tr.writeSelf, self)
		}
	}
	for _, l := range legs {
		if l.end != 0 {
			tr.foldLegLocked(l)
		}
	}
	if op.id <= maxLoggedOps {
		name := "client.write"
		if op.read {
			name = "client.read"
		}
		tr.spans = append(tr.spans, spanRecord{ID: op.id, Name: name, Server: -1, Start: op.start, End: end})
		for _, l := range legs {
			tr.spans = append(tr.spans, spanRecord{Parent: op.id, Name: legNames[l.kind], Server: l.server, Start: l.start, End: l.end})
		}
	}
}

func (tr *tracer) foldLegLocked(l leg) {
	d := l.end - l.start
	tr.legNs[l.kind] = append(tr.legNs[l.kind], d)
	tr.busyNs += d
}

// legStart opens a leg span under the op carried by ctx.
func (tr *tracer) legStart(ctx context.Context, kind, server int) (*opTrace, int) {
	tr.legCalls[kind].Add(1)
	op, _ := ctx.Value(opKey{}).(*opTrace)
	if op == nil {
		return nil, 0
	}
	op.mu.Lock()
	defer op.mu.Unlock()
	op.legs = append(op.legs, leg{kind: kind, server: server, start: tr.now()})
	return op, len(op.legs) - 1
}

// legEnd closes a leg span; a leg that ends after its op is folded in
// here, since its op's client has moved on.
func (tr *tracer) legEnd(op *opTrace, i int, err error) {
	if err != nil && !errors.Is(err, context.Canceled) {
		tr.legErrors.Add(1)
	}
	if op == nil {
		return
	}
	end := tr.now()
	op.mu.Lock()
	if op.legs[i].end != 0 {
		op.mu.Unlock()
		return
	}
	op.legs[i].end = end
	l, late := op.legs[i], op.done
	op.mu.Unlock()
	if late {
		tr.mu.Lock()
		tr.foldLegLocked(l)
		tr.mu.Unlock()
	}
}

// writeSpans writes the span log as JSON lines.
func (tr *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	tr.mu.Lock()
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			tr.mu.Unlock()
			f.Close()
			return err
		}
	}
	tr.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// unionLen is the total length covered by a set of intervals.
func unionLen(ivs [][2]int64) int64 {
	slices.SortFunc(ivs, func(a, b [2]int64) int {
		switch {
		case a[0] < b[0]:
			return -1
		case a[0] > b[0]:
			return 1
		}
		return 0
	})
	var total, curS, curE int64
	open := false
	for _, iv := range ivs {
		if iv[1] <= iv[0] {
			continue
		}
		if !open || iv[0] > curE {
			if open {
				total += curE - curS
			}
			curS, curE, open = iv[0], iv[1], true
		} else if iv[1] > curE {
			curE = iv[1]
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// tracedConn is a soda.Conn decorator that records a child span per
// GetTag, PutData and GetData leg. Every other call passes through.
type tracedConn struct {
	soda.Conn
	tr *tracer
}

func traceConns(conns []soda.Conn, tr *tracer) []soda.Conn {
	out := make([]soda.Conn, len(conns))
	for i, c := range conns {
		out[i] = &tracedConn{Conn: c, tr: tr}
	}
	return out
}

func (c *tracedConn) GetTag(ctx context.Context, key string) (soda.Tag, error) {
	op, i := c.tr.legStart(ctx, legGetTag, c.Index())
	t, err := c.Conn.GetTag(ctx, key)
	c.tr.legEnd(op, i, err)
	return t, err
}

func (c *tracedConn) PutData(ctx context.Context, key string, t soda.Tag, elem []byte, vlen int) error {
	op, i := c.tr.legStart(ctx, legPutData, c.Index())
	err := c.Conn.PutData(ctx, key, t, elem, vlen)
	c.tr.legEnd(op, i, err)
	return err
}

func (c *tracedConn) GetData(ctx context.Context, key, readerID string, deliver func(soda.Delivery)) error {
	op, i := c.tr.legStart(ctx, legGetData, c.Index())
	err := c.Conn.GetData(ctx, key, readerID, func(d soda.Delivery) {
		if d.Initial {
			c.tr.legEnd(op, i, nil)
		}
		if len(d.Elem) > 0 {
			c.tr.deliveries.Add(1)
		}
		deliver(d)
	})
	// A stream that failed before its Initial delivery ends the leg
	// here; after it, legEnd is a no-op.
	c.tr.legEnd(op, i, err)
	return err
}
