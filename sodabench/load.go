package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/soda"
)

// checkError is a failed correctness check: the run fails with a
// non-zero exit rather than reporting a metric.
type checkError struct{ msg string }

func (e *checkError) Error() string { return e.msg }

func violation(format string, args ...any) error {
	return &checkError{msg: fmt.Sprintf(format, args...)}
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Values are self-describing: key index, writer, sequence number, a
// filler, and a CRC-32C over all of it, so every read value can be
// verified without remembering what was written.
const (
	offKey    = 0
	offWriter = 4
	offSeq    = 5
	headerLen = 13
	crcLen    = 4
)

// client is one closed-loop caller: a Writer and a Reader over the
// cluster's conns (tw/tr over the traced conns), its own operation
// stream, and the tags it has seen per key.
type client struct {
	id        int
	name      string
	w, tw     *soda.Writer
	r, tr     *soda.Reader
	rng       *rand.Rand
	val       []byte
	seq       uint64
	lastWrite []soda.Tag // tag this client's last Write of each key returned
	lastRead  []soda.Tag // tag of this client's last Read of each key
}

func newClient(id int, b *bench, codec *soda.Codec, conns, traced []soda.Conn) (*client, error) {
	c := &client{
		id:        id,
		name:      "c" + strconv.Itoa(id),
		rng:       rand.New(rand.NewSource(b.seed*1000003 + int64(id))),
		val:       make([]byte, b.w.vsize),
		lastWrite: make([]soda.Tag, b.w.keys),
		lastRead:  make([]soda.Tag, b.w.keys),
	}
	c.rng.Read(c.val[headerLen : len(c.val)-crcLen])
	var ropts []soda.ReaderOption
	if b.w.readErrors > 0 {
		ropts = append(ropts, soda.WithReadErrors(b.w.readErrors))
	}
	var err error
	if c.w, err = soda.NewWriter(c.name, codec, conns); err != nil {
		return nil, err
	}
	if c.tw, err = soda.NewWriter(c.name, codec, traced); err != nil {
		return nil, err
	}
	if c.r, err = soda.NewReader(c.name, codec, conns, ropts...); err != nil {
		return nil, err
	}
	if c.tr, err = soda.NewReader(c.name, codec, traced, ropts...); err != nil {
		return nil, err
	}
	return c, nil
}

// nextValue stamps the client's value buffer for key. Writers copy the
// value into their encode scratch, so the buffer is free again once
// Write returns.
func (c *client) nextValue(key int) []byte {
	c.seq++
	binary.LittleEndian.PutUint32(c.val[offKey:], uint32(key))
	c.val[offWriter] = byte(c.id)
	binary.LittleEndian.PutUint64(c.val[offSeq:], c.seq)
	body := c.val[:len(c.val)-crcLen]
	binary.LittleEndian.PutUint32(c.val[len(body):], crc32.Checksum(body, castagnoli))
	return c.val
}

// verifyValue checks a read value against the key it was read from and
// the writer its tag names.
func verifyValue(b *bench, key int, res soda.ReadResult) error {
	v := res.Value
	if len(v) != b.w.vsize {
		return violation("key %s: read %d bytes, want %d (tag %v)", b.keys[key], len(v), b.w.vsize, res.Tag)
	}
	body := v[:len(v)-crcLen]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(v[len(body):]) {
		return violation("key %s: value checksum mismatch (tag %v)", b.keys[key], res.Tag)
	}
	if got := int(binary.LittleEndian.Uint32(v[offKey:])); got != key {
		return violation("key %s: value was written for key index %d", b.keys[key], got)
	}
	if w := "c" + strconv.Itoa(int(v[offWriter])); w != res.Tag.Writer {
		return violation("key %s: value written by %s under tag %v", b.keys[key], w, res.Tag)
	}
	return nil
}

// tally is one client's record of one measured window.
type tally struct {
	reads, writes []time.Duration // latencies of the operations that succeeded
	attempted     int
	failed        int
	located       int   // reads whose Corrupt named the rotted server
	err           error // first correctness violation
}

func (t *tally) merge(o *tally) {
	t.reads = append(t.reads, o.reads...)
	t.writes = append(t.writes, o.writes...)
	t.attempted += o.attempted
	t.failed += o.failed
	t.located += o.located
	if t.err == nil {
		t.err = o.err
	}
}

// logFailure prints the run's first few failed operations to stderr.
func (b *bench) logFailure(c *client, op, key string, err error) {
	b.failMu.Lock()
	defer b.failMu.Unlock()
	if b.failures++; b.failures <= 5 {
		fmt.Fprintf(os.Stderr, "sodabench: %s %s %s failed: %v\n", c.name, op, key, err)
	}
}

// do runs one operation to completion or to its deadline and checks
// its result.
func (c *client) do(b *bench, t *tally, tr *tracer) {
	key := c.rng.Intn(b.w.keys)
	read := c.rng.Float64() < b.w.readFrac
	w, r := c.w, c.r
	if tr != nil {
		w, r = c.tw, c.tr
	}
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	var op *opTrace
	if tr != nil {
		op = tr.begin(read)
		ctx = context.WithValue(ctx, opKey{}, op)
	}
	t.attempted++
	start := time.Now()
	if !read {
		tag, err := w.Write(ctx, b.keys[key], c.nextValue(key))
		lat := time.Since(start)
		tr.end(op, err)
		if err != nil {
			t.failed++
			b.logFailure(c, "write", b.keys[key], err)
			return
		}
		t.writes = append(t.writes, lat)
		if !c.lastWrite[key].Less(tag) || !c.lastRead[key].Less(tag) {
			t.err = violation("key %s: %s wrote under tag %v, not above its last write %v and read %v",
				b.keys[key], c.name, tag, c.lastWrite[key], c.lastRead[key])
		}
		c.lastWrite[key] = tag
		return
	}
	res, err := r.Read(ctx, b.keys[key])
	lat := time.Since(start)
	tr.end(op, err)
	if err != nil {
		t.failed++
		b.logFailure(c, "read", b.keys[key], err)
		return
	}
	t.reads = append(t.reads, lat)
	if res.Tag.Less(c.lastWrite[key]) || res.Tag.Less(c.lastRead[key]) {
		t.err = violation("key %s: %s read tag %v, below its last write %v or read %v",
			b.keys[key], c.name, res.Tag, c.lastWrite[key], c.lastRead[key])
		return
	}
	c.lastRead[key] = res.Tag
	if err := verifyValue(b, key, res); err != nil {
		t.err = err
		return
	}
	for _, s := range res.Corrupt {
		if s != b.w.rot {
			t.err = violation("key %s: read located server %d as corrupt; only server %d is rotted (corrupt=%v)",
				b.keys[key], s, b.w.rot, res.Corrupt)
			return
		}
	}
	if slices.Contains(res.Corrupt, b.w.rot) {
		t.located++
	}
}

// window is one measured stretch of closed-loop load.
type window struct {
	tally
	elapsed       time.Duration
	before, after soda.MetricsSnapshot
}

// runWindow drives the cluster from every client for d and stops each
// at its first operation that ends past d, or at its first
// correctness violation.
func (b *bench) runWindow(d time.Duration, tr *tracer) *window {
	win := &window{before: b.cl.serverTotals()}
	tallies := make([]tally, len(b.clients))
	start := time.Now()
	for i := range tallies {
		tallies[i] = tally{reads: make([]time.Duration, 0, 1<<16), writes: make([]time.Duration, 0, 1<<16)}
	}
	var wg sync.WaitGroup
	stop := start.Add(d)
	for i, c := range b.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := &tallies[i]
			for t.err == nil && time.Now().Before(stop) {
				c.do(b, t, tr)
			}
		}()
	}
	wg.Wait()
	win.elapsed = time.Since(start)
	win.after = b.cl.serverTotals()
	for i := range tallies {
		win.merge(&tallies[i])
	}
	return win
}

// completed is the number of operations that succeeded.
func (w *window) completed() int { return len(w.reads) + len(w.writes) }

// throughput is completed operations per second of the window.
func (w *window) throughput() float64 {
	return float64(w.completed()) / w.elapsed.Seconds()
}
