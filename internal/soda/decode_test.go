package soda

import (
	"bytes"
	"context"
	"hash/crc32"
	"slices"
	"sync"
	"testing"

	"repro/internal/rs"
)

// checksumConn wraps a Conn and fingerprints every element GetData
// delivers at the moment it is delivered, before the reader sees it, so
// a test can prove afterwards that the reader never wrote one.
type checksumConn struct {
	Conn
	mu   sync.Mutex
	seen []deliveredElem
}

type deliveredElem struct {
	elem []byte
	sum  uint32
}

func (c *checksumConn) GetData(ctx context.Context, key, readerID string, deliver func(Delivery)) error {
	return c.Conn.GetData(ctx, key, readerID, func(d Delivery) {
		if len(d.Elem) > 0 {
			c.mu.Lock()
			c.seen = append(c.seen, deliveredElem{elem: d.Elem, sum: crc32.ChecksumIEEE(d.Elem)})
			c.mu.Unlock()
		}
		deliver(d)
	})
}

// checkUnmutated fails the test if any element delivered through conns
// no longer matches its delivery-time checksum, and returns how many
// elements were checked.
func checkUnmutated(t *testing.T, conns []*checksumConn) int {
	t.Helper()
	checked := 0
	for _, c := range conns {
		c.mu.Lock()
		for _, d := range c.seen {
			if crc32.ChecksumIEEE(d.elem) != d.sum {
				t.Errorf("server %d: a delivered element was written after delivery", c.Index())
			}
			checked++
		}
		c.mu.Unlock()
	}
	return checked
}

// TestReadLeavesDeliveriesUnmutated pins the read path's read-only
// contract: deliveries may alias server storage (Loopback delivers the
// stored element itself), so neither the error-locating decode nor the
// erasure decode may write one, whether it copies, rebuilds an erasure
// or corrects a corrupt element.
func TestReadLeavesDeliveriesUnmutated(t *testing.T) {
	ctx := testCtx(t)
	value := bytes.Repeat([]byte("read-only deliveries "), 200)
	for _, tc := range []struct {
		name       string
		n, k, e, f int
		opts       []rs.Option
		rot, crash []int
		corrupt    []int
	}{
		{name: "err rotted data shard", n: 7, k: 3, e: 1, f: 0, rot: []int{0}, corrupt: []int{0},
			opts: []rs.Option{rs.WithGenerator(rs.GeneratorRSView)}},
		{name: "err rotted and crashed", n: 7, k: 3, e: 1, f: 1, rot: []int{2}, crash: []int{5}, corrupt: []int{2},
			opts: []rs.Option{rs.WithGenerator(rs.GeneratorRSView)}},
		{name: "plain missing data shard", n: 5, k: 3, f: 1, crash: []int{1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			codec, lb := newCluster(t, tc.n, tc.k, tc.opts...)
			// The value lands on every server by hand: a writer returns
			// after n-f acks, and a straggler could leave the rotted
			// server without the element when the reads start.
			tag := Tag{}.Next("w")
			shards, err := codec.EncodeValue(value)
			if err != nil {
				t.Fatal(err)
			}
			for i, c := range lb.Conns() {
				if err := c.PutData(ctx, testKey, tag, shards[i], len(value)); err != nil {
					t.Fatalf("PutData(%d): %v", i, err)
				}
			}
			for _, i := range tc.rot {
				lb.Corrupt(i, FlipByte(7))
			}
			for _, i := range tc.crash {
				lb.Crash(i)
			}
			wrapped := make([]*checksumConn, tc.n)
			conns := make([]Conn, tc.n)
			for i, c := range lb.Conns() {
				wrapped[i] = &checksumConn{Conn: c}
				conns[i] = wrapped[i]
			}
			opts := []ReaderOption{WithReaderFaults(tc.f)}
			if tc.e > 0 {
				opts = append(opts, WithReadErrors(tc.e))
			}
			r := mustReader(t, "r", codec, conns, opts...)
			for i := 0; i < 5; i++ {
				res, err := r.Read(ctx, testKey)
				if err != nil {
					t.Fatalf("Read: %v", err)
				}
				if res.Tag != tag || !bytes.Equal(res.Value, value) {
					t.Fatalf("Read = %v %q..., want %v", res.Tag, res.Value[:16], tag)
				}
				if !slices.Equal(res.Corrupt, tc.corrupt) {
					t.Fatalf("Corrupt = %v, want %v", res.Corrupt, tc.corrupt)
				}
			}
			if checked := checkUnmutated(t, wrapped); checked < 5*tc.k {
				t.Fatalf("only %d deliveries checked", checked)
			}
		})
	}
}

// BenchmarkReadErrLoopback is the read path's layer benchmark: one
// SODA_err read ([7,3], e=1, 64 KiB value, one server rotted) over
// Loopback, so the client coordination and the decode boundary are all
// that is measured — no transport, no durability.
func BenchmarkReadErrLoopback(b *testing.B) {
	const n, k, size = 7, 3, 64 << 10
	codec, err := NewCodec(n, k, rs.WithGenerator(rs.GeneratorRSView))
	if err != nil {
		b.Fatal(err)
	}
	lb := NewLoopback(n)
	ctx := context.Background()
	value := bytes.Repeat([]byte{0xC5, 0x17, 0x9E}, size/3+1)[:size]
	w, err := NewWriter("w", codec, lb.Conns())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := w.Write(ctx, testKey, value); err != nil {
		b.Fatal(err)
	}
	lb.Corrupt(2, FlipByte(0))
	r, err := NewReader("r", codec, lb.Conns(), WithReadErrors(1))
	if err != nil {
		b.Fatal(err)
	}
	// The rotted element is located whenever it is among the first
	// k+2e that complete the read; either way the value must be exact.
	if res, err := r.Read(ctx, testKey); err != nil || !bytes.Equal(res.Value, value) {
		b.Fatalf("Read = corrupt %v, %v", res.Corrupt, err)
	}
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Read(ctx, testKey); err != nil {
			b.Fatal(err)
		}
	}
}
