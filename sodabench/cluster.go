package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/rs"
	"repro/internal/soda"
)

// cluster is one running in-process n-server group and the Loopback
// conns the clients use.
type cluster struct {
	lb      *soda.Loopback
	servers []*soda.Server
	conns   []soda.Conn
}

func newCodec(w workload) (*soda.Codec, error) {
	if w.readErrors > 0 {
		return soda.NewCodec(w.n, w.k, rs.WithGenerator(rs.GeneratorRSView))
	}
	return soda.NewCodec(w.n, w.k)
}

// newCluster starts the workload's memory-only servers.
func newCluster(w workload) *cluster {
	lb := soda.NewLoopback(w.n)
	servers := make([]*soda.Server, w.n)
	for i := range servers {
		servers[i] = lb.Server(i)
	}
	return &cluster{lb: lb, servers: servers, conns: lb.Conns()}
}

// injectFaults fail-stops one server and rots another's storage, as
// the workload asks.
func (cl *cluster) injectFaults(w workload) {
	if w.crash >= 0 {
		cl.lb.Crash(w.crash)
	}
	if w.rot >= 0 {
		cl.lb.Corrupt(w.rot, soda.FlipByte(0))
	}
}

// settle waits until the put-data legs still in flight when the last
// Write returned have landed: until the number of (server, key) pairs
// holding an element stops changing between two polls, or a second
// has passed. A leg that never sends its put-data stays missing.
func (cl *cluster) settle() {
	held := func() int {
		n := 0
		for _, s := range cl.servers {
			n += len(s.Keys())
		}
		return n
	}
	last := held()
	for end := time.Now().Add(time.Second); time.Now().Before(end); {
		time.Sleep(5 * time.Millisecond)
		now := held()
		if now == last {
			return
		}
		last = now
	}
}

// serverTotals sums every server's counters.
func (cl *cluster) serverTotals() soda.MetricsSnapshot {
	var sum soda.MetricsSnapshot
	for _, s := range cl.servers {
		sum.Add(s.MetricsSnapshot())
	}
	return sum
}

// prewrite writes every key once, the keys split between the clients
// and written concurrently, so every read finds a value.
func prewrite(clients []*client, keys []string) error {
	var wg sync.WaitGroup
	errs := make([]error, len(clients))
	for ci, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for key := ci; key < len(keys); key += len(clients) {
				ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
				tag, err := c.w.Write(ctx, keys[key], c.nextValue(key))
				cancel()
				if err != nil {
					errs[ci] = fmt.Errorf("prewrite %s: %w", keys[key], err)
					return
				}
				c.lastWrite[key] = tag
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}
