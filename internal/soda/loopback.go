package soda

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
)

// ErrServerDown is what loopback conns return for a fail-stop-crashed
// server, standing in for a refused connection.
var ErrServerDown = errors.New("soda: server is down")

// Loopback is an in-process cluster of n SODA servers with
// synchronous, deterministic message delivery — every client call
// runs the server state machine on the calling goroutine, and every
// relay runs on the goroutine of the put that triggered it — plus
// fault injection:
//
//   - Crash: fail-stop; the server's conns error immediately and its
//     registered readers stop hearing relays.
//   - Hang: silent crash; the server never answers, callers block
//     until their context ends. This is the pure crash model the
//     protocol's quorums are sized for.
//   - Corrupt: the server's storage rots; every element it serves or
//     relays first passes through a caller-supplied transform, which
//     is what the SODA_err read path exists to catch.
//
// Like the TCP transport, loopback conns clone put elements on the way
// in, so a client reusing a pooled encode buffer never aliases server
// storage. Served elements are not copied: a GetData delivery or a
// GetElem result is the stored element itself. That is safe because
// server storage is only ever replaced, never written in place, and
// the Conn contract makes deliveries read-only (a Corrupt transform
// works on a copy). Loopback is the substrate for deterministic
// protocol tests and the sodademo binary.
type Loopback struct {
	mu sync.Mutex // serializes the fault-injection mutators
	// servers holds atomic pointers so Recover can swap in a freshly
	// recovered state machine while conns keep reading lock-free.
	servers []atomic.Pointer[Server]
	// The fault state is read on every operation and every delivery, so
	// the hot path samples it with atomics; mu only orders the mutators
	// against each other.
	crashed   []atomic.Bool
	hung      []atomic.Bool
	down      []atomic.Value // chan struct{}; closed by Crash, replaced by Restart
	corrupt   []atomic.Pointer[func([]byte) []byte]
	onDeliver atomic.Pointer[func(server int, key, readerID string, d Delivery)]
	// Durable clusters only: per-node state directories and the options
	// Recover re-opens them with.
	durDir  string
	durOpts []DurableOption
}

// NewLoopback builds an n-server in-process cluster.
func NewLoopback(n int) *Loopback {
	lb := newLoopbackShell(n)
	for i := range lb.servers {
		lb.servers[i].Store(NewServer(i))
	}
	return lb
}

// NewDurableLoopback builds an n-server cluster whose nodes persist
// their state under dir (one "node-<i>" subdirectory each), so
// PowerCut and Recover can exercise the WAL + snapshot machinery.
func NewDurableLoopback(n int, dir string, opts ...DurableOption) (*Loopback, error) {
	lb := newLoopbackShell(n)
	lb.durDir, lb.durOpts = dir, opts
	for i := range lb.servers {
		s, err := NewDurableServer(i, lb.nodeDir(i), opts...)
		if err != nil {
			lb.CloseServers()
			return nil, err
		}
		lb.servers[i].Store(s)
	}
	return lb, nil
}

func newLoopbackShell(n int) *Loopback {
	lb := &Loopback{
		servers: make([]atomic.Pointer[Server], n),
		crashed: make([]atomic.Bool, n),
		hung:    make([]atomic.Bool, n),
		down:    make([]atomic.Value, n),
		corrupt: make([]atomic.Pointer[func([]byte) []byte], n),
	}
	for i := range lb.down {
		lb.down[i].Store(make(chan struct{}))
	}
	return lb
}

func (l *Loopback) nodeDir(i int) string {
	return filepath.Join(l.durDir, fmt.Sprintf("node-%d", i))
}

// Server exposes server i's state machine for inspection.
func (l *Loopback) Server(i int) *Server { return l.servers[i].Load() }

// Size returns the number of server endpoints in the loopback. A
// configuration may use any prefix of them: endpoints beyond the
// active config's n are standby nodes a grow-reconfiguration can
// bring in.
func (l *Loopback) Size() int { return len(l.servers) }

// Conns returns a fresh conn set for the cluster, stamped with epoch 0
// (the construction-time configuration).
func (l *Loopback) Conns() []Conn { return l.ConnsAt(SeedEpoch, len(l.servers)) }

// ConnsAt returns conns for the first n servers, each stamping the
// given configuration epoch on every operation — the conn set for one
// epoch's Config. Reconfiguration to a different member count builds a
// new conn set rather than mutating an old one, so an operation's
// quorum can only ever carry its own config's epoch.
func (l *Loopback) ConnsAt(epoch uint64, n int) []Conn {
	conns := make([]Conn, n)
	for i := range conns {
		conns[i] = &loopConn{lb: l, idx: i, epoch: epoch}
	}
	return conns
}

// Crash fail-stops server i: future operations against it error,
// in-flight get-data subscriptions end with ErrServerDown (the TCP
// analogue: the connection dies), and its registered readers are
// dropped so it relays to nobody.
func (l *Loopback) Crash(i int) {
	l.mu.Lock()
	if !l.crashed[i].Load() {
		l.crashed[i].Store(true)
		close(l.down[i].Load().(chan struct{}))
	}
	l.mu.Unlock()
	l.servers[i].Load().UnregisterAll()
}

// Hang silently crashes server i: it stops answering but connections
// do not fail. Its registered readers are likewise dropped.
func (l *Loopback) Hang(i int) {
	l.mu.Lock()
	l.hung[i].Store(true)
	l.mu.Unlock()
	l.servers[i].Load().UnregisterAll()
}

// PowerCut crashes durable server i the unclean way: fail-stop like
// Crash, plus the WAL loses everything past its last fsync — exactly
// what the disk would hold after the cord is pulled. Under FsyncAlways
// nothing acknowledged is lost; under FsyncNone the active segment's
// tail is. Recover brings the node back from that disk state.
func (l *Loopback) PowerCut(i int) {
	l.Crash(i)
	if d := l.servers[i].Load().dur; d != nil {
		d.powerCut()
	}
}

// Recover replaces crashed server i with a fresh state machine
// rebuilt from its node directory (snapshot load + WAL replay) — the
// durable alternative to Restart's "storage as the crash left it" and
// to Wipe + donor repair. The swapped-in server starts with no
// registered readers, like any rebooted node.
func (l *Loopback) Recover(i int) (*Server, error) {
	if l.durDir == "" {
		return nil, errors.New("soda: Recover on a non-durable loopback")
	}
	s, err := NewDurableServer(i, l.nodeDir(i), l.durOpts...)
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.servers[i].Store(s)
	if l.crashed[i].Load() {
		l.down[i].Store(make(chan struct{}))
		l.crashed[i].Store(false)
	}
	l.hung[i].Store(false)
	l.mu.Unlock()
	return s, nil
}

// TearWALTail shears n bytes off the end of server i's last WAL
// segment, simulating a torn final write that a power cut left
// mid-record. Call it between PowerCut and Recover.
func (l *Loopback) TearWALTail(i int, n int64) error {
	if l.durDir == "" {
		return errors.New("soda: TearWALTail on a non-durable loopback")
	}
	return tearWALTail(l.nodeDir(i), n)
}

// CloseServers cleanly shuts down every durable server (final fsync,
// files closed); memory-only clusters no-op.
func (l *Loopback) CloseServers() error {
	var first error
	for i := range l.servers {
		if s := l.servers[i].Load(); s != nil {
			if err := s.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// Restart rejoins a crashed or hung server i: future operations reach
// its state machine again, with storage exactly as the crash left it
// (possibly stale — repair's job) and no registered readers. A
// corruption transform installed with Corrupt survives the restart,
// modeling a bad disk that a reboot does not fix; clear it with
// Corrupt(i, nil) to model a disk swap. Combine with Server(i).Wipe()
// for a restart that lost the disk entirely.
func (l *Loopback) Restart(i int) {
	l.mu.Lock()
	if l.crashed[i].Load() {
		l.down[i].Store(make(chan struct{}))
		l.crashed[i].Store(false)
	}
	l.hung[i].Store(false)
	l.mu.Unlock()
}

// Corrupt installs a storage-rot transform for server i: every
// element it serves from now on is passed through fn (on a copy — the
// underlying storage stays intact, modeling a bad disk sector or a
// bit-flipping NIC rather than a helpful repair).
func (l *Loopback) Corrupt(i int, fn func([]byte) []byte) {
	if fn == nil {
		l.corrupt[i].Store(nil)
		return
	}
	l.corrupt[i].Store(&fn)
}

// FlipByte is a ready-made Corrupt transform: XOR the byte at off.
func FlipByte(off int) func([]byte) []byte {
	return func(b []byte) []byte {
		if len(b) > 0 {
			b[off%len(b)] ^= 0x5A
		}
		return b
	}
}

// OnDeliver installs a hook invoked synchronously after each delivery
// to a reader, with no loopback locks held — tests use it to inject
// faults at exact protocol moments (for example, crash a server right
// after its initial response reaches a reader).
func (l *Loopback) OnDeliver(fn func(server int, key, readerID string, d Delivery)) {
	if fn == nil {
		l.onDeliver.Store(nil)
		return
	}
	l.onDeliver.Store(&fn)
}

// state samples the fault flags for server i.
func (l *Loopback) state(i int) (crashed, hung bool) {
	return l.crashed[i].Load(), l.hung[i].Load()
}

// downCh samples server i's crash channel (Restart replaces it).
func (l *Loopback) downCh(i int) chan struct{} {
	return l.down[i].Load().(chan struct{})
}

// transform applies server i's corruption, if any, to a copy of the
// delivery's element.
func (l *Loopback) transform(i int, d Delivery) Delivery {
	if fn := l.corrupt[i].Load(); fn != nil && len(d.Elem) > 0 {
		d.Elem = (*fn)(slices.Clone(d.Elem))
	}
	return d
}

func (l *Loopback) hook() func(server int, key, readerID string, d Delivery) {
	if fn := l.onDeliver.Load(); fn != nil {
		return *fn
	}
	return nil
}

// loopConn is the in-process Conn for one server, stamped with the
// configuration epoch its operations present.
type loopConn struct {
	lb    *Loopback
	idx   int
	epoch uint64
}

func (c *loopConn) Index() int { return c.idx }

// gate applies the fault flags: error when crashed, block forever
// when hung. A cancelled context is deliberately NOT checked: a
// quorum's straggler goroutines model messages already in flight, and
// in-flight messages still land. Tests that need a put to *miss* a
// server must crash it before the put begins, not rely on client-side
// cancellation to unsend it.
func (c *loopConn) gate(ctx context.Context) error {
	crashed, hung := c.lb.state(c.idx)
	if crashed {
		return ErrServerDown
	}
	if hung {
		<-ctx.Done()
		return ctx.Err()
	}
	return nil
}

func (c *loopConn) GetTag(ctx context.Context, key string) (Tag, error) {
	if err := c.gate(ctx); err != nil {
		return Tag{}, err
	}
	srv := c.lb.servers[c.idx].Load()
	if nack := srv.Admit(opClient, c.epoch); nack != nil {
		return Tag{}, nack
	}
	return srv.GetTag(key), nil
}

func (c *loopConn) PutData(ctx context.Context, key string, t Tag, elem []byte, vlen int) error {
	if err := c.gate(ctx); err != nil {
		return err
	}
	srv := c.lb.servers[c.idx].Load()
	if nack := srv.Admit(opClient, c.epoch); nack != nil {
		return nack
	}
	// The wire would copy: the server takes ownership, and the caller
	// (a pooled writer scratch) is free to reuse elem immediately.
	srv.PutData(key, t, slices.Clone(elem), vlen)
	return nil
}

func (c *loopConn) GetData(ctx context.Context, key, readerID string, deliver func(Delivery)) error {
	if err := c.gate(ctx); err != nil {
		return err
	}
	srv := c.lb.servers[c.idx].Load()
	if nack := srv.Admit(opClient, c.epoch); nack != nil {
		return nack
	}
	wrap := func(d Delivery) {
		d = c.lb.transform(c.idx, d)
		deliver(d)
		if fn := c.lb.hook(); fn != nil {
			fn(c.idx, key, readerID, d)
		}
	}
	down := c.lb.downCh(c.idx)
	// The stream dies when the server's epoch moves: the registration
	// was dropped by the transition, and the stale error is what makes
	// the reader re-register under the new configuration.
	flipped := srv.EpochChanged()
	initial := srv.Register(key, readerID, wrap)
	defer srv.Unregister(key, readerID)
	wrap(initial)
	select {
	case <-ctx.Done():
		return nil
	case <-down:
		return ErrServerDown
	case <-flipped:
		if nack := srv.Admit(opClient, c.epoch); nack != nil {
			return nack
		}
		st := srv.EpochStatus()
		return &StaleEpochError{Server: c.idx, ServerEpoch: st.Epoch, Want: st.Epoch, Sealed: st.Sealed}
	}
}

// GetElem serves the repair collection phase. The corruption transform
// applies here too: a rotting server lies to the Repairer exactly as
// it lies to readers, which is why repair cross-checks donors when the
// codec has error-location structure.
func (c *loopConn) GetElem(ctx context.Context, key string) (Tag, []byte, int, error) {
	if err := c.gate(ctx); err != nil {
		return Tag{}, nil, 0, err
	}
	srv := c.lb.servers[c.idx].Load()
	if nack := srv.Admit(opDonor, c.epoch); nack != nil {
		return Tag{}, nil, 0, nack
	}
	srv.metrics.getElems.Add(1)
	t, elem, vlen := srv.Snapshot(key)
	d := c.lb.transform(c.idx, Delivery{Server: c.idx, Tag: t, Elem: elem, VLen: vlen})
	return d.Tag, d.Elem, d.VLen, nil
}

func (c *loopConn) RepairPut(ctx context.Context, key string, t Tag, elem []byte, vlen int) (bool, error) {
	if err := c.gate(ctx); err != nil {
		return false, err
	}
	srv := c.lb.servers[c.idx].Load()
	if nack := srv.Admit(opRepair, c.epoch); nack != nil {
		return false, nack
	}
	return srv.RepairPut(key, t, slices.Clone(elem), vlen), nil
}

// Keys enumerates the server's written keys — the repair namespace.
func (c *loopConn) Keys(ctx context.Context) ([]string, error) {
	if err := c.gate(ctx); err != nil {
		return nil, err
	}
	srv := c.lb.servers[c.idx].Load()
	if nack := srv.Admit(opDonor, c.epoch); nack != nil {
		return nil, nack
	}
	return srv.Keys(), nil
}

// Reconfig forwards a coordinator seal/activate/status to the server.
// Epoch admission does not apply: reconfiguration is how epochs move.
func (c *loopConn) Reconfig(ctx context.Context, op ReconfigOp, target uint64, n, k int) (EpochStatus, error) {
	if err := c.gate(ctx); err != nil {
		return EpochStatus{}, err
	}
	return c.lb.servers[c.idx].Load().Reconfig(op, target, n, k)
}
