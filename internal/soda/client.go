package soda

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
)

var (
	// ErrUnavailable is returned when more servers have failed than
	// the operation's fault budget f allows.
	ErrUnavailable = errors.New("soda: too many server failures")
)

// Conn is a client's handle to one server, implemented by the
// multiplexed TCP transport (mux.go), the dial-per-op TCP transport
// (tcp.go), and the in-process loopback (loopback.go). Every operation
// addresses one named register by key. A put's elem is not retained
// after the call returns. Elements a Conn serves (GetData deliveries,
// GetElem results) are read-only for the caller and may alias server
// storage — Loopback delivers the stored element itself — so clients
// decode them without ever writing them.
type Conn interface {
	// Index returns the server's shard index in [0, n).
	Index() int
	// GetTag asks for the server's highest stored tag under key.
	GetTag(ctx context.Context, key string) (Tag, error)
	// PutData stores one coded element under (key, tag).
	PutData(ctx context.Context, key string, t Tag, elem []byte, vlen int) error
	// GetData registers readerID with the server on key, delivers the
	// key's current state marked Initial, then every relayed put-data
	// until ctx is cancelled. It blocks for the lifetime of the
	// subscription and returns nil after a cancellation-driven
	// unregister; any other return means the server was lost.
	GetData(ctx context.Context, key, readerID string, deliver func(Delivery)) error
	// GetElem fetches the server's stored (tag, element, vlen) under
	// key — the repair collection phase. A never-written key returns
	// the zero tag with a nil element.
	GetElem(ctx context.Context, key string) (Tag, []byte, int, error)
	// RepairPut installs a repaired element under key, accepted only if
	// t is at least the key's current tag (repair never rolls a server
	// backwards). It reports whether the server installed it; false
	// means the server already holds something newer.
	RepairPut(ctx context.Context, key string, t Tag, elem []byte, vlen int) (bool, error)
	// Keys enumerates the keys the server holds written elements for —
	// the namespace a Repairer must heal.
	Keys(ctx context.Context) ([]string, error)
}

// Reconfigurer is the optional Conn capability a reconfiguration
// coordinator needs: driving a server's epoch state machine (status,
// seal, activate). All three built-in transports implement it; a Conn
// that does not cannot be part of a live geometry flip.
type Reconfigurer interface {
	Reconfig(ctx context.Context, op ReconfigOp, target uint64, n, k int) (EpochStatus, error)
}

// validateConns checks that conns cover each shard index of an
// n-server cluster exactly once.
func validateConns(conns []Conn, n int) error {
	if len(conns) != n {
		return fmt.Errorf("%w: %d conns for an n=%d cluster", ErrConfig, len(conns), n)
	}
	seen := make([]bool, n)
	for _, c := range conns {
		i := c.Index()
		if i < 0 || i >= n || seen[i] {
			return fmt.Errorf("%w: bad or duplicate server index %d", ErrConfig, i)
		}
		seen[i] = true
	}
	return nil
}

// liveConns filters conns through a membership view, returning the
// admitted conns and how many were quarantined. A nil view admits
// everyone.
func liveConns(conns []Conn, m *Membership) ([]Conn, int) {
	if m == nil {
		return conns, 0
	}
	live := make([]Conn, 0, len(conns))
	for _, c := range conns {
		if m.IsLive(c.Index()) {
			live = append(live, c)
		}
	}
	return live, len(conns) - len(live)
}

// reportSuspect feeds an affirmative per-server failure into a shared
// membership view. Cancellation is not evidence — a straggler losing
// the quorum race, or the caller's own deadline, says nothing about
// the server — so only errors observed while the op's context was
// still live count.
func reportSuspect(m *Membership, opctx context.Context, server int, err error) {
	if m == nil || err == nil || opctx.Err() != nil ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return
	}
	m.MarkSuspect(server, err)
}

// quorum runs op against every conn and returns nil once need of them
// have succeeded, cancelling the stragglers. It fails fast with
// ErrUnavailable as soon as too many conns have errored for need
// successes to remain possible.
func quorum(ctx context.Context, conns []Conn, need int, op func(context.Context, Conn) error) error {
	qctx, cancel := context.WithCancel(ctx)
	defer cancel()
	res := make(chan error, len(conns))
	for _, c := range conns {
		go func(c Conn) { res <- op(qctx, c) }(c)
	}
	oks, errs := 0, 0
	var firstErr error
	for range conns {
		select {
		case err := <-res:
			if err == nil {
				if oks++; oks >= need {
					return nil
				}
			} else {
				if firstErr == nil {
					firstErr = err
				}
				if errs++; errs > len(conns)-need {
					return fmt.Errorf("%w: %d of %d servers failed (need %d): %w",
						ErrUnavailable, errs, len(conns), need, firstErr)
				}
			}
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return fmt.Errorf("%w: quorum accounting exhausted", ErrUnavailable) // unreachable
}

// writeStripes stripes the writer's per-key serialization locks; must
// be a power of two.
const writeStripes = 64

// stripeOf hashes a key onto a lock stripe (FNV-1a).
func stripeOf(key string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return h & (writeStripes - 1)
}

// encodeScratch is a reusable encode buffer for the put-data phase:
// one n*s backing array resliced into shards. It is refcounted across
// the quorum fan-out — straggler goroutines still hold the shards
// after the quorum completes, so the buffer returns to the pool only
// when the last per-server op finishes.
type encodeScratch struct {
	buf    []byte
	shards [][]byte
	refs   atomic.Int32
}

// release drops one quorum goroutine's hold; the last one pools the
// scratch.
func (sc *encodeScratch) release(pool *sync.Pool) {
	if sc.refs.Add(-1) == 0 {
		pool.Put(sc)
	}
}

// Writer performs SODA's two-phase writes against named registers. One
// Writer owns a writer id — the id must be unique across the cluster's
// writers, since tags are (ts, id) — and Write serializes itself per
// key (striped locks), so a Writer is safe for concurrent use across
// keys: two overlapping Writes of one key from one id would otherwise
// observe the same quorum maximum, mint the same tag for different
// values, and split the servers between two codewords of one version.
type Writer struct {
	id      string
	codec   *Codec
	conns   []Conn
	f       int
	m       *Membership
	locks   [writeStripes]sync.Mutex // serialize Write's get-tag -> put-data pair per key
	scratch sync.Pool                // *encodeScratch
	calls   sync.Pool                // *writeCall
}

// WriterOption configures a Writer.
type WriterOption func(*Writer) error

// WithWriterFaults sets the number of server crashes f the writer
// rides through: both phases wait on n-f servers. Default (n-k)/2,
// the paper's bound n >= k + 2f.
func WithWriterFaults(f int) WriterOption {
	return func(w *Writer) error {
		if f < 0 || f >= len(w.conns) {
			return fmt.Errorf("%w: writer faults f=%d with n=%d", ErrConfig, f, len(w.conns))
		}
		w.f = f
		return nil
	}
}

// WithWriterMembership shares a cluster Membership view with the
// writer: quarantined servers are excluded from both phases' quorum
// accounting — charged to the fault budget f rather than dialed — and
// automatically re-included once the Repairer readmits them. The
// writer also feeds the view: a server that affirmatively fails an RPC
// is marked Suspect for the repair loop to pick up.
func WithWriterMembership(m *Membership) WriterOption {
	return func(w *Writer) error {
		if m.N() != len(w.conns) {
			return fmt.Errorf("%w: membership for n=%d, cluster has n=%d", ErrConfig, m.N(), len(w.conns))
		}
		w.m = m
		return nil
	}
}

// maxWriterID bounds writer ids: they travel inside every tag on the
// wire (uint16-length field) and live in every server's state, so
// they are required to be short.
const maxWriterID = 255

// NewWriter builds a writer with the given unique id.
func NewWriter(id string, codec *Codec, conns []Conn, opts ...WriterOption) (*Writer, error) {
	if id == "" {
		return nil, fmt.Errorf("%w: empty writer id", ErrConfig)
	}
	if len(id) > maxWriterID {
		return nil, fmt.Errorf("%w: writer id of %d bytes exceeds %d", ErrConfig, len(id), maxWriterID)
	}
	if err := validateConns(conns, codec.N()); err != nil {
		return nil, err
	}
	w := &Writer{id: id, codec: codec, conns: conns, f: (codec.N() - codec.K()) / 2}
	for _, opt := range opts {
		if err := opt(w); err != nil {
			return nil, err
		}
	}
	if codec.N()-w.f < codec.K() {
		return nil, fmt.Errorf("%w: quorum n-f=%d < k=%d", ErrConfig, codec.N()-w.f, codec.K())
	}
	return w, nil
}

// writeCall is the pooled fan-out state of one fused Write: a single
// goroutine per server runs both phases back to back, so a write costs
// n goroutine spawns instead of the 2n a quorum() per phase would, and
// the channels and spawn thunk are reused across writes. Legs report
// by bumping counters under wc.mu and nudging the cap-1 wake channel
// only when a counter crosses its phase threshold, so the caller parks
// about once per phase instead of consuming 2n messages. The refcount
// covers the n server goroutines plus the caller; the last one off
// drains the channels and pools the struct, so straggler sends can
// never pollute a later write.
type writeCall struct {
	wake chan struct{} // condition nudge; cap 1, coalescing
	mint chan Tag      // minted-tag handoff; cap n, one token per server
	body func()        // reusable spawn thunk: go wc.body() allocates nothing
	refs atomic.Int32
	next atomic.Int32

	mu       sync.Mutex
	tagMax   Tag   // running max of phase-0 tags
	oks      int   // phase-0 successes
	errs     int   // phase-0 failures
	acks     int   // phase-1 successes
	aerrs    int   // phase-1 failures
	firstErr error // first phase-0 failure
	ackErr   error // first phase-1 failure
	need     int   // successes that complete a phase
	allowed  int   // failures a phase absorbs

	// Per-call fields, set before the spawns and zeroed at pool time.
	w     *Writer
	ctx   context.Context
	key   string
	conns []Conn
	sc    *encodeScratch
	vlen  int
}

func (w *Writer) getCall(ctx context.Context, key string, conns []Conn, sc *encodeScratch, vlen int) *writeCall {
	wc, _ := w.calls.Get().(*writeCall)
	if wc == nil || cap(wc.mint) < len(w.conns) {
		wc = &writeCall{
			wake: make(chan struct{}, 1),
			mint: make(chan Tag, len(w.conns)),
		}
		wc.body = wc.run
	}
	wc.next.Store(0)
	wc.tagMax = Tag{}
	wc.oks, wc.errs, wc.acks, wc.aerrs = 0, 0, 0, 0
	wc.firstErr, wc.ackErr = nil, nil
	wc.need = len(w.conns) - w.f
	wc.allowed = len(conns) - wc.need
	wc.w, wc.ctx, wc.key, wc.conns, wc.sc, wc.vlen = w, ctx, key, conns, sc, vlen
	wc.refs.Store(int32(len(conns)) + 1) // servers + caller
	return wc
}

// release drops one hold on the call; the last holder drains and pools
// it.
func (wc *writeCall) release() {
	if wc.refs.Add(-1) != 0 {
		return
	}
	for {
		select {
		case <-wc.wake:
		case <-wc.mint:
		default:
			w := wc.w
			wc.w, wc.ctx, wc.key, wc.conns, wc.sc = nil, nil, "", nil, nil
			w.calls.Put(wc)
			return
		}
	}
}

// signal nudges the caller; the cap-1 buffer coalesces concurrent
// nudges, and the caller re-reads the counters after every wake, so a
// dropped token can never lose an edge that happened before the send.
func (wc *writeCall) signal() {
	select {
	case wc.wake <- struct{}{}:
	default:
	}
}

// run is one server's leg of a fused write: report the server's tag,
// wait for the writer to mint, then deliver the coded element. A
// server whose get-tag failed still attempts put-data — with
// dial-per-op transports the second dial can succeed where the first
// did not, and the unfused path retried it the same way. Each phase's
// thresholds (need successes, allowed+1 failures) sum past the leg
// count, so at most one of them fires per phase and a completed phase
// always nudges the caller exactly once.
func (wc *writeCall) run() {
	defer wc.release()
	c := wc.conns[wc.next.Add(1)-1]
	t, err := c.GetTag(wc.ctx, wc.key)
	if err != nil {
		reportSuspect(wc.w.m, wc.ctx, c.Index(), err)
	}
	wc.mu.Lock()
	nudge := false
	if err != nil {
		if wc.firstErr == nil {
			wc.firstErr = err
		}
		wc.errs++
		nudge = wc.errs == wc.allowed+1
	} else {
		if wc.tagMax.Less(t) {
			wc.tagMax = t
		}
		wc.oks++
		nudge = wc.oks == wc.need
	}
	wc.mu.Unlock()
	if nudge {
		wc.signal()
	}
	var minted Tag
	select {
	case minted = <-wc.mint:
	case <-wc.ctx.Done():
		wc.sc.release(&wc.w.scratch)
		return
	}
	err = c.PutData(wc.ctx, wc.key, minted, wc.sc.shards[c.Index()], wc.vlen)
	wc.sc.release(&wc.w.scratch)
	if err != nil {
		reportSuspect(wc.w.m, wc.ctx, c.Index(), err)
	}
	wc.mu.Lock()
	nudge = false
	if err != nil {
		if wc.ackErr == nil {
			wc.ackErr = err
		}
		wc.aerrs++
		nudge = wc.aerrs == wc.allowed+1
	} else {
		wc.acks++
		nudge = wc.acks == wc.need
	}
	wc.mu.Unlock()
	if nudge {
		wc.signal()
	}
}

// Write performs one atomic write of key: get-tag, then put-data,
// returning the tag the value was written under. The two phases are
// fused per server — one goroutine per conn runs get-tag and then,
// once n-f tags have fixed the minted tag, put-data on the same leg —
// which is observationally the same message sequence as
// NextTag+WriteTagged but costs half the fan-out. Per-server phases
// may overlap (one server can be receiving its element while a
// straggler is still answering get-tag); the protocol never needed
// the phases globally barriered, only the mint to follow n-f tags.
//
// On a put-data-phase failure the minted tag is returned alongside the
// error: the attempt may have installed elements under it on fewer
// than a quorum of servers (a half-applied put, the state a writer
// crash leaves), and callers that retry with a fresh tag — or audit
// histories — need to know which tag was abandoned. A zero tag with an
// error means the attempt never minted.
func (w *Writer) Write(ctx context.Context, key string, value []byte) (Tag, error) {
	if err := validateKey(key); err != nil {
		return Tag{}, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	l := &w.locks[stripeOf(key)]
	l.Lock()
	defer l.Unlock()

	live, _, err := w.quorumConns()
	if err != nil {
		return Tag{}, fmt.Errorf("soda: get-tag: %w", err)
	}
	sc, _ := w.scratch.Get().(*encodeScratch)
	if sc == nil {
		sc = &encodeScratch{}
	}
	if err := w.codec.encodeValueInto(value, sc); err != nil {
		w.scratch.Put(sc)
		return Tag{}, err
	}
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	sc.refs.Store(int32(len(live)))
	wc := w.getCall(wctx, key, live, sc, len(value))
	defer wc.release()
	for range live {
		spawnPool.spawn(wc.body)
	}

	// Phase 0: park until the tag quorum resolves. Every wake re-reads
	// the counters, so coalesced or stale nudges only cost a loop turn.
	var minted Tag
	for minted.IsZero() {
		//lint:ignore lockhold the stripe lock serializes whole write ops by design (PR 5: concurrent same-writer tags must stay unique); parking under it is the point
		select {
		case <-wc.wake:
		case <-ctx.Done():
			return Tag{}, ctx.Err()
		}
		wc.mu.Lock()
		switch {
		case wc.oks >= wc.need:
			minted = wc.tagMax.Next(w.id)
		case wc.errs > wc.allowed:
			errs, firstErr := wc.errs, wc.firstErr
			wc.mu.Unlock()
			return Tag{}, fmt.Errorf("soda: get-tag: %w: %d of %d servers failed (need %d): %w",
				ErrUnavailable, errs, len(live), wc.need, firstErr)
		}
		wc.mu.Unlock()
	}
	for range live {
		//lint:ignore lockhold mint sends ride the held stripe lock by design: one buffered slot per leg exists before the send, so this never blocks past leg pickup
		wc.mint <- minted
	}

	// Phase 1: park until the ack quorum resolves.
	for {
		//lint:ignore lockhold the stripe lock serializes whole write ops by design (PR 5); the ack-quorum park mirrors the phase-0 park above
		select {
		case <-wc.wake:
		case <-ctx.Done():
			return minted, ctx.Err()
		}
		wc.mu.Lock()
		switch {
		case wc.acks >= wc.need:
			wc.mu.Unlock()
			return minted, nil
		case wc.aerrs > wc.allowed:
			aerrs, ackErr := wc.aerrs, wc.ackErr
			wc.mu.Unlock()
			return minted, fmt.Errorf("soda: put-data %v: %w: %d of %d servers failed (need %d): %w",
				minted, ErrUnavailable, aerrs, len(live), wc.need, ackErr)
		}
		wc.mu.Unlock()
	}
}

// NextTag is the get-tag phase on its own: query all servers for key,
// wait for n-f tags, and mint the successor of their maximum. Exposed
// separately (with WriteTagged) so tests can fault-inject a writer
// crash between the phases; callers driving the phases by hand own
// the per-key serialization Write otherwise provides.
func (w *Writer) NextTag(ctx context.Context, key string) (Tag, error) {
	live, _, err := w.quorumConns()
	if err != nil {
		return Tag{}, fmt.Errorf("soda: get-tag: %w", err)
	}
	var mu sync.Mutex
	var max Tag
	err = quorum(ctx, live, len(w.conns)-w.f, func(qctx context.Context, c Conn) error {
		t, err := c.GetTag(qctx, key)
		if err != nil {
			reportSuspect(w.m, qctx, c.Index(), err)
			return err
		}
		mu.Lock()
		if max.Less(t) {
			max = t
		}
		mu.Unlock()
		return nil
	})
	if err != nil {
		return Tag{}, fmt.Errorf("soda: get-tag: %w", err)
	}
	mu.Lock()
	defer mu.Unlock()
	return max.Next(w.id), nil
}

// quorumConns samples the membership view for one phase: the conns to
// contact, the number quarantined, and an ErrUnavailable when so many
// are quarantined that the n-f quorum cannot be met without them.
func (w *Writer) quorumConns() ([]Conn, int, error) {
	live, excluded := liveConns(w.conns, w.m)
	if excluded > w.f {
		return nil, excluded, fmt.Errorf("%w: %d servers quarantined, fault budget f=%d", ErrUnavailable, excluded, w.f)
	}
	return live, excluded, nil
}

// WriteTagged is the put-data phase: encode the value into a pooled
// scratch and send coded element i to server i, completing on n-f
// acks. Transports copy the element before returning, so the scratch
// is reusable as soon as every per-server op has finished — which is
// exactly when its refcount pools it.
func (w *Writer) WriteTagged(ctx context.Context, key string, tag Tag, value []byte) error {
	sc, _ := w.scratch.Get().(*encodeScratch)
	if sc == nil {
		sc = &encodeScratch{}
	}
	if err := w.codec.encodeValueInto(value, sc); err != nil {
		w.scratch.Put(sc)
		return err
	}
	live, _, err := w.quorumConns()
	if err != nil {
		w.scratch.Put(sc)
		return fmt.Errorf("soda: put-data %v: %w", tag, err)
	}
	vlen := len(value)
	sc.refs.Store(int32(len(live)))
	err = quorum(ctx, live, len(w.conns)-w.f, func(qctx context.Context, c Conn) error {
		defer sc.release(&w.scratch)
		if err := c.PutData(qctx, key, tag, sc.shards[c.Index()], vlen); err != nil {
			reportSuspect(w.m, qctx, c.Index(), err)
			return err
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("soda: put-data %v: %w", tag, err)
	}
	return nil
}

// ReadResult is a completed read: the value, the tag it was written
// under (zero for a never-written register), and — on SODA_err reads
// — the ascending indices of servers whose elements were located as
// corrupt and should be quarantined.
type ReadResult struct {
	Tag     Tag
	Value   []byte
	Corrupt []int
}

// Reader performs SODA's relayed reads. Safe for concurrent use; each
// Read registers under a fresh reader id.
type Reader struct {
	id         string
	ridPrefix  string // id + process token, precomputed off the Read path
	codec      *Codec
	conns      []Conn
	f          int
	e          int
	quarantine []int
	m          *Membership
	states     sync.Pool // *readState
}

// ReaderOption configures a Reader.
type ReaderOption func(*Reader) error

// WithReaderFaults sets the number of silent or crashed servers f a
// read rides through: the target tag is fixed from the first n-f
// initial responses. Atomicity requires f < k — a read may adopt a
// tag held by only the k servers whose elements it decoded (a
// writer's half-applied put), and a later read's n-f initial quorum
// is guaranteed to intersect those k servers only when k > f; with
// f >= k, reads could go backwards. Default min((n-k)/2, k-1).
func WithReaderFaults(f int) ReaderOption {
	return func(r *Reader) error {
		if f < 0 || f >= len(r.conns) {
			return fmt.Errorf("%w: reader faults f=%d with n=%d", ErrConfig, f, len(r.conns))
		}
		if f >= r.codec.K() {
			return fmt.Errorf("%w: reader faults f=%d >= k=%d (a returned tag may live on only k servers; the next read's n-f quorum must still see one of them)",
				ErrConfig, f, r.codec.K())
		}
		r.f = f
		return nil
	}
}

// WithReadErrors turns on the SODA_err read path: the reader waits
// for k+2e coded elements of a matching tag, verifies them, and runs
// the rs error decoder to locate up to e silently corrupt servers,
// reported in ReadResult.Corrupt. Requires the rs-view generator.
func WithReadErrors(e int) ReaderOption {
	return func(r *Reader) error {
		if e < 0 {
			return fmt.Errorf("%w: read errors e=%d", ErrConfig, e)
		}
		if e > 0 && r.codec.MaxReadErrors() < e {
			return fmt.Errorf("%w: e=%d corrupt servers exceeds the codec's radius %d (need rs.WithGenerator(rs.GeneratorRSView) and 2e <= n-k)",
				ErrConfig, e, r.codec.MaxReadErrors())
		}
		r.e = e
		return nil
	}
}

// WithQuarantine excludes servers a previous SODA_err read located as
// corrupt: the read never contacts them, charging them to the fault
// budget f instead.
func WithQuarantine(servers ...int) ReaderOption {
	return func(r *Reader) error {
		for _, s := range servers {
			if s < 0 || s >= len(r.conns) {
				return fmt.Errorf("%w: quarantined server %d out of range", ErrConfig, s)
			}
		}
		r.quarantine = slices.Clone(servers)
		return nil
	}
}

// WithReaderMembership shares a cluster Membership view with the
// reader: each Read samples the view at invocation and excludes every
// quarantined server exactly like WithQuarantine (the two compose; the
// static list stays excluded regardless of the view). The reader also
// feeds the view — corrupt servers a SODA_err decode locates and
// servers whose delivery stream affirmatively dies are marked Suspect
// — closing the loop that keeps the Repairer supplied with work.
func WithReaderMembership(m *Membership) ReaderOption {
	return func(r *Reader) error {
		if m.N() != len(r.conns) {
			return fmt.Errorf("%w: membership for n=%d, cluster has n=%d", ErrConfig, m.N(), len(r.conns))
		}
		r.m = m
		return nil
	}
}

// NewReader builds a reader with the given id prefix.
func NewReader(id string, codec *Codec, conns []Conn, opts ...ReaderOption) (*Reader, error) {
	if id == "" {
		return nil, fmt.Errorf("%w: empty reader id", ErrConfig)
	}
	if err := validateConns(conns, codec.N()); err != nil {
		return nil, err
	}
	f := (codec.N() - codec.K()) / 2
	if f > codec.K()-1 {
		f = codec.K() - 1 // see WithReaderFaults: atomicity needs f < k
	}
	r := &Reader{id: id, ridPrefix: id + "-" + procToken + "#", codec: codec, conns: conns, f: f}
	for _, opt := range opts {
		if err := opt(r); err != nil {
			return nil, err
		}
	}
	if need := codec.K() + 2*r.e; codec.N()-r.f < need {
		return nil, fmt.Errorf("%w: read quorum n-f=%d < k+2e=%d", ErrConfig, codec.N()-r.f, need)
	}
	return r, nil
}

// procToken plus the package-wide readSeq make registration ids
// unique across Reader instances and across processes, so readers
// that happen to share an id prefix cannot clobber each other's
// registrations at the servers.
var (
	procToken = func() string {
		var b [4]byte
		if _, err := cryptorand.Read(b[:]); err != nil {
			return "p" + strconv.Itoa(os.Getpid())
		}
		return hex.EncodeToString(b[:])
	}()
	readSeq atomic.Uint64
)

var (
	errQuarantined  = errors.New("quarantined")
	errStreamClosed = errors.New("server closed the data stream")
)

// Read performs one atomic read of key. It blocks until enough servers
// have responded (or relayed a concurrent write) to pin down a value,
// or until ctx is cancelled.
func (r *Reader) Read(ctx context.Context, key string) (ReadResult, error) {
	if err := validateKey(key); err != nil {
		return ReadResult{}, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	b := make([]byte, 0, len(r.ridPrefix)+20)
	rid := string(strconv.AppendUint(append(b, r.ridPrefix...), readSeq.Add(1), 10))
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// The effective quarantine is the static list plus the membership
	// view's current suspects; a server the Repairer readmitted before
	// this Read started is contacted again.
	quarantine := r.quarantine
	if r.m != nil {
		quarantine = slices.Clone(quarantine)
		for _, s := range r.m.Suspects() {
			if !slices.Contains(quarantine, s) {
				quarantine = append(quarantine, s)
			}
		}
	}

	st := r.getState()
	st.mu.Lock()
	st.rctx, st.key, st.rid = rctx, key, rid
	gen := st.gen
	// The sink is the one piece of this read the servers hold onto: a
	// relay snapshotting the sink set just before Unregister can still
	// invoke it after the read completed and the state was recycled, so
	// it is pinned to this read's generation and goes inert the moment
	// the state is pooled.
	st.sink = func(d Delivery) {
		st.mu.Lock()
		defer st.mu.Unlock()
		if st.gen != gen {
			return
		}
		st.addLocked(d)
	}
	contact := st.contact[:0]
	for _, c := range r.conns {
		if !slices.Contains(quarantine, c.Index()) {
			contact = append(contact, c)
		}
	}
	st.contact = contact
	st.next.Store(0)
	st.refs.Store(int32(len(contact)) + 1) // subscriptions + this caller
	st.mu.Unlock()
	defer st.release()

	for _, q := range quarantine {
		st.lose(q, errQuarantined)
	}
	for range contact {
		spawnPool.spawn(st.body)
	}

	select {
	case <-st.done:
		st.mu.Lock()
		res, rerr := st.result, st.err
		st.mu.Unlock()
		if rerr != nil {
			return ReadResult{}, rerr
		}
		if r.m != nil {
			r.m.ReportRead(res)
		}
		return res, nil
	case <-ctx.Done():
		return ReadResult{}, ctx.Err()
	}
}

// runConn is one server's subscription leg of a read, spawned once per
// contacted conn through the pooled spawn thunk.
func (st *readState) runConn() {
	defer st.release()
	c := st.contact[st.next.Add(1)-1]
	err := c.GetData(st.rctx, st.key, st.rid, st.sink)
	if st.rctx.Err() == nil {
		// The subscription died while the read still wanted it: a
		// crashed or closing server. Anything it already delivered
		// stays usable.
		if err == nil {
			err = errStreamClosed
		}
		reportSuspect(st.r.m, st.rctx, c.Index(), err)
		st.lose(c.Index(), err)
	}
}

// getState checks a readState out of the reader's pool. The state is
// returned by the last of its holders (the caller plus one goroutine
// per subscription) via release, which also advances the generation so
// that straggler relay deliveries for the old read are dropped.
func (r *Reader) getState() *readState {
	st, _ := r.states.Get().(*readState)
	if st == nil {
		n := len(r.conns)
		st = &readState{
			r:        r,
			initials: make([]Tag, n),
			hasInit:  make([]bool, n),
			lost:     make([]bool, n),
			views:    make([][]byte, n),
			done:     make(chan struct{}, 1),
		}
		st.body = st.runConn
	}
	return st
}

// release drops one hold; the last holder resets the state and pools
// it.
func (st *readState) release() {
	if st.refs.Add(-1) != 0 {
		return
	}
	st.mu.Lock()
	st.gen++
	r := st.r
	for i := 0; i < st.nvers; i++ {
		b := &st.vers[i]
		clear(b.ts.elems)
		b.ts.count, b.ts.tried = 0, 0
		b.v = version{}
	}
	st.nvers = 0
	clear(st.hasInit)
	clear(st.lost)
	for i := range st.initials {
		st.initials[i] = Tag{}
	}
	st.nInit, st.nLost = 0, 0
	st.tTargetSet, st.tTarget = false, Tag{}
	st.finished, st.result, st.err = false, ReadResult{}, nil
	st.rctx, st.key, st.rid, st.sink = nil, "", "", nil
	st.contact = st.contact[:0]
	select {
	case <-st.done: // unconsumed completion signal (caller left via ctx)
	default:
	}
	st.mu.Unlock()
	r.states.Put(st)
}

// version identifies one write as a read sees it: the tag plus the
// value length the delivering server claimed. Keying collected
// elements by the pair (rather than trusting the first server to
// report vlen for a tag) means a corrupt server lying about the
// length only pollutes its own bucket — the honest servers' elements
// still accumulate and decode.
type version struct {
	tag  Tag
	vlen int
}

// tagState accumulates the coded elements a read has collected for one
// version, indexed by server — a read touches every element slot, so
// flat arrays beat per-read maps on both allocation and access.
type tagState struct {
	elems [][]byte // server-indexed; nil = not yet delivered
	count int      // non-nil entries
	tried int      // element count at the last failed decode attempt
}

// versionBucket pairs a version with its element accumulator. The
// bucket list replaces a map because a read overwhelmingly sees one
// version (two or three under write concurrency): a linear scan is
// faster than hashing and the buckets recycle with the state.
type versionBucket struct {
	v  version
	ts tagState
}

// readState is the mutable heart of one Read: deliveries from all
// server subscriptions funnel into addLocked, which re-evaluates the
// completion rule. States are pooled per Reader; gen stamps each
// checkout so relay deliveries that outlive their read go inert
// instead of polluting the next one.
type readState struct {
	r  *Reader
	mu sync.Mutex

	gen  uint64       // checkout generation; advanced on pool return
	refs atomic.Int32 // caller + one per subscription goroutine
	next atomic.Int32 // conn claim counter for the spawn thunk
	body func()       // reusable spawn thunk: go st.body() allocates nothing

	// Per-read wiring, set before the spawns, cleared at pool time.
	rctx    context.Context
	key     string
	rid     string
	sink    func(Delivery)
	contact []Conn

	initials []Tag // server-indexed tag of the Initial delivery
	hasInit  []bool
	nInit    int
	lost     []bool // quarantined, crashed, or stream-dead servers
	nLost    int

	vers  []versionBucket
	nvers int
	views [][]byte // n-entry decode scratch; decodeElems clears it

	tTargetSet bool
	tTarget    Tag

	finished bool
	result   ReadResult
	err      error
	done     chan struct{} // cap 1; finish sends once per generation
}

func (st *readState) finish(res ReadResult, err error) {
	// mu held.
	if st.finished {
		return
	}
	st.finished = true
	st.result, st.err = res, err
	st.done <- struct{}{}
}

// bucket returns the accumulator for v, recycling a cleared bucket
// from a previous read when one is free.
func (st *readState) bucket(v version) *tagState {
	for i := 0; i < st.nvers; i++ {
		if st.vers[i].v == v {
			return &st.vers[i].ts
		}
	}
	if st.nvers == len(st.vers) {
		st.vers = append(st.vers, versionBucket{ts: tagState{elems: make([][]byte, len(st.r.conns))}})
	}
	b := &st.vers[st.nvers]
	b.v = v
	st.nvers++
	return &b.ts
}

// dropBucket clears bucket i and swaps it out of the live range,
// keeping its element array for reuse.
func (st *readState) dropBucket(i int) {
	b := &st.vers[i]
	clear(b.ts.elems)
	b.ts.count, b.ts.tried = 0, 0
	b.v = version{}
	st.nvers--
	if i != st.nvers {
		st.vers[i], st.vers[st.nvers] = st.vers[st.nvers], st.vers[i]
	}
}

// lose records a dead server (quarantined, crashed, or stream gone)
// and fails the read only once completion has become impossible.
// Deliveries already received from a now-dead server stay usable — a
// server that crashes after answering is the normal fault model — so
// the check reasons about what can still arrive, not a bare failure
// count.
func (st *readState) lose(server int, cause error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.finished || st.lost[server] {
		return
	}
	st.lost[server] = true
	st.nLost++
	n := len(st.r.conns)
	aliveNew := 0 // live servers that have not yet sent their initial
	for i := 0; i < n; i++ {
		if !st.hasInit[i] && !st.lost[i] {
			aliveNew++
		}
	}
	// The target tag needs initial responses from n-f distinct
	// servers; initials already in hand count even if their server
	// died since.
	if !st.tTargetSet && st.nInit+aliveNew < n-st.r.f {
		st.finish(ReadResult{}, fmt.Errorf("%w: server %d lost (%w); %d initial responses reachable, need %d",
			ErrUnavailable, server, cause, st.nInit+aliveNew, n-st.r.f))
		return
	}
	// Completion needs k+2e elements of one version. A future write
	// can still supply them through every live server; failing that,
	// an already-seen version can be completed by live servers that
	// have not contributed to it yet.
	need := st.r.codec.K() + 2*st.r.e
	if n-st.nLost >= need {
		return
	}
	achievable := 0
	for bi := 0; bi < st.nvers; bi++ {
		b := &st.vers[bi]
		if st.tTargetSet && b.v.tag.Less(st.tTarget) {
			continue
		}
		got := b.ts.count
		for i := 0; i < n; i++ {
			if b.ts.elems[i] == nil && !st.lost[i] {
				got++
			}
		}
		if got > achievable {
			achievable = got
		}
	}
	if achievable < need {
		st.finish(ReadResult{}, fmt.Errorf("%w: server %d lost (%w); at most %d elements of any version remain reachable, need %d",
			ErrUnavailable, server, cause, achievable, need))
	}
}

// addLocked folds one delivery into the read state and checks
// completion. Callers hold st.mu (the generation-checked sink, and
// tests driving the state machine directly take it via add).
func (st *readState) addLocked(d Delivery) {
	if st.finished || d.Server < 0 || d.Server >= len(st.r.conns) {
		return
	}
	if d.Initial && !st.hasInit[d.Server] {
		st.hasInit[d.Server] = true
		st.initials[d.Server] = d.Tag
		st.nInit++
	}
	// Accept only well-formed elements consistent with the claimed
	// value length (a malformed element is simply never counted, so
	// its server contributes nothing to this version), and only for
	// versions that can still complete the read: once t* is fixed,
	// deliveries below it are garbage the completion rule will never
	// touch, so they are dropped at the door instead of buffered.
	if !d.Tag.IsZero() && d.VLen > 0 && len(d.Elem) == st.r.codec.shardSize(d.VLen) &&
		!(st.tTargetSet && d.Tag.Less(st.tTarget)) {
		ts := st.bucket(version{tag: d.Tag, vlen: d.VLen})
		if ts.elems[d.Server] == nil {
			ts.elems[d.Server] = d.Elem
			ts.count++
		}
	}
	st.check()
}

// add is addLocked behind the lock.
func (st *readState) add(d Delivery) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.addLocked(d)
}

// check applies the completion rule: once initial responses from n-f
// servers fix tTarget (their maximum tag), the read completes with
// any tag >= tTarget holding k+2e coded elements that decode. A zero
// tTarget means the register was unwritten at every quorum server:
// the read returns the initial empty value.
func (st *readState) check() {
	// mu held.
	n := len(st.r.conns)
	if !st.tTargetSet {
		if st.nInit < n-st.r.f {
			return
		}
		for i := 0; i < n; i++ {
			if st.hasInit[i] && st.tTarget.Less(st.initials[i]) {
				st.tTarget = st.initials[i]
			}
		}
		st.tTargetSet = true
		// GC: every version bucket below t* is now unreachable by the
		// completion rule; free its element buffers. This is what keeps
		// a long-registered reader's memory bounded under a write storm
		// of old tags.
		for i := 0; i < st.nvers; {
			if st.vers[i].v.tag.Less(st.tTarget) {
				st.dropBucket(i)
			} else {
				i++
			}
		}
	}
	// Newest decodable version first: under write concurrency the
	// freshest one is the one to return. Selection is a repeated max
	// scan — the bucket list is one or two entries long, and a tried
	// bucket is never reselected until it grows.
	need := st.r.codec.K() + 2*st.r.e
	for {
		best := -1
		for i := 0; i < st.nvers; i++ {
			b := &st.vers[i]
			if b.ts.count < need || b.ts.count <= b.ts.tried {
				continue
			}
			if best == -1 || newerVersion(b.v, st.vers[best].v) {
				best = i
			}
		}
		if best == -1 {
			break
		}
		b := &st.vers[best]
		if res, ok := st.decode(b.v, &b.ts); ok {
			st.finish(res, nil)
			return
		}
		b.ts.tried = b.ts.count
	}
	if st.tTarget.IsZero() {
		st.finish(ReadResult{}, nil)
	}
}

// newerVersion orders candidate versions for decode: higher tag first,
// then longer claimed value.
func newerVersion(a, b version) bool {
	if c := a.tag.Compare(b.tag); c != 0 {
		return c > 0
	}
	return a.vlen > b.vlen
}

// decode attempts to turn the elements collected for tag t into a
// value through the codec's shared value decode. With e == 0 it
// erasure-decodes from any k elements (no decode at all when the k
// systematic data shards are present, the common case for an
// uncorrupted cluster). With e > 0 (SODA_err) it locates errors: Verify
// when all n elements are present, otherwise the syndrome decoder,
// which locates up to e corrupt servers; the guarantee holds because
// k+2e present elements leave at most n-k-2e erasures, inside the
// decoding radius. Delivered elements are never written. A failed
// decode (corruption beyond e) reports !ok and the read keeps waiting
// for more relays.
func (st *readState) decode(v version, ts *tagState) (ReadResult, bool) {
	codec := st.r.codec
	if ts.count < codec.K()+2*st.r.e {
		return ReadResult{}, false
	}
	value, corrupt, err := codec.decodeElems(ts.elems, v.vlen, st.r.e > 0, st.views)
	if err != nil {
		return ReadResult{}, false
	}
	return ReadResult{Tag: v.tag, Value: value, Corrupt: corrupt}, true
}
