package soda

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"
)

// Reconfigurator drives the two-phase online geometry flip:
//
//	seal ──▶ migrate ──▶ activate ──▶ install
//
// Seal freezes the old epoch on every member (old and new): sealed
// servers NACK client operations but keep serving donor reads of the
// frozen state, so writers and readers pause (their epoch-stamped
// frames bounce with "want = pending") while nothing moves underneath
// the migration. Migrate drains every key out of the old geometry —
// collect k agreeing elements from the old members, decode under the
// old [n,k] code, re-encode under the new one — and lays the new
// elements down on every new member with RepairPut at the pending
// epoch (the one frame class sealed servers accept, and tag-monotone,
// so re-running a crashed migration is idempotent). Activate flips
// every new member to the new epoch, and Install publishes the new
// Config to the shared view, releasing the waiting clients.
//
// Safety: a completed write has elements on n−f ≥ k old members, and
// the seal means no tag moves during the drain, so chooseVersion's
// k-agreement requirement finds every completed write's latest
// version; re-encoding preserves the value and the tag, so a read
// under the new epoch returns exactly what the old epoch would have.
// In-flight operations that straddle the flip either completed their
// quorum entirely before the seal (they count) or are NACKed and
// retried entirely under the new epoch (they re-assemble from
// scratch); no quorum ever spans both.
//
// Crash-safety: every transition is WAL-logged and force-synced on
// durable members before it applies, and all three phases are
// idempotent, so a coordinator (or member) that power-cuts mid-flip
// re-runs Apply and converges: a member that already sealed reports
// the seal, re-installed elements bounce off the tag floor, and a
// member that already activated acknowledges the retry. Any activated
// member proves the migration completed (activation is only ever
// issued after a full drain), so a re-run skips straight to finishing
// the activation.
type Reconfigurator struct {
	view    *ConfigView
	backoff Backoff
	logf    func(format string, args ...any)
}

// ReconfigOption configures a Reconfigurator.
type ReconfigOption func(*Reconfigurator)

// WithReconfigBackoff sets the retry schedule used inside each phase
// when a member is unreachable (default 20ms..2s). A flip does not
// give up on a member: a node power-cut mid-flip blocks the phase
// until it recovers, which is what keeps activation from outrunning
// the drain.
func WithReconfigBackoff(b Backoff) ReconfigOption {
	return func(rc *Reconfigurator) { rc.backoff = b }
}

// WithReconfigLogf installs a progress logger (phase transitions and
// per-member retries).
func WithReconfigLogf(logf func(format string, args ...any)) ReconfigOption {
	return func(rc *Reconfigurator) { rc.logf = logf }
}

// NewReconfigurator builds the coordinator around the cluster's
// shared ConfigView.
func NewReconfigurator(view *ConfigView, opts ...ReconfigOption) *Reconfigurator {
	rc := &Reconfigurator{
		view:    view,
		backoff: Backoff{Base: 20 * time.Millisecond, Max: 2 * time.Second},
		logf:    func(string, ...any) {},
	}
	for _, opt := range opts {
		opt(rc)
	}
	return rc
}

// reconfigConn asserts the Reconfigurer capability on a member conn.
func reconfigConn(c Conn) (Reconfigurer, error) {
	if r, ok := c.(Reconfigurer); ok {
		return r, nil
	}
	return nil, fmt.Errorf("%w: conn for server %d does not support reconfiguration", ErrConfig, c.Index())
}

// members is the seal set of a flip: every server in the old or new
// configuration, each exactly once. Old and new conns for one shard
// index address the same server (membership is index-prefix: growing
// appends indices, shrinking drops the tail), so the set is the
// longer conn list's indices, preferring the old conn for indices
// both cover — retired members must seal too, or a lagging writer
// could complete an old-epoch quorum against them.
func members(old, next *Config) []Conn {
	out := slices.Clone(old.Conns)
	for _, c := range next.Conns {
		if c.Index() >= len(old.Conns) {
			out = append(out, c)
		}
	}
	return out
}

// sleep waits one backoff step or until ctx ends.
func (rc *Reconfigurator) sleep(ctx context.Context, b *Backoff) error {
	t := time.NewTimer(b.Next())
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// eachUntil applies fn to every conn, retrying the failures with
// backoff until all succeed or ctx ends.
func (rc *Reconfigurator) eachUntil(ctx context.Context, phase string, conns []Conn, fn func(Conn) error) error {
	pending := slices.Clone(conns)
	b := rc.backoff
	for {
		var failed []Conn
		var firstErr error
		for _, c := range pending {
			if err := fn(c); err != nil {
				if firstErr == nil {
					firstErr = err
				}
				failed = append(failed, c)
			}
		}
		if len(failed) == 0 {
			return nil
		}
		rc.logf("reconfig: %s: %d member(s) pending (%v), retrying", phase, len(failed), firstErr)
		if err := rc.sleep(ctx, &b); err != nil {
			return fmt.Errorf("reconfig %s: %w (last member error: %w)", phase, err, firstErr)
		}
		pending = failed
	}
}

// Apply performs one online reconfiguration from the view's current
// configuration to next, blocking until the new epoch is active and
// installed. Safe to re-run after a coordinator crash; returns only
// on success or context end.
func (rc *Reconfigurator) Apply(ctx context.Context, next *Config) error {
	if err := next.validate(); err != nil {
		return err
	}
	old := rc.view.Current()
	if next.Epoch <= old.Epoch {
		return fmt.Errorf("%w: reconfiguring to epoch %d from %d", ErrConfig, next.Epoch, old.Epoch)
	}

	// Phase 0: status probe. Any new member already at (or past) the
	// target epoch proves a previous run finished the drain and began
	// activating; skip straight to re-issuing the activation.
	activated := 0
	for _, c := range next.Conns {
		r, err := reconfigConn(c)
		if err != nil {
			return err
		}
		if st, err := r.Reconfig(ctx, ReconfigStatus, 0, 0, 0); err == nil && st.Epoch >= next.Epoch {
			activated++
		}
	}

	if activated == 0 {
		// Phase 1: seal every member of both configurations.
		rc.logf("reconfig: sealing epoch %d pending %d across %d member(s)", old.Epoch, next.Epoch, len(members(old, next)))
		err := rc.eachUntil(ctx, "seal", members(old, next), func(c Conn) error {
			r, err := reconfigConn(c)
			if err != nil {
				return err
			}
			_, err = r.Reconfig(ctx, ReconfigSeal, next.Epoch, next.N(), next.K())
			return err
		})
		if err != nil {
			return err
		}

		// Phase 2: drain the frozen namespace into the new geometry.
		if err := rc.migrate(ctx, old, next); err != nil {
			return err
		}
	} else {
		rc.logf("reconfig: %d member(s) already at epoch %d; resuming activation", activated, next.Epoch)
	}

	// Phase 3: activate every new member. Retired members stay sealed
	// forever — their epoch never answers another client quorum.
	err := rc.eachUntil(ctx, "activate", next.Conns, func(c Conn) error {
		r, err := reconfigConn(c)
		if err != nil {
			return err
		}
		_, err = r.Reconfig(ctx, ReconfigActivate, next.Epoch, next.N(), next.K())
		return err
	})
	if err != nil {
		return err
	}

	// Phase 4: publish. Waiting clients (EpochWriter/EpochReader in
	// Await) wake here and retry under the new geometry.
	if err := rc.view.Install(next); err != nil {
		// A concurrent coordinator may have installed past us; epoch
		// monotonicity already holds, so only a genuinely conflicting
		// install is an error.
		if rc.view.Current().Epoch >= next.Epoch {
			return nil
		}
		return err
	}
	rc.logf("reconfig: epoch %d active (n=%d k=%d)", next.Epoch, next.N(), next.K())
	return nil
}

// migrate drains every key from the old configuration into the new
// one: enumerate the frozen namespace from the old members, and for
// each key collect k agreeing elements, decode under the old code,
// re-encode under the new, and install on every new member at the
// pending epoch. Keys that cannot reach k agreement yet (a donor
// mid-recovery) retry with backoff; the drain does not finish without
// them.
func (rc *Reconfigurator) migrate(ctx context.Context, old, next *Config) error {
	oldF := old.F
	if oldF < 0 {
		oldF = (old.N() - old.K()) / 2
	}

	// Enumerate from at least n−f old members: a completed write's key
	// lives on n−f of them, and (n−f)+(n−f) > n means any two such
	// quorums intersect, so the union over n−f enumerations cannot miss
	// a completed write.
	var keys []string
	b := rc.backoff
	for {
		union := make(map[string]struct{})
		answers := 0
		var firstErr error
		for _, c := range old.Conns {
			ks, err := c.Keys(ctx)
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			answers++
			for _, k := range ks {
				union[k] = struct{}{}
			}
		}
		if answers >= old.N()-oldF {
			keys = make([]string, 0, len(union))
			for k := range union {
				keys = append(keys, k)
			}
			slices.Sort(keys)
			break
		}
		rc.logf("reconfig: migrate: only %d of %d donors enumerated (%v), retrying", answers, old.N(), firstErr)
		if err := rc.sleep(ctx, &b); err != nil {
			return fmt.Errorf("reconfig migrate: enumerating keys: %w (last donor error: %w)", err, firstErr)
		}
	}

	rc.logf("reconfig: migrating %d key(s) from [n=%d,k=%d] to [n=%d,k=%d]", len(keys), old.N(), old.K(), next.N(), next.K())
	for _, key := range keys {
		if err := rc.migrateKey(ctx, old, next, key); err != nil {
			return err
		}
	}
	return nil
}

// migrateKey drains one key, retrying collection until k old members
// agree on a version.
func (rc *Reconfigurator) migrateKey(ctx context.Context, old, next *Config, key string) error {
	b := rc.backoff
	for {
		ver, elems, err := rc.collectOld(ctx, old, key)
		if err == nil {
			return rc.installNew(ctx, old, next, key, ver, elems)
		}
		if !errors.Is(err, ErrRepairQuorum) {
			return err
		}
		rc.logf("reconfig: migrate %q: %v, retrying", key, err)
		if serr := rc.sleep(ctx, &b); serr != nil {
			return fmt.Errorf("reconfig migrate %q: %w (last collection error: %w)", key, serr, err)
		}
	}
}

// collectOld gathers the key's elements from the old members and picks
// the highest version at least k of them vouch for. The cluster is
// sealed, so "no k-agreement" can only mean donors are down or still
// recovering — a retryable state, reported as ErrRepairQuorum.
func (rc *Reconfigurator) collectOld(ctx context.Context, old *Config, key string) (version, map[int][]byte, error) {
	var donations []donation
	for _, c := range old.Conns {
		t, elem, vlen, err := c.GetElem(ctx, key)
		if err != nil {
			if ctx.Err() != nil {
				return version{}, nil, ctx.Err()
			}
			continue
		}
		if !t.IsZero() && (vlen <= 0 || len(elem) != old.Codec.shardSize(vlen)) {
			continue // malformed donor element; contributes nothing
		}
		donations = append(donations, donation{server: c.Index(), ver: version{tag: t, vlen: vlen}, elem: elem})
	}
	ver, elems := chooseVersion(donations, old.K())
	if elems == nil {
		return version{}, nil, fmt.Errorf("%w: key %q, %d donors", ErrRepairQuorum, key, len(donations))
	}
	return ver, elems, nil
}

// installNew re-encodes one version under the new geometry and lays it
// down on every new member at the pending epoch.
func (rc *Reconfigurator) installNew(ctx context.Context, old, next *Config, key string, ver version, elems map[int][]byte) error {
	var shards [][]byte
	if !ver.tag.IsZero() {
		// Decode the value under the old code, locating corrupt donors
		// whenever the old code can: a correctable rotted donor must not
		// become a permanent, undetectable fault of the new geometry...
		oldElems := make([][]byte, old.N())
		for i, el := range elems {
			oldElems[i] = el
		}
		value, corrupt, err := old.Codec.decodeElems(oldElems, ver.vlen, old.Codec.MaxReadErrors() > 0, nil)
		if err != nil {
			return fmt.Errorf("reconfig migrate %q: decoding under old geometry: %w", key, err)
		}
		if len(corrupt) > 0 {
			rc.logf("reconfig: migrate %q: corrected corrupt donor element(s) %v", key, corrupt)
		}
		// ...and re-encode it under the new one.
		shards, err = next.Codec.EncodeValue(value)
		if err != nil {
			return fmt.Errorf("reconfig migrate %q: re-encoding under new geometry: %w", key, err)
		}
	}
	return rc.eachUntil(ctx, "install "+key, next.Conns, func(c Conn) error {
		var elem []byte
		if shards != nil {
			elem = shards[c.Index()]
		}
		// Tag-monotone and idempotent: a re-run's install bounces off
		// the tag floor, and accepted=false (the member already holds
		// something at least as new) is success, not conflict.
		_, err := c.RepairPut(ctx, key, ver.tag, elem, ver.vlen)
		return err
	})
}
