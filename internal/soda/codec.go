package soda

import (
	"errors"
	"fmt"

	"repro/internal/rs"
)

var (
	// ErrEmptyValue is returned by writes of a zero-length value; the
	// register's initial state already is the empty value.
	ErrEmptyValue = errors.New("soda: empty value")
	// ErrConfig is returned for unusable writer/reader/cluster
	// configurations.
	ErrConfig = errors.New("soda: invalid configuration")
)

// Codec turns register values into the n coded elements SODA servers
// store, and back. Server i always receives codeword shard i, so the
// shard index is the server's identity in the code. It is safe for
// concurrent use.
type Codec struct {
	enc *rs.Encoder
}

// NewCodec builds the [n, k] codec a cluster of n servers shares.
// Options pass through to rs.New — in particular
// rs.WithGenerator(rs.GeneratorRSView) is required for SODA_err
// readers (WithReadErrors).
func NewCodec(n, k int, opts ...rs.Option) (*Codec, error) {
	enc, err := rs.New(n, k, opts...)
	if err != nil {
		return nil, err
	}
	return &Codec{enc: enc}, nil
}

// N returns the number of servers (total shards).
func (c *Codec) N() int { return c.enc.N() }

// K returns the number of coded elements a read must gather.
func (c *Codec) K() int { return c.enc.K() }

// Generator reports the underlying generator strategy.
func (c *Codec) Generator() rs.Generator { return c.enc.Generator() }

// MaxReadErrors returns the largest e usable with WithReadErrors: the
// number of corrupt elements the codec can locate with no erasures,
// or 0 when the generator has no syndrome structure.
func (c *Codec) MaxReadErrors() int { return c.enc.MaxErrors(0) }

// shardSize is the coded-element size for a value of vlen bytes: the
// value is cut into k equal data shards, zero-padding the last.
func (c *Codec) shardSize(vlen int) int {
	k := c.enc.K()
	return (vlen + k - 1) / k
}

// EncodeValue encodes a value into its n coded elements: shards
// 0..k-1 are the value itself (systematic code, zero-padded to equal
// size) and shards k..n-1 are parity. Element i belongs to server i.
func (c *Codec) EncodeValue(value []byte) ([][]byte, error) {
	if len(value) == 0 {
		return nil, ErrEmptyValue
	}
	n := c.enc.N()
	s := c.shardSize(len(value))
	buf := make([]byte, n*s)
	copy(buf, value) // the k data shards are the leading k*s bytes
	shards := make([][]byte, n)
	for i := range shards {
		shards[i] = buf[i*s : (i+1)*s]
	}
	if err := c.enc.EncodeInto(shards); err != nil {
		return nil, err
	}
	return shards, nil
}

// encodeValueInto is EncodeValue against a reusable scratch: the
// caller's buffer is grown once to n*s and resliced into shards, so a
// steady-state writer allocates nothing per write. The data region is
// rebuilt from the value (padding re-zeroed — the buffer is recycled
// and EncodeInto reads the pad bytes); the parity region needs no
// clearing because EncodeInto fully overwrites it.
func (c *Codec) encodeValueInto(value []byte, sc *encodeScratch) error {
	if len(value) == 0 {
		return ErrEmptyValue
	}
	n, k := c.enc.N(), c.enc.K()
	s := c.shardSize(len(value))
	if total := n * s; cap(sc.buf) < total {
		sc.buf = make([]byte, total)
	} else {
		sc.buf = sc.buf[:total]
	}
	copy(sc.buf, value)
	clear(sc.buf[len(value) : k*s])
	if cap(sc.shards) < n {
		sc.shards = make([][]byte, n)
	} else {
		sc.shards = sc.shards[:n]
	}
	for i := range sc.shards {
		sc.shards[i] = sc.buf[i*s : (i+1)*s]
	}
	return c.enc.EncodeInto(sc.shards)
}

// DecodeValue reassembles a value of vlen bytes from the k data
// shards (shards[0..k-1] must be present at the element size for
// vlen; parity entries are ignored).
func (c *Codec) DecodeValue(shards [][]byte, vlen int) ([]byte, error) {
	if vlen <= 0 {
		return nil, fmt.Errorf("%w: value length %d", ErrConfig, vlen)
	}
	k := c.enc.K()
	s := c.shardSize(vlen)
	if len(shards) < k {
		return nil, fmt.Errorf("%w: %d shards, need the %d data shards", ErrConfig, len(shards), k)
	}
	out := make([]byte, k*s)
	for i := 0; i < k; i++ {
		if len(shards[i]) != s {
			return nil, fmt.Errorf("%w: data shard %d has %d bytes, want %d", ErrConfig, i, len(shards[i]), s)
		}
		copy(out[i*s:], shards[i])
	}
	return out[:vlen], nil
}

// decodeElems turns the elements collected for one version into its
// value of vlen bytes. It is the one value decode shared by reads and
// migration. elems is server-indexed (nil = not collected), and every
// present entry must be shardSize(vlen) bytes. The elements are only
// read, since they may alias server storage or a transport's delivery.
// The k data shards are decoded straight into the returned value's
// buffer, which is the call's only large allocation.
//
// With locate set, the syndrome decoder cross-checks the elements:
// when all n are present and Verify passes, the data shards are simply
// copied; otherwise DecodeErrorsTo locates and corrects up to
// floor((n-k-f)/2) corrupt elements, whose ascending indices are
// returned. Without it, present elements are trusted and only missing
// data shards are erasure-decoded from any k of them.
//
// views is n entries of slice-header scratch (nil allocates them). It
// is cleared before return, so a pooled owner pins no element.
func (c *Codec) decodeElems(elems [][]byte, vlen int, locate bool, views [][]byte) ([]byte, []int, error) {
	n, k := c.enc.N(), c.enc.K()
	if vlen <= 0 {
		return nil, nil, fmt.Errorf("%w: value length %d", ErrConfig, vlen)
	}
	if len(elems) != n {
		return nil, nil, fmt.Errorf("%w: %d elements, want %d", ErrConfig, len(elems), n)
	}
	s := c.shardSize(vlen)
	present := 0
	for i, el := range elems {
		if el == nil {
			continue
		}
		if len(el) != s {
			return nil, nil, fmt.Errorf("%w: element %d has %d bytes, want %d", ErrConfig, i, len(el), s)
		}
		present++
	}
	if views == nil {
		views = make([][]byte, n)
	}
	defer clear(views)
	buf := make([]byte, k*s)
	region := func(i int) []byte { return buf[i*s : i*s : (i+1)*s] }

	if locate {
		if present == n {
			if ok, _ := c.enc.Verify(elems); ok {
				for i := 0; i < k; i++ {
					copy(buf[i*s:], elems[i])
				}
				return buf[:vlen], nil, nil
			}
		}
		for i := 0; i < k; i++ {
			views[i] = region(i)
		}
		corrupt, err := c.enc.DecodeErrorsTo(elems, views, nil)
		if err != nil {
			return nil, nil, err
		}
		return buf[:vlen], corrupt, nil
	}

	missing := false
	for i, el := range elems {
		views[i] = el
		if i >= k {
			continue
		}
		if el != nil {
			copy(buf[i*s:], el)
		} else {
			views[i] = region(i)
			missing = true
		}
	}
	if missing {
		if err := c.enc.ReconstructInto(views); err != nil {
			return nil, nil, err
		}
	}
	return buf[:vlen], nil, nil
}
