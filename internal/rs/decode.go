package rs

import (
	"bytes"
	"crypto/subtle"
	"fmt"
	"slices"

	"repro/internal/gf256"
	"repro/internal/matrix"
)

// Syndrome-based error-and-erasure decoding.
//
// SODA_err (Konwar et al., IPDPS 2016) must tolerate servers that
// return *wrong* coded elements, not just servers that return nothing:
// during steady state the paper requires n >= k + 2e for e corrupt
// responses, and with f additional erasures the decoding radius is
// 2e + f <= n - k. DecodeErrors realizes that bound: it locates and
// corrects the corrupt shards without being told which they are.
//
// Notation: F is the set of erased positions (f = |F|), X_i the locator
// of position i, Gamma(x) = prod_{p in F} (1 + X_p x) the erasure
// locator, and H the RS-view code's GRS parity check
// (matrix.GRSParityCheck), H[t][i] = w_i * X_i^t for t < d = n-k. The
// erasures are folded into the check before anything is computed, so
// the decoder works on the code punctured at F: it never solves for an
// erased shard, and rebuilds one only if the caller asked for it. The
// pipeline, in order of bytes touched:
//
//  1. Punctured syndromes. The rows t' = sum_j Gamma_j * H[t'+f-j],
//     t' < d-f, are H'[t'][i] = w_i * gamma_i * X_i^t' with
//     gamma_i = prod_{p in F} (X_i + X_p) = X_i^f * Gamma(1/X_i), which
//     vanishes exactly on F: H' is again a GRS parity check, that of the
//     [n-f, k] code punctured at F. Its d-f rows over the present
//     columns (cached per erasure mask; with f = 0 they are H itself)
//     give the erasure-modified syndrome shards Xi in one fused,
//     L2-tiled, worker-pool-striped pass — the same codeStriped
//     machinery Encode uses. This is the only full-width pass over the
//     input: everything after it reads the much smaller Xi shards.
//     All-zero Xi (no corrupt shard) costs exactly this pass plus a
//     scan.
//
//  2. Support discovery. A corrupt byte column makes its Xi column a
//     power-sum sequence of its error locators, so Berlekamp-Massey
//     plus Chien search (gf256/bm.go) on that one column yield up to
//     floor((d-f)/2) error positions directly. Because real corruption
//     is shard-granular, a handful of columns — usually one — reveals
//     the whole support; the consistency check below tells us when the
//     support is complete, so we never scan columns we do not need.
//
//  3. Error magnitudes, in bulk. With the located errors U (nu = |U|)
//     fixed, the magnitudes of every byte column solve the same
//     nu x nu system: the first nu rows of H' restricted to U, a
//     nonsingular diag(w*gamma)*Vandermonde block. Its inverse is
//     applied to the Xi shards with the fused kernels — magnitude
//     shards = M^-1 * Xi — and the d-f-nu leftover rows are recomputed
//     from the magnitudes and compared: they agree if and only if U
//     covers every corrupt column (a miss would need an error vector
//     of weight > d-f to fool the d-f rows of the punctured MDS check),
//     so a mismatch column feeds back into step 2. The solve setup is
//     cached per (F, U), like reconstruction's decode matrices, so a
//     stable corruption pattern pays the algebra once. Erasures get no
//     magnitude.
//
//  4. Apply. The input shards are only ever read, so the corrected
//     codeword is written to caller-chosen output buffers: present
//     shards are copied out, and a corrupt shard is written as shard XOR
//     magnitude in one pass. Only the erased shards the caller wants
//     are rebuilt, from k present uncorrupted shards through
//     reconstruct's cached decode matrices (inside the radius
//     n-f-nu >= k of them exist). An output buffer that is its input
//     shard is corrected in place, with no copy.
//
// decodeErrorsBrute is the combinatorial alternative kept as the test
// oracle and benchmark baseline: C(n, e) trial erasure-decodes with a
// full re-encode check each. BenchmarkDecodeErrors compares the two.

// DecodeErrors locates and corrects corrupt shards. Up to f shards may
// be missing (nil or empty: erasures) and up to e present shards may be
// silently corrupt, for any e, f with 2e + f <= n-k. Erased shards are
// allocated and filled, corrupt shards are corrected in place, and the
// ascending indices of the shards that were actually corrupt are
// returned. Shards beyond the decoding radius return ErrTooManyErrors.
// The Encoder must have been built with WithGenerator(GeneratorRSView);
// other generators return ErrNoSyndromes.
func (e *Encoder) DecodeErrors(shards [][]byte) ([]int, error) {
	return e.decodeErrors(shards, shards, nil, true)
}

// DecodeErrorsTo is the read-only, allocation-free form of
// DecodeErrors: shards is never written, and the corrected codeword is
// delivered into caller buffers instead. A nil or empty shards entry is
// an erasure. For every i with out[i] != nil, the corrected shard i is
// written into out[i][:size] and out[i] is resliced to that length:
// present shards are copied, erased shards receive their rebuilt
// contents, and corrupt shards their corrected ones. A nil out entry is
// not written, and an erasure whose out entry is nil costs nothing. out[i]
// may be shards[i] itself, which corrects that shard in place; any
// other out buffer must not overlap an input shard. Corrupt shard
// indices are appended to corrupt[:0] and returned; give it capacity
// n-k to keep the call allocation-free. On error no out buffer has been
// written.
func (e *Encoder) DecodeErrorsTo(shards, out [][]byte, corrupt []int) ([]int, error) {
	if len(out) != e.n {
		return nil, fmt.Errorf("%w: got %d output buffers, want %d", ErrShardCount, len(out), e.n)
	}
	return e.decodeErrors(shards, out, corrupt[:0], false)
}

// DecodeErrorsInto is DecodeErrorsTo correcting shards in place
// (out = shards): a shard to rebuild is a zero-length slice with
// capacity for the shard size, and a nil entry is an erasure that is
// accounted for but not rebuilt.
func (e *Encoder) DecodeErrorsInto(shards [][]byte, corrupt []int) ([]int, error) {
	return e.decodeErrors(shards, shards, corrupt[:0], false)
}

// MaxErrors returns the number of silently corrupt shards DecodeErrors
// can locate alongside the given number of erasures: floor((n-k-f)/2),
// or 0 when the generator has no syndrome structure.
func (e *Encoder) MaxErrors(erasures int) int {
	if e.syn == nil {
		return 0
	}
	m := (e.n - e.k - erasures) / 2
	if m < 0 {
		m = 0
	}
	return m
}

// decodeChunk bounds the scratch of the consistency scan (step 3's
// compare of recomputed vs actual Xi rows).
const decodeChunk = 32 << 10

// decodeScratch recycles every buffer of the decode pipeline so
// DecodeErrorsTo performs no steady-state heap allocation. The large
// buf holds the d-f Xi shards and up to (d-f)/2 magnitude shards; the
// rest are fixed-size views and small-field working arrays.
type decodeScratch struct {
	buf  []byte   // xi ((d-f)*size) then mags ((d-f)/2*size), grown on demand
	xi   [][]byte // cap d views into buf
	mags [][]byte // cap d views into buf

	present []int    // ascending indices of present shards
	erased  []int    // ascending erasure positions (F)
	errs    []int    // ascending located error positions (U)
	ins     [][]byte // cap n input views
	views   [][]byte // cap n reconstruct views for the wanted erasures
	hrows   [][]byte // cap d check-row views
	coeffs  [][]byte // cap d coefficient-row views for the solve
	chunk   [][]byte // cap d chunked magnitude views for the scan
	cmp     []byte   // cap decodeChunk expected-Xi scratch

	scol  []byte // cap d one Xi column
	roots []int  // cap n Chien results
	bm    gf256.BM
}

func (e *Encoder) getDecodeScratch() *decodeScratch {
	s, _ := e.decscratch.Get().(*decodeScratch)
	if s == nil {
		d := e.n - e.k
		s = &decodeScratch{
			xi:      make([][]byte, d),
			mags:    make([][]byte, d),
			present: make([]int, 0, e.n),
			erased:  make([]int, 0, e.n),
			errs:    make([]int, 0, e.n),
			ins:     make([][]byte, e.n),
			views:   make([][]byte, e.n),
			hrows:   make([][]byte, d),
			coeffs:  make([][]byte, d),
			chunk:   make([][]byte, d),
			cmp:     make([]byte, decodeChunk),
			scol:    make([]byte, d),
			roots:   make([]int, 0, e.n),
		}
	}
	return s
}

func (e *Encoder) putDecodeScratch(s *decodeScratch) {
	clear(s.ins) // do not pin shard memory from the pool
	clear(s.views)
	e.decscratch.Put(s)
}

// decodeErrors is the shared pipeline. shards is only read; the
// corrected codeword goes to out, which may alias shards. With alloc
// set every erasure is rebuilt into a fresh buffer (DecodeErrors);
// otherwise only erasures with a non-nil out entry are rebuilt, into
// that entry's capacity.
func (e *Encoder) decodeErrors(shards, out [][]byte, corrupt []int, alloc bool) ([]int, error) {
	if len(shards) != e.n {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrShardCount, len(shards), e.n)
	}
	d := e.n - e.k
	if e.syn == nil && d > 0 {
		return nil, fmt.Errorf("%w (generator %s; use WithGenerator(GeneratorRSView))", ErrNoSyndromes, e.genKind)
	}
	s := e.getDecodeScratch()
	defer e.putDecodeScratch(s)

	size := -1
	s.present = s.present[:0]
	s.erased = s.erased[:0]
	for i, sh := range shards {
		if len(sh) == 0 {
			s.erased = append(s.erased, i)
			continue
		}
		if size < 0 {
			size = len(sh)
		} else if len(sh) != size {
			return nil, fmt.Errorf("%w: shard %d has size %d, want %d", ErrShardSize, i, len(sh), size)
		}
		s.present = append(s.present, i)
	}
	if len(s.present) < e.k {
		return nil, fmt.Errorf("%w: have %d, need %d", ErrTooFewShards, len(s.present), e.k)
	}
	f := len(s.erased)
	if !alloc {
		for i, o := range out {
			if o != nil && cap(o) < size {
				return nil, fmt.Errorf("%w: shard %d buffer capacity %d < shard size %d", ErrShardSize, i, cap(o), size)
			}
		}
	}

	// r = d-f punctured check rows; with r == 0 every redundant shard is
	// spent on erasures and nothing can be located (or needs to be).
	r := d - f
	s.errs = s.errs[:0]
	if r > 0 {
		// Step 1: the Xi shards over the present shards.
		if f == 0 {
			for t := 0; t < r; t++ {
				s.hrows[t] = e.syn.check.Row(t)
			}
		} else {
			h := e.puncturedCheck(s.erased)
			for t := 0; t < r; t++ {
				s.hrows[t] = h.Row(t)
			}
		}
		need := (r + r/2) * size
		if cap(s.buf) < need {
			s.buf = make([]byte, need)
		}
		buf := s.buf[:need]
		for t := 0; t < r; t++ {
			s.xi[t] = buf[t*size : (t+1)*size]
		}
		ins := s.ins[:len(s.present)]
		for j, idx := range s.present {
			ins[j] = shards[idx]
		}
		e.codeStriped(s.hrows[:r], ins, s.xi[:r], size)

		// Steps 2+3: alternate bulk magnitude solves with single-column
		// support discovery until the leftover rows are consistent. Each
		// round either finishes or adds at least one new error position,
		// and the radius check bounds the rounds by (d-f)/2.
		var setup *matrix.Matrix
		for {
			nu := len(s.errs)
			if nu > 0 {
				var err error
				if setup, err = e.errataSetup(s.erased, s.errs); err != nil {
					return nil, err
				}
				for j := 0; j < nu; j++ {
					s.coeffs[j] = setup.Row(j)
					s.mags[j] = buf[(r+j)*size : (r+j+1)*size]
				}
				e.codeStriped(s.coeffs[:nu], s.xi[:nu], s.mags[:nu], size)
			}
			col := e.inconsistentColumn(s, setup, nu, r, size)
			if col < 0 {
				break
			}
			for t := 0; t < r; t++ {
				s.scol[t] = s.xi[t][col]
			}
			if err := e.discoverSupport(s, d, f); err != nil {
				return nil, err
			}
		}
	}

	// Step 4. Rebuilding the wanted erasures is the one step that can
	// still fail, so it runs first: on error no out buffer is written.
	if err := e.rebuildErased(s, shards, out, size, alloc); err != nil {
		return nil, err
	}
	u := 0
	for _, i := range s.present {
		bad := u < len(s.errs) && s.errs[u] == i
		if bad {
			u++
		}
		o := out[i]
		if o == nil {
			continue
		}
		o = o[:size]
		switch {
		case bad:
			subtle.XORBytes(o, shards[i], s.mags[u-1])
		case &o[0] != &shards[i][0]:
			copy(o, shards[i])
		}
		out[i] = o
	}
	return append(corrupt, s.errs...), nil
}

// rebuildErased rebuilds every erased shard the caller wants — all of
// them with alloc, else those with a non-nil out entry — from the first
// k present shards outside the located errors, and stores each into
// its out entry.
func (e *Encoder) rebuildErased(s *decodeScratch, shards, out [][]byte, size int, alloc bool) error {
	views := s.views
	want := false
	for _, p := range s.erased {
		switch {
		case alloc:
			views[p] = make([]byte, 0, size)
		case out[p] != nil:
			views[p] = out[p][:0]
		default:
			continue
		}
		want = true
	}
	if !want {
		return nil
	}
	chosen, u := 0, 0
	for _, i := range s.present {
		if chosen == e.k {
			break
		}
		if u < len(s.errs) && s.errs[u] == i {
			u++
			continue
		}
		views[i] = shards[i]
		chosen++
	}
	if err := e.reconstruct(views, false, true); err != nil {
		return err
	}
	for _, p := range s.erased {
		if views[p] != nil {
			out[p] = views[p]
		}
	}
	return nil
}

// inconsistentColumn returns the byte offset of the first column whose
// Xi values are not explained by the solved magnitudes, or -1 when all
// r rows agree. With no error located (nu == 0) it is a plain nonzero
// scan of the Xi shards; otherwise each leftover row t >= nu is
// recomputed from the magnitude shards in bounded chunks and compared.
func (e *Encoder) inconsistentColumn(s *decodeScratch, setup *matrix.Matrix, nu, r, size int) int {
	for t := nu; t < r; t++ {
		if nu == 0 {
			if i := firstNonzero(s.xi[t]); i >= 0 {
				return i
			}
			continue
		}
		row := setup.Row(t)
		for lo := 0; lo < size; lo += decodeChunk {
			hi := lo + decodeChunk
			if hi > size {
				hi = size
			}
			for j := 0; j < nu; j++ {
				s.chunk[j] = s.mags[j][lo:hi]
			}
			cmp := s.cmp[:hi-lo]
			gf256.MulMulti(row, s.chunk[:nu], cmp)
			if !bytes.Equal(cmp, s.xi[t][lo:hi]) {
				for i := range cmp {
					if cmp[i] != s.xi[t][lo+i] {
						return lo + i
					}
				}
			}
		}
	}
	return -1
}

// discoverSupport runs Berlekamp-Massey and Chien search on the
// gathered Xi column s.scol, which is already a power-sum sequence of
// the column's error locators. Newly located error positions are
// inserted into s.errs; failure to make progress within the decoding
// radius is ErrTooManyErrors.
func (e *Encoder) discoverSupport(s *decodeScratch, d, f int) error {
	lambda := s.bm.Run(s.scol[:d-f])
	nu := gf256.PolyDegree(lambda)
	if nu <= 0 || 2*nu > d-f {
		// An inconsistent column with no locatable error (nu == 0) or a
		// locator past the radius: the shards are outside 2e + f <= n-k.
		return fmt.Errorf("%w: column locator degree %d with %d erasures, %d parity shards", ErrTooManyErrors, nu, f, d)
	}
	s.roots = gf256.ChienSearchInto(s.roots, lambda, e.syn.points)
	if len(s.roots) != nu {
		return fmt.Errorf("%w: locator degree %d with %d roots", ErrTooManyErrors, nu, len(s.roots))
	}
	added := 0
	for _, p := range s.roots {
		if slices.Contains(s.erased, p) || slices.Contains(s.errs, p) {
			continue
		}
		s.errs = append(s.errs, p)
		added++
	}
	if added == 0 {
		return fmt.Errorf("%w: no new error position from an inconsistent column", ErrTooManyErrors)
	}
	slices.Sort(s.errs)
	if 2*len(s.errs)+f > d {
		return fmt.Errorf("%w: located %d errors and %d erasures against %d parity shards", ErrTooManyErrors, len(s.errs), f, d)
	}
	return nil
}

// puncturedWeight returns w_i * gamma_i, the column multiplier of
// position i in the check punctured at the ascending erasures F:
// gamma_i = prod_{p in F} (X_i + X_p), zero exactly on F.
func (e *Encoder) puncturedWeight(i int, erased []int) byte {
	g := e.syn.mults[i]
	for _, p := range erased {
		g = gf256.Mul(g, e.syn.points[i]^e.syn.points[p])
	}
	return g
}

// puncturedCheck returns the cached (d-f) x (n-f) check of the code
// punctured at the ascending erasures F (0 < f < d), its columns the
// present positions in ascending order: H'[t][j] = w_i*gamma_i*X_i^t
// for the j-th present position i.
func (e *Encoder) puncturedCheck(erased []int) *matrix.Matrix {
	key := maskOf(erased)
	if e.punctureCache != nil {
		if h, ok := e.punctureCache.get(key); ok {
			return h
		}
	}
	r := e.n - e.k - len(erased)
	h := matrix.New(r, e.n-len(erased))
	j := 0
	for i := 0; i < e.n; i++ {
		if key.has(i) {
			continue
		}
		v := e.puncturedWeight(i, erased)
		for t := 0; t < r; t++ {
			h.Set(t, j, v)
			v = gf256.Mul(v, e.syn.points[i])
		}
		j++
	}
	if e.punctureCache != nil {
		e.punctureCache.put(key, h)
	}
	return h
}

// errataSetup returns the cached (d-f) x nu solve matrix for the
// ascending error positions U in the check punctured at the ascending
// erasures F: rows 0..nu-1 hold the inverse of the first nu punctured
// rows restricted to U (magnitudes = inverse * Xi), and rows nu..d-f-1
// hold the raw leftover rows used by the consistency scan.
func (e *Encoder) errataSetup(erased, errs []int) (*matrix.Matrix, error) {
	key := errataKey{maskOf(erased), maskOf(errs)}
	if e.errataCache != nil {
		if mtx, ok := e.errataCache.get(key); ok {
			return mtx, nil
		}
	}
	r := e.n - e.k - len(erased)
	nu := len(errs)
	top := matrix.New(nu, nu)
	setup := matrix.New(r, nu)
	for j, p := range errs {
		v := e.puncturedWeight(p, erased)
		for t := 0; t < r; t++ {
			if t < nu {
				top.Set(t, j, v)
			} else {
				setup.Set(t, j, v)
			}
			v = gf256.Mul(v, e.syn.points[p])
		}
	}
	inv, err := top.Invert()
	if err != nil {
		// Unreachable for distinct positions (the block is a scaled
		// Vandermonde), but surface it rather than corrupt data.
		return nil, fmt.Errorf("rs: errata solve for errors %v, erasures %v: %w", errs, erased, err)
	}
	for t := 0; t < nu; t++ {
		copy(setup.Row(t), inv.Row(t))
	}
	if e.errataCache != nil {
		e.errataCache.put(key, setup)
	}
	return setup, nil
}

// decodeErrorsBrute is the combinatorial reference decoder and the
// benchmark baseline DecodeErrors is measured against: for every
// candidate corrupt set T of growing size, erase T, reconstruct, and
// accept the first candidate whose re-encoded codeword matches every
// untouched shard. That is sum_e C(n, e) trial decodes, each paying a
// k x k inversion plus a full-shard re-encode — the cost DecodeErrors's
// single fused syndrome pass replaces. Works for any generator.
func (e *Encoder) decodeErrorsBrute(shards [][]byte) ([]int, error) {
	if len(shards) != e.n {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrShardCount, len(shards), e.n)
	}
	var present []int
	f := 0
	for i, sh := range shards {
		if len(sh) == 0 {
			f++
		} else {
			present = append(present, i)
		}
	}
	if len(present) < e.k {
		return nil, fmt.Errorf("%w: have %d, need %d", ErrTooFewShards, len(present), e.k)
	}
	maxE := (e.n - e.k - f) / 2
	for etry := 0; etry <= maxE; etry++ {
		var found []int
		var result [][]byte
		combinations(len(present), etry, func(pick []int) bool {
			cand := make([][]byte, e.n)
			for _, idx := range present {
				cand[idx] = shards[idx]
			}
			for _, j := range pick {
				cand[present[j]] = nil
			}
			if err := e.Reconstruct(cand); err != nil {
				return false
			}
			if ok, _ := e.Verify(cand); !ok {
				return false
			}
			found = make([]int, 0, etry)
			for _, j := range pick {
				p := present[j]
				if !bytes.Equal(cand[p], shards[p]) {
					found = append(found, p)
				}
			}
			result = cand
			return true
		})
		if result != nil {
			for i := range shards {
				if len(shards[i]) == 0 {
					shards[i] = result[i]
				} else if !bytes.Equal(shards[i], result[i]) {
					copy(shards[i], result[i])
				}
			}
			return found, nil
		}
	}
	return nil, fmt.Errorf("%w: no codeword within %d errors of the shards", ErrTooManyErrors, maxE)
}

// combinations invokes fn on every size-r index subset of [0, n) in
// lexicographic order until fn returns true.
func combinations(n, r int, fn func([]int) bool) {
	if r > n {
		return
	}
	pick := make([]int, r)
	for i := range pick {
		pick[i] = i
	}
	for {
		if fn(pick) {
			return
		}
		i := r - 1
		for ; i >= 0 && pick[i] == n-r+i; i-- {
		}
		if i < 0 {
			return
		}
		pick[i]++
		for j := i + 1; j < r; j++ {
			pick[j] = pick[j-1] + 1
		}
	}
}

// zeroBlock is the all-zero reference firstNonzero compares against.
var zeroBlock [4096]byte

// firstNonzero returns the index of the first nonzero byte, or -1 for
// an all-zero slice. Whole blocks are compared against zeroBlock with
// the runtime's vectorized memequal; only a block that differs is
// scanned byte by byte.
func firstNonzero(b []byte) int {
	for lo := 0; lo < len(b); lo += len(zeroBlock) {
		blk := b[lo:min(lo+len(zeroBlock), len(b))]
		if !bytes.Equal(blk, zeroBlock[:len(blk)]) {
			for i, v := range blk {
				if v != 0 {
					return lo + i
				}
			}
		}
	}
	return -1
}
