package rs

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/gf256"
)

// corruptShard flips a few random bytes of shards[idx], guaranteeing it
// differs from the original.
func corruptShard(rng *rand.Rand, shards [][]byte, idx int) {
	sh := shards[idx]
	n := 1 + rng.Intn(3)
	for i := 0; i < n; i++ {
		sh[rng.Intn(len(sh))] ^= byte(1 + rng.Intn(255))
	}
}

// damage applies e corruptions and f erasures from perm to a clone of
// orig, returning the damaged shards and the ascending lists of
// positions actually corrupted and erased.
func damage(rng *rand.Rand, orig [][]byte, perm []int, e, f int, intoBufs bool) (shards [][]byte, corrupted, erased []int) {
	shards = cloneShards(orig)
	for _, p := range perm[:f] {
		if intoBufs {
			shards[p] = make([]byte, 0, len(orig[p]))
		} else {
			shards[p] = nil
		}
		erased = append(erased, p)
	}
	for _, p := range perm[f : f+e] {
		before := append([]byte(nil), shards[p]...)
		corruptShard(rng, shards, p)
		if bytes.Equal(before, shards[p]) {
			panic("corruptShard did not change the shard")
		}
		corrupted = append(corrupted, p)
	}
	slices.Sort(corrupted)
	slices.Sort(erased)
	return shards, corrupted, erased
}

// TestDecodeErrorsSweep checks every (errors, erasures) split within
// the decoding radius 2e+f <= n-k across shapes and odd sizes: the
// decoder must restore the exact original shards and name exactly the
// corrupted ones, both in place (DecodeErrors) and through the
// read-only form (DecodeErrorsTo), which must also leave every input
// byte untouched.
func TestDecodeErrorsSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	for _, sh := range []struct{ n, k int }{{3, 1}, {5, 3}, {9, 5}, {14, 10}, {8, 3}} {
		e, err := New(sh.n, sh.k, WithGenerator(GeneratorRSView))
		if err != nil {
			t.Fatalf("New(%d,%d): %v", sh.n, sh.k, err)
		}
		orig := makeShards(t, rng, e, 257)
		d := sh.n - sh.k
		for f := 0; f <= d; f++ {
			for ne := 0; 2*ne+f <= d; ne++ {
				for trial := 0; trial < 8; trial++ {
					perm := rng.Perm(sh.n)
					shards, wantCorrupt, _ := damage(rng, orig, perm, ne, f, false)
					before := cloneShards(shards)
					out := make([][]byte, sh.n)
					for i := range out {
						out[i] = make([]byte, 0, 257)
					}
					got, err := e.DecodeErrorsTo(shards, out, nil)
					if err != nil {
						t.Fatalf("[%d,%d] e=%d f=%d: DecodeErrorsTo: %v", sh.n, sh.k, ne, f, err)
					}
					if !slices.Equal(got, wantCorrupt) {
						t.Fatalf("[%d,%d] e=%d f=%d: DecodeErrorsTo corrupt = %v, want %v", sh.n, sh.k, ne, f, got, wantCorrupt)
					}
					for i := range orig {
						if !bytes.Equal(shards[i], before[i]) || len(shards[i]) != len(before[i]) {
							t.Fatalf("[%d,%d] e=%d f=%d: DecodeErrorsTo wrote input shard %d", sh.n, sh.k, ne, f, i)
						}
						if !bytes.Equal(out[i], orig[i]) {
							t.Fatalf("[%d,%d] e=%d f=%d: DecodeErrorsTo out[%d] not restored", sh.n, sh.k, ne, f, i)
						}
					}

					got, err = e.DecodeErrors(shards)
					if err != nil {
						t.Fatalf("[%d,%d] e=%d f=%d: DecodeErrors: %v", sh.n, sh.k, ne, f, err)
					}
					if !slices.Equal(got, wantCorrupt) {
						t.Fatalf("[%d,%d] e=%d f=%d: corrupt = %v, want %v", sh.n, sh.k, ne, f, got, wantCorrupt)
					}
					for i := range orig {
						if !bytes.Equal(shards[i], orig[i]) {
							t.Fatalf("[%d,%d] e=%d f=%d: shard %d not restored", sh.n, sh.k, ne, f, i)
						}
					}
				}
			}
		}
	}
}

// TestDecodeErrorsMatchesBruteOracle cross-checks the syndrome decoder
// against the combinatorial subset decoder on identical damage.
func TestDecodeErrorsMatchesBruteOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for _, sh := range []struct{ n, k int }{{5, 3}, {9, 5}, {10, 4}} {
		e, err := New(sh.n, sh.k, WithGenerator(GeneratorRSView))
		if err != nil {
			t.Fatal(err)
		}
		orig := makeShards(t, rng, e, 129)
		d := sh.n - sh.k
		for trial := 0; trial < 40; trial++ {
			f := rng.Intn(d + 1)
			ne := rng.Intn((d-f)/2 + 1)
			perm := rng.Perm(sh.n)
			fast, _, _ := damage(rng, orig, perm, ne, f, false)
			brute := cloneShards(fast)
			gotFast, errFast := e.DecodeErrors(fast)
			gotBrute, errBrute := e.decodeErrorsBrute(brute)
			if errFast != nil || errBrute != nil {
				t.Fatalf("[%d,%d] e=%d f=%d: fast err %v, brute err %v", sh.n, sh.k, ne, f, errFast, errBrute)
			}
			if !slices.Equal(gotFast, gotBrute) {
				t.Fatalf("[%d,%d] e=%d f=%d: fast corrupt %v, brute %v", sh.n, sh.k, ne, f, gotFast, gotBrute)
			}
			for i := range orig {
				if !bytes.Equal(fast[i], orig[i]) || !bytes.Equal(brute[i], orig[i]) {
					t.Fatalf("[%d,%d] e=%d f=%d: shard %d disagreement", sh.n, sh.k, ne, f, i)
				}
			}
		}
	}
}

// TestDecodeErrorsKernelLadder re-runs a decode on every kernel tier so
// the fused syndrome path is pinned to the same result on gfni, avx2,
// table, and (under -tags purego) the pure-Go build.
func TestDecodeErrorsKernelLadder(t *testing.T) {
	defer gf256.SetKernel("auto")
	rng := rand.New(rand.NewSource(52))
	e, err := New(14, 10, WithGenerator(GeneratorRSView))
	if err != nil {
		t.Fatal(err)
	}
	orig := makeShards(t, rng, e, 4096+13)
	for _, kern := range gf256.AvailableKernels() {
		if err := gf256.SetKernel(kern); err != nil {
			t.Fatalf("SetKernel(%s): %v", kern, err)
		}
		perm := rng.Perm(14)
		shards, wantCorrupt, _ := damage(rng, orig, perm, 2, 0, false)
		got, err := e.DecodeErrors(shards)
		if err != nil {
			t.Fatalf("kernel %s: DecodeErrors: %v", kern, err)
		}
		if !slices.Equal(got, wantCorrupt) {
			t.Fatalf("kernel %s: corrupt = %v, want %v", kern, got, wantCorrupt)
		}
		for i := range orig {
			if !bytes.Equal(shards[i], orig[i]) {
				t.Fatalf("kernel %s: shard %d not restored", kern, i)
			}
		}
	}
}

// TestDecodeErrorsStriped pushes the shard size over the stripe
// threshold so syndromes and magnitude solves run on the worker pool,
// and checks byte-identical recovery.
func TestDecodeErrorsStriped(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	e, err := New(9, 5, WithGenerator(GeneratorRSView), WithConcurrency(4), WithStripeThreshold(1024))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	orig := makeShards(t, rng, e, 100_003)
	perm := rng.Perm(9)
	shards, wantCorrupt, _ := damage(rng, orig, perm, 1, 2, false)
	got, err := e.DecodeErrors(shards)
	if err != nil {
		t.Fatalf("DecodeErrors: %v", err)
	}
	if !slices.Equal(got, wantCorrupt) {
		t.Fatalf("corrupt = %v, want %v", got, wantCorrupt)
	}
	for i := range orig {
		if !bytes.Equal(shards[i], orig[i]) {
			t.Fatalf("shard %d not restored", i)
		}
	}
}

// TestDecodeErrorsScatteredCorruption corrupts different shards in
// different byte ranges: the support union must be discovered across
// columns (shard 10 is only corrupt late, shard 3 only early).
func TestDecodeErrorsScatteredCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	e, err := New(14, 10, WithGenerator(GeneratorRSView))
	if err != nil {
		t.Fatal(err)
	}
	size := 3 * decodeChunk // several consistency-scan chunks
	orig := makeShards(t, rng, e, size)
	shards := cloneShards(orig)
	shards[3][7] ^= 0x11                // only in the first chunk
	shards[10][size-decodeChunk/2] ^= 1 // only in the last chunk
	got, err := e.DecodeErrors(shards)
	if err != nil {
		t.Fatalf("DecodeErrors: %v", err)
	}
	if !slices.Equal(got, []int{3, 10}) {
		t.Fatalf("corrupt = %v, want [3 10]", got)
	}
	for i := range orig {
		if !bytes.Equal(shards[i], orig[i]) {
			t.Fatalf("shard %d not restored", i)
		}
	}
}

func TestDecodeErrorsCleanShards(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	e, err := New(9, 5, WithGenerator(GeneratorRSView))
	if err != nil {
		t.Fatal(err)
	}
	shards := makeShards(t, rng, e, 512)
	want := cloneShards(shards)
	got, err := e.DecodeErrors(shards)
	if err != nil || len(got) != 0 {
		t.Fatalf("DecodeErrors on clean shards = (%v, %v), want ([], nil)", got, err)
	}
	for i := range want {
		if !bytes.Equal(shards[i], want[i]) {
			t.Fatal("clean shards must not be altered")
		}
	}
}

func TestDecodeErrorsRequiresRSView(t *testing.T) {
	e, err := New(9, 5) // default Cauchy generator
	if err != nil {
		t.Fatal(err)
	}
	shards := make([][]byte, 9)
	for i := range shards {
		shards[i] = make([]byte, 16)
	}
	if _, err := e.DecodeErrors(shards); !errors.Is(err, ErrNoSyndromes) {
		t.Fatalf("DecodeErrors on Cauchy generator = %v, want ErrNoSyndromes", err)
	}
	if e.MaxErrors(0) != 0 {
		t.Fatal("MaxErrors must be 0 without syndrome structure")
	}
}

func TestMaxErrors(t *testing.T) {
	e, err := New(14, 10, WithGenerator(GeneratorRSView))
	if err != nil {
		t.Fatal(err)
	}
	for f, want := range map[int]int{0: 2, 1: 1, 2: 1, 3: 0, 4: 0, 5: 0} {
		if got := e.MaxErrors(f); got != want {
			t.Fatalf("MaxErrors(%d) = %d, want %d", f, got, want)
		}
	}
}

// TestDecodeErrorsBeyondRadius damages more shards than the radius
// allows. The decoder may detect it (ErrTooManyErrors) or, like any
// bounded-distance decoder fed garbage, land on some other codeword —
// but it must never panic, and a nil error must leave a consistent
// codeword.
func TestDecodeErrorsBeyondRadius(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	e, err := New(14, 10, WithGenerator(GeneratorRSView))
	if err != nil {
		t.Fatal(err)
	}
	orig := makeShards(t, rng, e, 64)
	detected := 0
	for trial := 0; trial < 50; trial++ {
		perm := rng.Perm(14)
		shards, _, _ := damage(rng, orig, perm, 3, 0, false) // radius is 2
		if _, err := e.DecodeErrors(shards); err != nil {
			if !errors.Is(err, ErrTooManyErrors) {
				t.Fatalf("beyond-radius failure class: %v", err)
			}
			detected++
		} else if ok, verr := e.Verify(shards); !ok {
			t.Fatalf("nil error left a non-codeword: %v", verr)
		}
	}
	if detected == 0 {
		t.Fatal("50 beyond-radius trials all \"succeeded\": overflow detection broken")
	}
}

func TestDecodeErrorsTooFewShards(t *testing.T) {
	e, err := New(9, 5, WithGenerator(GeneratorRSView))
	if err != nil {
		t.Fatal(err)
	}
	shards := make([][]byte, 9)
	for i := 0; i < 4; i++ {
		shards[i] = make([]byte, 8)
	}
	if _, err := e.DecodeErrors(shards); !errors.Is(err, ErrTooFewShards) {
		t.Fatalf("DecodeErrors with 4 of 5 = %v, want ErrTooFewShards", err)
	}
	if _, err := e.DecodeErrors(make([][]byte, 3)); !errors.Is(err, ErrShardCount) {
		t.Fatalf("DecodeErrors with 3 shards = %v, want ErrShardCount", err)
	}
}

func TestDecodeErrorsNoParity(t *testing.T) {
	e, err := New(4, 4, WithGenerator(GeneratorRSView))
	if err != nil {
		t.Fatal(err)
	}
	shards := make([][]byte, 4)
	for i := range shards {
		shards[i] = make([]byte, 8)
	}
	if got, err := e.DecodeErrors(shards); err != nil || len(got) != 0 {
		t.Fatalf("DecodeErrors with no parity = (%v, %v), want no-op", got, err)
	}
	shards[2] = nil
	if _, err := e.DecodeErrors(shards); !errors.Is(err, ErrTooFewShards) {
		t.Fatalf("missing shard with no parity = %v, want ErrTooFewShards", err)
	}
}

// TestDecodeErrorsInto checks the caller-buffer semantics of both
// buffer-taking forms on the same damage: an erasure is rebuilt into
// the caller's buffer, an erasure with no buffer is accounted for but
// not rebuilt, the corrupt shard is located and corrected, the corrupt
// list lands in the caller's slice, and undersized buffers error
// before anything is written. DecodeErrorsInto corrects its shards in
// place; DecodeErrorsTo must leave them byte-identical and deliver
// every corrected shard into out.
func TestDecodeErrorsInto(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	e, err := New(14, 10, WithGenerator(GeneratorRSView))
	if err != nil {
		t.Fatal(err)
	}
	const size = 1031
	orig := makeShards(t, rng, e, size)

	damaged := cloneShards(orig)
	damaged[4] = nil  // erasure repaired into the caller's buffer
	damaged[12] = nil // erasure accounted for, not repaired
	corruptShard(rng, damaged, 7)

	shards := cloneShards(damaged)
	buf := make([]byte, size)
	shards[4] = buf[:0]
	corrupt := make([]int, 0, 4)
	got, err := e.DecodeErrorsInto(shards, corrupt)
	if err != nil {
		t.Fatalf("DecodeErrorsInto: %v", err)
	}
	if !slices.Equal(got, []int{7}) {
		t.Fatalf("corrupt = %v, want [7]", got)
	}
	if &got[0] != &corrupt[:1][0] {
		t.Fatal("corrupt indices must land in the caller's slice")
	}
	if !bytes.Equal(shards[4], orig[4]) || &shards[4][0] != &buf[0] {
		t.Fatal("erasure must be rebuilt into the caller's buffer")
	}
	if shards[12] != nil {
		t.Fatal("nil erasure must stay nil")
	}
	for i := range orig {
		if i == 12 {
			continue
		}
		if !bytes.Equal(shards[i], orig[i]) {
			t.Fatalf("shard %d not restored", i)
		}
	}

	before := cloneShards(damaged)
	out := make([][]byte, 14)
	bufs := make([]byte, 14*size)
	for i := range out {
		if i != 12 {
			out[i] = bufs[i*size : i*size]
		}
	}
	got, err = e.DecodeErrorsTo(damaged, out, corrupt)
	if err != nil {
		t.Fatalf("DecodeErrorsTo: %v", err)
	}
	if !slices.Equal(got, []int{7}) {
		t.Fatalf("DecodeErrorsTo corrupt = %v, want [7]", got)
	}
	if &got[0] != &corrupt[:1][0] {
		t.Fatal("DecodeErrorsTo corrupt indices must land in the caller's slice")
	}
	for i := range orig {
		if !bytes.Equal(damaged[i], before[i]) {
			t.Fatalf("DecodeErrorsTo wrote input shard %d", i)
		}
		if i == 12 {
			if out[i] != nil {
				t.Fatal("nil out entry must stay nil")
			}
			continue
		}
		if !bytes.Equal(out[i], orig[i]) || &out[i][0] != &bufs[i*size] {
			t.Fatalf("out[%d] does not hold the corrected shard in the caller's buffer", i)
		}
	}

	shards = cloneShards(orig)
	shards[0] = make([]byte, 0, size-1)
	if _, err := e.DecodeErrorsInto(shards, nil); !errors.Is(err, ErrShardSize) {
		t.Fatalf("undersized buffer = %v, want ErrShardSize", err)
	}
	out[0] = make([]byte, 0, size-1)
	if _, err := e.DecodeErrorsTo(damaged, out, nil); !errors.Is(err, ErrShardSize) {
		t.Fatalf("DecodeErrorsTo undersized buffer = %v, want ErrShardSize", err)
	}
	if _, err := e.DecodeErrorsTo(damaged, out[:13], nil); !errors.Is(err, ErrShardCount) {
		t.Fatalf("DecodeErrorsTo short out = %v, want ErrShardCount", err)
	}
}

// TestDecodeErrorsIntoZeroAlloc pins the steady-state contract: with a
// stable corruption pattern (warm errata cache) and caller-supplied
// buffers, neither DecodeErrorsInto nor the read-only DecodeErrorsTo
// performs a heap allocation.
func TestDecodeErrorsIntoZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	rng := rand.New(rand.NewSource(58))
	e, err := New(14, 10, WithGenerator(GeneratorRSView), WithConcurrency(1))
	if err != nil {
		t.Fatal(err)
	}
	const size = 8192
	orig := makeShards(t, rng, e, size)
	shards := cloneShards(orig)
	ebuf := make([]byte, size)
	corrupt := make([]int, 0, 4)
	run := func() {
		copy(shards[5], orig[5])
		shards[5][17] ^= 0x42 // same corrupt shard every iteration
		copy(shards[9], orig[9])
		shards[9] = ebuf[:0] // same erasure every iteration
		var err error
		if corrupt, err = e.DecodeErrorsInto(shards, corrupt[:0]); err != nil {
			t.Fatal(err)
		}
		if len(corrupt) != 1 || corrupt[0] != 5 {
			t.Fatalf("corrupt = %v, want [5]", corrupt)
		}
	}
	run() // warm scratch pool, errata cache, kernel tables
	if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
		t.Fatalf("DecodeErrorsInto allocates %.1f times per op in steady state, want 0", allocs)
	}

	damaged := cloneShards(orig)
	damaged[5][17] ^= 0x42
	damaged[9] = nil
	out := make([][]byte, 14)
	bufs := make([]byte, 10*size)
	runTo := func() {
		for i := 0; i < 10; i++ {
			out[i] = bufs[i*size : i*size]
		}
		var err error
		if corrupt, err = e.DecodeErrorsTo(damaged, out, corrupt); err != nil {
			t.Fatal(err)
		}
		if len(corrupt) != 1 || corrupt[0] != 5 || !bytes.Equal(out[9], orig[9]) || !bytes.Equal(out[5], orig[5]) {
			t.Fatalf("DecodeErrorsTo corrupt = %v, want [5] with shards 5 and 9 restored", corrupt)
		}
	}
	runTo()
	if allocs := testing.AllocsPerRun(50, runTo); allocs != 0 {
		t.Fatalf("DecodeErrorsTo allocates %.1f times per op in steady state, want 0", allocs)
	}
}

// TestDecodeErrorsErrataCache checks that a stable errata pattern pays
// the solve-setup algebra once and that WithCacheSize(0) disables it.
func TestDecodeErrorsErrataCache(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	e, err := New(9, 5, WithGenerator(GeneratorRSView))
	if err != nil {
		t.Fatal(err)
	}
	orig := makeShards(t, rng, e, 256)
	for i := 0; i < 3; i++ {
		shards := cloneShards(orig)
		corruptShard(rng, shards, 3)
		if _, err := e.DecodeErrors(shards); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses, entries := e.errataCache.stats()
	if misses != 1 || hits != 2 || entries != 1 {
		t.Fatalf("errata cache after 3 identical patterns: hits=%d misses=%d entries=%d, want 2/1/1", hits, misses, entries)
	}

	noCache, err := New(9, 5, WithGenerator(GeneratorRSView), WithCacheSize(0))
	if err != nil {
		t.Fatal(err)
	}
	if noCache.errataCache != nil {
		t.Fatal("WithCacheSize(0) must disable the errata cache")
	}
	shards := cloneShards(orig)
	corruptShard(rng, shards, 6)
	if got, err := noCache.DecodeErrors(shards); err != nil || !slices.Equal(got, []int{6}) {
		t.Fatalf("uncached decode = (%v, %v)", got, err)
	}
}

func TestRSViewRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	for _, sh := range shapes {
		if sh.n > 255 {
			continue
		}
		e, err := New(sh.n, sh.k, WithGenerator(GeneratorRSView))
		if err != nil {
			t.Fatalf("New(%d,%d, RSView): %v", sh.n, sh.k, err)
		}
		orig := makeShards(t, rng, e, 193)
		// Systematic prefix, verify, and erasure round trip all hold for
		// the RS-view generator too.
		if ok, err := e.Verify(orig); !ok || err != nil {
			t.Fatalf("[%d,%d] Verify = (%v, %v)", sh.n, sh.k, ok, err)
		}
		got := cloneShards(orig)
		for i := 0; i < sh.n-sh.k; i++ {
			got[i] = nil
		}
		if err := e.Reconstruct(got); err != nil {
			t.Fatalf("[%d,%d] Reconstruct: %v", sh.n, sh.k, err)
		}
		for i := range orig {
			if !bytes.Equal(got[i], orig[i]) {
				t.Fatalf("[%d,%d] shard %d mismatch", sh.n, sh.k, i)
			}
		}
	}
	if _, err := New(256, 10, WithGenerator(GeneratorRSView)); !errors.Is(err, ErrInvalidShape) {
		t.Fatalf("RSView with n=256 = %v, want ErrInvalidShape", err)
	}
	if _, err := New(5, 3, WithGenerator(Generator(99))); !errors.Is(err, ErrInvalidOption) {
		t.Fatalf("unknown generator = %v, want ErrInvalidOption", err)
	}
	if GeneratorRSView.String() != "rs-view" || GeneratorCauchy.String() != "cauchy" {
		t.Fatal("Generator.String names changed")
	}
}

// TestDecodeErrorsBruteDetectsOverflow pins the oracle's failure mode.
func TestDecodeErrorsBruteDetectsOverflow(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	e, err := New(9, 5, WithGenerator(GeneratorRSView))
	if err != nil {
		t.Fatal(err)
	}
	orig := makeShards(t, rng, e, 64)
	detected := 0
	for trial := 0; trial < 20; trial++ {
		perm := rng.Perm(9)
		shards, _, _ := damage(rng, orig, perm, 3, 0, false) // radius is 2
		if _, err := e.decodeErrorsBrute(shards); err != nil {
			if !errors.Is(err, ErrTooManyErrors) {
				t.Fatalf("oracle failure class: %v", err)
			}
			detected++
		}
	}
	if detected == 0 {
		t.Fatal("oracle never detected beyond-radius damage")
	}
}

// TestConcurrentDecodeErrors hammers one Encoder's decode path from
// many goroutines with a mix of stable and alternating corruption
// patterns: the decode scratch pool, the errata cache, and the worker
// pool all run concurrently under the race detector.
func TestConcurrentDecodeErrors(t *testing.T) {
	e, err := New(9, 5, WithGenerator(GeneratorRSView), WithConcurrency(4), WithStripeThreshold(1024))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	rng := rand.New(rand.NewSource(62))
	orig := makeShards(t, rng, e, 4096)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for iter := 0; iter < 15; iter++ {
				shards := cloneShards(orig)
				bad := iter % 2 // alternate patterns: cache hits and misses
				if seed%2 == 0 {
					bad = 3 + iter%2
				}
				corruptShard(rng, shards, bad)
				shards[8] = nil
				got, err := e.DecodeErrors(shards)
				if err != nil {
					t.Errorf("DecodeErrors: %v", err)
					return
				}
				if !slices.Equal(got, []int{bad}) {
					t.Errorf("corrupt = %v, want [%d]", got, bad)
					return
				}
				for i := range orig {
					if !bytes.Equal(shards[i], orig[i]) {
						t.Errorf("shard %d mismatch", i)
						return
					}
				}
			}
		}(int64(200 + g))
	}
	wg.Wait()
}
