package gf256

// Table-driven slice kernels and kernel dispatch.
//
// The scalar field core (gf256.go) multiplies through log/exp lookups:
// two table reads, an integer add, and a zero-operand branch per byte.
// For the erasure-coding inner loop — dst[i] ^= c * src[i] over shards
// of kilobytes to megabytes with a fixed coefficient c — that cost is
// dominated by a full 256x256 product table: one 256-byte row per
// coefficient turns every byte into a single branch-free indexed load.
// The row fits in four cache lines and stays hot for the whole shard.
//
// Above the table sit the SIMD tiers, selected at runtime:
//
//	gfni   VGF2P8AFFINEQB on 64-byte ZMM vectors: one instruction
//	       applies the coefficient's 8x8 GF(2) bit matrix to 64 bytes
//	       (requires GFNI + AVX-512F + OS ZMM state)
//	avx2   VPSHUFB nibble-shuffle: two 16-byte in-register lookups
//	       per 32-byte vector
//	table  the 256-byte product row, one indexed load per byte
//
// SetKernel (or the GF256_KERNEL environment variable) caps the ladder
// for benchmarking and debugging; the `purego` build tag removes the
// SIMD tiers entirely.
//
// The tables (64 KiB product table, plus the SIMD-specific views) are
// built lazily on first use so that programs that only ever do scalar
// arithmetic never pay for them.

import (
	"crypto/subtle"
	"fmt"
	"os"
	"sync"
)

var (
	mulTableOnce sync.Once
	mulTable     *[256][256]byte
	// nibTable[c] holds, for the AVX2 kernels, the 16 products
	// c*(i) followed by the 16 products c*(i<<4): the two in-register
	// shuffle tables that split a byte multiply over its nibbles.
	nibTable *[256][32]byte
	// gfniTable[c] is the 8x8 GF(2) bit matrix of "multiply by c",
	// packed in the qword layout VGF2P8AFFINEQB expects: the row
	// producing output bit i sits in byte 7-i.
	gfniTable *[256]uint64
)

// Kernel tier names accepted by SetKernel and GF256_KERNEL.
const (
	KernelGFNI  = "gfni"
	KernelAVX2  = "avx2"
	KernelTable = "table"
)

// useGFNI/useAVX2 are the active dispatch flags; they start at the
// hardware's best tier and can only be lowered (never raised above
// hasGFNI/hasAVX2) by SetKernel.
var (
	useGFNI bool
	useAVX2 bool
)

func init() {
	useGFNI, useAVX2 = hasGFNI, hasAVX2
	if env := os.Getenv("GF256_KERNEL"); env != "" {
		// Warn rather than panic on an unusable value: a feature the
		// machine lacks (or a typo) must not kill startup where the
		// env leaked in, but silently running the wrong tier would
		// corrupt benchmark attributions.
		if err := SetKernel(env); err != nil {
			fmt.Fprintf(os.Stderr, "gf256: ignoring GF256_KERNEL=%q: %v\n", env, err)
		}
	}
}

// KernelName reports the active top kernel tier: "gfni", "avx2", or
// "table".
func KernelName() string {
	switch {
	case useGFNI:
		return KernelGFNI
	case useAVX2:
		return KernelAVX2
	default:
		return KernelTable
	}
}

// AvailableKernels lists the kernel tiers usable on this machine and
// build, best first. "table" is always present.
func AvailableKernels() []string {
	ks := make([]string, 0, 3)
	if hasGFNI {
		ks = append(ks, KernelGFNI)
	}
	if hasAVX2 {
		ks = append(ks, KernelAVX2)
	}
	return append(ks, KernelTable)
}

// SetKernel caps the dispatch ladder at the named tier ("gfni", "avx2",
// "table"), or restores the hardware's best with "auto". It returns an
// error if the tier is unknown or not supported by this machine/build.
// It is intended for benchmarks and tests and must not be called
// concurrently with slice-kernel operations.
func SetKernel(name string) error {
	switch name {
	case "auto":
		useGFNI, useAVX2 = hasGFNI, hasAVX2
	case KernelGFNI:
		if !hasGFNI {
			return fmt.Errorf("gf256: kernel %q not supported on this CPU/build", name)
		}
		useGFNI, useAVX2 = true, hasAVX2
	case KernelAVX2:
		if !hasAVX2 {
			return fmt.Errorf("gf256: kernel %q not supported on this CPU/build", name)
		}
		useGFNI, useAVX2 = false, true
	case KernelTable:
		useGFNI, useAVX2 = false, false
	default:
		return fmt.Errorf("gf256: unknown kernel %q", name)
	}
	return nil
}

func buildMulTable() {
	t := new([256][256]byte)
	for c := 1; c < 256; c++ {
		lc := int(logTable[c])
		row := &t[c]
		for a := 1; a < 256; a++ {
			row[a] = expTable[lc+int(logTable[a])]
		}
	}
	if hasAVX2 {
		nt := new([256][32]byte)
		for c := 1; c < 256; c++ {
			row := &t[c]
			for i := 0; i < 16; i++ {
				nt[c][i] = row[i]
				nt[c][16+i] = row[i<<4]
			}
		}
		nibTable = nt
	}
	if hasGFNI {
		gt := new([256]uint64)
		for c := 1; c < 256; c++ {
			gt[c] = gfniMatrix(byte(c))
		}
		gfniTable = gt
	}
	mulTable = t
}

// gfniMatrix packs "multiply by c" as the 8x8 GF(2) bit matrix operand
// of VGF2P8AFFINEQB. Column j of the matrix is c*x^j (multiplication is
// GF(2)-linear over the bits of the input byte); the instruction reads
// the row for output bit i from byte 7-i of the qword, with row bit j
// selecting input bit j.
func gfniMatrix(c byte) uint64 {
	var rows [8]byte
	p := c // c * x^j for the current column j
	for j := 0; j < 8; j++ {
		for i := 0; i < 8; i++ {
			if p&(1<<i) != 0 {
				rows[i] |= 1 << j
			}
		}
		p = Mul(p, 2)
	}
	var m uint64
	for i := 0; i < 8; i++ {
		m |= uint64(rows[i]) << (8 * (7 - i))
	}
	return m
}

// simdMin is the slice length below which the SIMD kernels are not
// worth their call overhead.
const simdMin = 64

// MulTableRow returns the 256-byte product row for the coefficient c:
// row[a] == Mul(c, a) for every a. The returned array is shared and
// must not be modified. The full table is built on first call. It is
// the public accessor for per-coefficient rows (e.g. for syndrome
// computation in error-correcting decoders); the slice kernels use the
// table directly.
func MulTableRow(c byte) *[256]byte {
	mulTableOnce.Do(buildMulTable)
	return &mulTable[c]
}

// MulSlice computes dst[i] = c * src[i] for all i. dst and src must have
// the same length; they may alias. The c == 0 and c == 1 fast paths avoid
// table lookups entirely.
func MulSlice(c byte, dst, src []byte) {
	if len(dst) != len(src) {
		panic("gf256: MulSlice length mismatch")
	}
	switch c {
	case 0:
		for i := range dst {
			dst[i] = 0
		}
	case 1:
		copy(dst, src)
	default:
		mulTableOnce.Do(buildMulTable)
		i := 0
		if len(src) >= simdMin {
			if useGFNI {
				n := len(src) &^ 63
				mulSliceGFNI(&gfniTable[c], dst[:n], src[:n])
				i = n // residue < 64 bytes goes to the table tail
			} else if useAVX2 {
				n := len(src) &^ 31
				mulSliceAVX2(&nibTable[c], dst[:n], src[:n])
				i = n
			}
		}
		mulSliceTail(c, dst, src, i)
	}
}

// mulSliceTail is the table-row loop of MulSlice from offset i, for
// tails and SIMD-free builds. The product table must already be built
// and c must not be 0 or 1.
func mulSliceTail(c byte, dst, src []byte, i int) {
	row := &mulTable[c]
	for n := len(src) &^ 7; i < n; i += 8 {
		s := src[i : i+8 : i+8]
		d := dst[i : i+8 : i+8]
		d[0] = row[s[0]]
		d[1] = row[s[1]]
		d[2] = row[s[2]]
		d[3] = row[s[3]]
		d[4] = row[s[4]]
		d[5] = row[s[5]]
		d[6] = row[s[6]]
		d[7] = row[s[7]]
	}
	for ; i < len(src); i++ {
		dst[i] = row[src[i]]
	}
}

// MulAddSlice computes dst[i] ^= c * src[i] for all i: the fused
// multiply-accumulate at the heart of matrix-vector erasure encoding.
func MulAddSlice(c byte, dst, src []byte) {
	if len(dst) != len(src) {
		panic("gf256: MulAddSlice length mismatch")
	}
	switch c {
	case 0:
		return
	case 1:
		AddSlice(dst, src)
	default:
		mulTableOnce.Do(buildMulTable)
		i := 0
		if len(src) >= simdMin {
			if useGFNI {
				n := len(src) &^ 63
				mulAddSliceGFNI(&gfniTable[c], dst[:n], src[:n])
				i = n // residue < 64 bytes goes to the table tail
			} else if useAVX2 {
				n := len(src) &^ 31
				mulAddSliceAVX2(&nibTable[c], dst[:n], src[:n])
				i = n
			}
		}
		mulAddSliceTail(c, dst, src, i)
	}
}

// mulAddSliceTail is the table-row loop of MulAddSlice from offset i.
// The product table must already be built and c must not be 0 or 1.
func mulAddSliceTail(c byte, dst, src []byte, i int) {
	row := &mulTable[c]
	for n := len(src) &^ 7; i < n; i += 8 {
		s := src[i : i+8 : i+8]
		d := dst[i : i+8 : i+8]
		d[0] ^= row[s[0]]
		d[1] ^= row[s[1]]
		d[2] ^= row[s[2]]
		d[3] ^= row[s[3]]
		d[4] ^= row[s[4]]
		d[5] ^= row[s[5]]
		d[6] ^= row[s[6]]
		d[7] ^= row[s[7]]
	}
	for ; i < len(src); i++ {
		dst[i] ^= row[src[i]]
	}
}

// AddSlice computes dst[i] ^= src[i] for all i, through the standard
// library's XOR, which is vectorized on amd64 and arm64.
func AddSlice(dst, src []byte) {
	if len(dst) != len(src) {
		panic("gf256: AddSlice length mismatch")
	}
	subtle.XORBytes(dst, dst, src)
}

// Dot returns the inner product sum_i a[i]*b[i] in GF(2^8). The slices
// must have equal length.
func Dot(a, b []byte) byte {
	if len(a) != len(b) {
		panic("gf256: Dot length mismatch")
	}
	var acc byte
	for i, x := range a {
		if x != 0 && b[i] != 0 {
			acc ^= expTable[int(logTable[x])+int(logTable[b[i]])]
		}
	}
	return acc
}

// mulSliceScalar is the original log/exp reference kernel, kept for
// equivalence tests and as the baseline the table kernel is benchmarked
// against.
func mulSliceScalar(c byte, dst, src []byte) {
	if len(dst) != len(src) {
		panic("gf256: MulSlice length mismatch")
	}
	switch c {
	case 0:
		for i := range dst {
			dst[i] = 0
		}
	case 1:
		copy(dst, src)
	default:
		lc := int(logTable[c])
		for i, s := range src {
			if s == 0 {
				dst[i] = 0
			} else {
				dst[i] = expTable[lc+int(logTable[s])]
			}
		}
	}
}

// mulAddSliceScalar is the original log/exp reference for MulAddSlice.
func mulAddSliceScalar(c byte, dst, src []byte) {
	if len(dst) != len(src) {
		panic("gf256: MulAddSlice length mismatch")
	}
	if c == 0 {
		return
	}
	if c == 1 {
		for i, s := range src {
			dst[i] ^= s
		}
		return
	}
	lc := int(logTable[c])
	for i, s := range src {
		if s != 0 {
			dst[i] ^= expTable[lc+int(logTable[s])]
		}
	}
}
