package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strconv"
	"sync"
	"time"

	"repro/internal/rs"
	"repro/internal/soda"
)

// The probes time direct calls on spare instances built at the
// workload's geometry. They run after the measured windows, so they
// cannot perturb the end-to-end numbers.

const (
	probeTime     = 150 * time.Millisecond // per batched probe
	probeBatch    = 20 * time.Microsecond  // target length of one timed batch
	durableProbeT = time.Second            // fsync-bound; long enough for a p99
)

// probe is the median per-call time over a probe's timed batches.
type probe struct {
	ns      float64
	batches int
}

// batchProbe times fn in batches long enough for the clock to resolve.
func batchProbe(fn func(i int)) probe {
	fn(0)
	t0 := time.Now()
	fn(1)
	per := time.Since(t0)
	batch := 1
	if per < probeBatch {
		batch = int(probeBatch/max(per, 1)) + 1
	}
	var perCall []float64
	i := 2
	for end := time.Now().Add(probeTime); time.Now().Before(end); {
		t := time.Now()
		for j := 0; j < batch; j++ {
			fn(i)
			i++
		}
		perCall = append(perCall, float64(time.Since(t))/float64(batch))
	}
	return probe{ns: quantile(perCall, 0.5), batches: len(perCall)}
}

// codecProbe times Codec.EncodeValue, Codec.DecodeValue and
// rs.Encoder.DecodeErrors at the workload's n, k and value size. The
// error decode runs on the workload's crash+rot pattern (a clean
// codeword where the workload has no faults), on an RS-view encoder,
// since only that generator can locate errors.
func codecProbe(w workload, rng *rand.Rand) (enc, dec, decErr probe, err error) {
	codec, err := newCodec(w)
	if err != nil {
		return enc, dec, decErr, err
	}
	value := make([]byte, w.vsize)
	rng.Read(value)
	shards, err := codec.EncodeValue(value)
	if err != nil {
		return enc, dec, decErr, err
	}
	enc = batchProbe(func(int) { _, err = codec.EncodeValue(value) })
	if err != nil {
		return enc, dec, decErr, err
	}
	dec = batchProbe(func(int) { _, err = codec.DecodeValue(shards, w.vsize) })
	if err != nil {
		return enc, dec, decErr, err
	}

	rsEnc, err := rs.New(w.n, w.k, rs.WithGenerator(rs.GeneratorRSView))
	if err != nil {
		return enc, dec, decErr, err
	}
	defer rsEnc.Close()
	s := w.shardSize()
	clean := make([][]byte, w.n)
	for i := range clean {
		clean[i] = make([]byte, s)
	}
	copy(clean[0], value) // any codeword will do; the data need not be the value
	if err := rsEnc.Encode(clean); err != nil {
		return enc, dec, decErr, err
	}
	work := make([][]byte, w.n)
	for i := range work {
		work[i] = append([]byte(nil), clean[i]...)
	}
	corrupt := make([]int, 0, w.n-w.k)
	decErr = batchProbe(func(int) {
		if w.crash >= 0 {
			work[w.crash] = work[w.crash][:0]
		}
		if w.rot >= 0 {
			work[w.rot][0] ^= 0x5A
		}
		corrupt, err = rsEnc.DecodeErrorsInto(work, corrupt)
	})
	if err != nil {
		return enc, dec, decErr, err
	}
	for i := range clean {
		if string(work[i]) != string(clean[i]) {
			return enc, dec, decErr, violation("codec probe: DecodeErrors left shard %d wrong", i)
		}
	}
	return enc, dec, decErr, nil
}

// serverProbe times GetTag, PutData and a Register/Unregister pair on
// a spare in-memory Server preloaded with the workload's keys.
func serverProbe(w workload, keys []string) (getTag, putData, register probe) {
	srv := soda.NewServer(0)
	elem := make([]byte, w.shardSize())
	tags := make([]soda.Tag, len(keys))
	for i, k := range keys {
		tags[i] = tags[i].Next("p")
		srv.PutData(k, tags[i], elem, w.vsize)
	}
	order := make([]int, 4096)
	for i := range order {
		order[i] = int(uint32(i) * 2654435761 % uint32(len(keys)))
	}
	key := func(i int) int { return order[i%len(order)] }
	getTag = batchProbe(func(i int) { srv.GetTag(keys[key(i)]) })
	putData = batchProbe(func(i int) {
		k := key(i)
		tags[k] = tags[k].Next("p")
		srv.PutData(keys[k], tags[k], elem, w.vsize)
	})
	sink := func(soda.Delivery) {}
	register = batchProbe(func(i int) {
		k := keys[key(i)]
		srv.Register(k, "probe", sink)
		srv.Unregister(k, "probe")
	})
	return getTag, putData, register
}

// durableProbe times PutData on a spare durable Server in the default
// fsync mode, from two goroutines so group commit can form, and counts
// the fsyncs that covered more than one put.
func durableProbe(w workload, dir string) (p50Us, p99Us float64, samples int, groupSyncs uint64, err error) {
	dir = filepath.Join(dir, "durable-probe")
	srv, err := soda.NewDurableServer(0, dir)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	defer os.RemoveAll(dir)
	elem := make([]byte, w.shardSize())
	lat := make([][]float64, 2)
	var wg sync.WaitGroup
	stop := time.Now().Add(durableProbeT)
	for g := range lat {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; time.Now().Before(stop); i++ {
				key := "d" + strconv.Itoa(g) + "-" + strconv.Itoa(i%w.keys)
				t := time.Now()
				// Each goroutine owns its keys, so ts i+1 always advances.
				srv.PutData(key, soda.Tag{TS: uint64(i + 1), Writer: "p"}, elem, w.vsize)
				lat[g] = append(lat[g], float64(time.Since(t))/1e3)
			}
		}()
	}
	wg.Wait()
	groupSyncs = srv.MetricsSnapshot().WALGroupSyncs
	if err := srv.Close(); err != nil {
		return 0, 0, 0, 0, fmt.Errorf("durable probe: %w", err)
	}
	all := append(lat[0], lat[1]...)
	return quantile(all, 0.5), quantile(all, 0.99), len(all), groupSyncs, nil
}

// Runtime counters read before and after a measured window, indexed
// by the rt constants.
var rtNames = []string{
	rtAllocBytes:   "/gc/heap/allocs:bytes",
	rtAllocObjects: "/gc/heap/allocs:objects",
	rtGCCycles:     "/gc/cycles/total:gc-cycles",
	rtGCCPU:        "/cpu/classes/gc/total:cpu-seconds",
	rtTotalCPU:     "/cpu/classes/total:cpu-seconds",
	rtSchedLat:     "/sched/latencies:seconds",
}

const (
	rtAllocBytes = iota
	rtAllocObjects
	rtGCCycles
	rtGCCPU
	rtTotalCPU
	rtSchedLat
)

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func rtDelta(before, after []metrics.Sample, i int) float64 {
	v := func(s metrics.Sample) float64 {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			return float64(s.Value.Uint64())
		case metrics.KindFloat64:
			return s.Value.Float64()
		}
		return math.NaN()
	}
	return v(after[i]) - v(before[i])
}

// histDeltaQuantile is quantile q of the difference of two readings of
// one runtime histogram, interpolated linearly inside its bucket.
func histDeltaQuantile(before, after *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	counts := make([]uint64, len(after.Counts))
	for i := range counts {
		counts[i] = after.Counts[i] - before.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, hi := after.Buckets[i], after.Buckets[i+1]
			if math.IsInf(lo, -1) {
				lo = 0
			}
			if math.IsInf(hi, 1) {
				return lo
			}
			return lo + (hi-lo)*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	return after.Buckets[len(after.Buckets)-1]
}

// heapLiveBytes is the live heap after a forced collection.
func heapLiveBytes() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}
