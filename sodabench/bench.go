package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"time"

	"repro/internal/soda"
)

// A run builds and prewrites the cluster at least minSetupRounds times
// and for at least minSetupTime; setup_s is the median round and the
// last cluster is the one measured.
const (
	minSetupRounds = 10
	minSetupTime   = 3 * time.Second
)

// bench is one run of one workload.
type bench struct {
	name    string
	w       workload
	seed    int64
	window  time.Duration
	workdir string

	keys    []string
	dir     string // the durable probe's WAL state, removed at exit
	cl      *cluster
	tr      *tracer // records the spans of the clients' traced conns
	clients []*client
	setups  []float64

	failMu   sync.Mutex
	failures int // failed operations logged so far
}

// record is the run's context and every metric's sample count,
// printed as one JSON line before the result.
type record struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Trace      bool           `json:"trace"`
	GoMaxProcs int            `json:"gomaxprocs"`
	NumCPU     int            `json:"num_cpu"`
	Clients    int            `json:"clients"`
	GoVersion  string         `json:"go_version"`
	FsyncMode  string         `json:"fsync_mode"`
	WALFS      string         `json:"wal_filesystem"`
	FailedFrac float64        `json:"failed_frac"`
	Samples    map[string]int `json:"samples"`
}

func (b *bench) run(traced bool) (res result, err error) {
	res.Metrics = map[string]metric{}
	rec := record{
		Workload: b.name, Seed: b.seed, Trace: traced,
		GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), Clients: nClients,
		GoVersion: runtime.Version(), Samples: map[string]int{},
		FsyncMode: "cluster memory-only; durable probe " + soda.FsyncAlways.String() + " (group commit)",
	}
	b.dir = filepath.Join(b.workdir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		return res, err
	}
	defer os.RemoveAll(b.dir)
	rec.WALFS = filesystemOf(b.dir)
	b.keys = make([]string, b.w.keys)
	for i := range b.keys {
		b.keys[i] = fmt.Sprintf("key-%05d", i)
	}

	if err := b.setup(); err != nil {
		return res, err
	}
	b.cl.settle()
	b.cl.injectFaults(b.w)

	put := func(name string, v float64, unit string, samples int) {
		res.Metrics[name] = metric{Value: v, Unit: unit}
		rec.Samples[name] = samples
	}
	var win *window
	if !traced {
		win = b.runWindow(b.window, nil)
		if win.err == nil {
			var held int
			if held, err = b.checkStorage(); err == nil {
				b.endToEnd(win, held, put)
			}
		}
	} else {
		rtBefore := readRuntime()
		win = b.runWindow(b.window/2, nil)
		rtAfter := readRuntime()
		if win.err == nil {
			twin := b.runWindow(b.window/2, b.tr)
			if twin.err == nil {
				_, err = b.checkStorage()
			}
			if err == nil && twin.err == nil {
				err = b.perLayer(win, twin, rtBefore, rtAfter, put)
			}
			win.merge(&twin.tally)
		}
	}
	res.Attempted, res.Failed = win.attempted, win.failed
	if res.Attempted > 0 {
		rec.FailedFrac = float64(res.Failed) / float64(res.Attempted)
	}
	if err == nil {
		err = win.err
	}
	res.Correct = err == nil
	if line, jerr := json.Marshal(rec); jerr == nil {
		fmt.Println(string(line))
	}
	return res, err
}

// setup builds and prewrites the cluster repeatedly, keeping the last
// one.
func (b *bench) setup() error {
	first := time.Now()
	for round := 0; round < minSetupRounds || time.Since(first) < minSetupTime; round++ {
		// Drop the previous round's cluster and clients first, so no
		// round pays for collecting another's heap.
		b.cl, b.clients, b.tr = nil, nil, nil
		runtime.GC()
		start := time.Now()
		cl := newCluster(b.w)
		b.cl = cl
		codec, err := newCodec(b.w)
		if err != nil {
			return err
		}
		b.tr = newTracer()
		traced := traceConns(cl.conns, b.tr)
		for id := 0; id < nClients; id++ {
			c, err := newClient(id, b, codec, cl.conns, traced)
			if err != nil {
				return err
			}
			b.clients = append(b.clients, c)
		}
		if err := prewrite(b.clients, b.keys); err != nil {
			return err
		}
		b.setups = append(b.setups, time.Since(start).Seconds())
	}
	return nil
}

// endToEnd reports the user-visible metrics of an untraced window;
// held is the element bytes all servers hold at its end.
func (b *bench) endToEnd(win *window, held int, put func(string, float64, string, int)) {
	reads, writes := len(win.reads), len(win.writes)
	s, v := float64(b.w.shardSize()), float64(b.w.vsize)
	put("throughput_ops_s", win.throughput(), "ops/s", win.completed())
	put("read_p50_us", quantile(win.reads, 0.50)/1e3, "us", reads)
	put("read_p99_us", quantile(win.reads, 0.99)/1e3, "us", reads)
	put("write_p50_us", quantile(win.writes, 0.50)/1e3, "us", writes)
	put("write_p99_us", quantile(win.writes, 0.99)/1e3, "us", writes)
	put("ok_frac", float64(win.completed())/float64(max(win.attempted, 1)), "ratio", win.attempted)
	put("storage_overhead", float64(held)/(float64(b.w.keys)*v), "ratio", b.w.keys*b.w.n)
	// Every initial delivery carries an element (all keys are
	// prewritten), and so does every relay.
	d := diff(win.before, win.after)
	put("read_comm_cost", float64(d.GetDatas+d.Relays)*s/(float64(max(reads, 1))*v), "ratio", reads)
	put("write_comm_cost", float64(d.PutDatas)*s/(float64(max(writes, 1))*v), "ratio", writes)
	put("setup_s", quantile(b.setups, 0.5), "s", len(b.setups))
	win.reads, win.writes = nil, nil
	runtime.GC()
	put("heap_live_mb", heapLiveBytes()/(1<<20), "MiB", 1)
	// The cluster and clients are the live heap being measured.
	runtime.KeepAlive(b.cl)
	runtime.KeepAlive(b.clients)
}

// perLayer reports the layer metrics: client and rpc from the traced
// window, server and durability counters and runtime deltas from the
// untraced one, and the spare-instance probes.
func (b *bench) perLayer(win, twin *window, rtBefore, rtAfter []metrics.Sample, put func(string, float64, string, int)) error {
	tr := b.tr
	reads, writes := len(twin.reads), len(twin.writes)
	ops := twin.attempted
	perOp := func(x int64, n int) float64 { return float64(x) / float64(max(n, 1)) }
	tr.mu.Lock()
	put("client.write_self_us_p50", quantile(tr.writeSelf, 0.50)/1e3, "us", len(tr.writeSelf))
	put("client.write_self_us_p99", quantile(tr.writeSelf, 0.99)/1e3, "us", len(tr.writeSelf))
	put("client.read_self_us_p50", quantile(tr.readSelf, 0.50)/1e3, "us", len(tr.readSelf))
	put("client.read_self_us_p99", quantile(tr.readSelf, 0.99)/1e3, "us", len(tr.readSelf))
	for kind, name := range legNames {
		ns := tr.legNs[kind]
		put(name+"_us_p50", quantile(ns, 0.50)/1e3, "us", len(ns))
		put(name+"_us_p99", quantile(ns, 0.99)/1e3, "us", len(ns))
	}
	put("rpc.busy_us_per_op", perOp(tr.busyNs, ops)/1e3, "us", ops)
	tr.mu.Unlock()
	put("client.write_rpcs_per_op", perOp(tr.legCalls[legGetTag].Load()+tr.legCalls[legPutData].Load(), writes), "count", writes)
	put("client.read_rpcs_per_op", perOp(tr.legCalls[legGetData].Load(), reads), "count", reads)
	put("client.read_deliveries_per_op", perOp(tr.deliveries.Load(), reads), "count", reads)
	put("client.read_useful_elem_ratio", float64((b.w.k+2*b.w.readErrors)*reads)/float64(max(tr.deliveries.Load(), 1)), "ratio", reads)
	put("client.corrupt_located_frac", perOp(int64(twin.located), reads), "ratio", reads)
	put("rpc.errors_per_kop", 1e3*perOp(tr.legErrors.Load(), ops), "count", ops)
	put("trace.throughput_ops_s", twin.throughput(), "ops/s", twin.completed())
	put("trace.overhead_frac", 1-twin.throughput()/win.throughput(), "ratio", twin.completed())

	// Counters of the untraced window.
	d := diff(win.before, win.after)
	ureads, uwrites, uops := len(win.reads), len(win.writes), win.attempted
	put("server.relays_per_read", float64(d.Relays)/float64(max(ureads, 1)), "count", ureads)
	put("server.relay_drops", float64(d.RelayDrops), "count", uops)
	put("server.reg_gcs_per_read", float64(d.RegGCs)/float64(max(ureads, 1)), "count", ureads)
	put("durability.wal_appends_per_write", float64(d.WALAppends)/float64(max(uwrites, 1)), "count", uwrites)
	put("durability.group_syncs_per_kwrite", 1e3*float64(d.WALGroupSyncs)/float64(max(uwrites, 1)), "count", uwrites)
	put("durability.snapshots", float64(d.Snapshots), "count", uwrites)
	rt := func(i int) float64 { return rtDelta(rtBefore, rtAfter, i) }
	put("runtime.alloc_bytes_per_op", rt(rtAllocBytes)/float64(max(uops, 1)), "B", uops)
	put("runtime.allocs_per_op", rt(rtAllocObjects)/float64(max(uops, 1)), "count", uops)
	put("runtime.gc_cycles_per_kop", 1e3*rt(rtGCCycles)/float64(max(uops, 1)), "count", uops)
	put("runtime.gc_cpu_frac", rt(rtGCCPU)/rt(rtTotalCPU), "ratio", uops)
	put("runtime.sched_latency_us_p99", 1e6*histDeltaQuantile(rtBefore[rtSchedLat].Value.Float64Histogram(), rtAfter[rtSchedLat].Value.Float64Histogram(), 0.99), "us", uops)

	if err := tr.writeSpans(filepath.Join(b.workdir, "spans-"+b.name+".jsonl")); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(b.seed))
	enc, dec, decErr, err := codecProbe(b.w, rng)
	if err != nil {
		return err
	}
	put("codec.encode_us", enc.ns/1e3, "us", enc.batches)
	put("codec.decode_us", dec.ns/1e3, "us", dec.batches)
	put("codec.decode_errors_us", decErr.ns/1e3, "us", decErr.batches)
	getTag, putData, register := serverProbe(b.w, b.keys)
	put("server.get_tag_ns", getTag.ns, "ns", getTag.batches)
	put("server.put_data_ns", putData.ns, "ns", putData.batches)
	put("server.register_ns", register.ns, "ns", register.batches)
	p50, p99, n, groupSyncs, err := durableProbe(b.w, b.dir)
	if err != nil {
		return err
	}
	put("durability.put_data_us_p50", p50, "us", n)
	put("durability.put_data_us_p99", p99, "us", n)
	put("durability.probe_group_syncs_per_kput", 1e3*float64(groupSyncs)/float64(max(n, 1)), "count", n)
	return nil
}

// diff is the change between two snapshots of the counters the
// benchmark reads.
func diff(before, after soda.MetricsSnapshot) soda.MetricsSnapshot {
	return soda.MetricsSnapshot{
		GetDatas: after.GetDatas - before.GetDatas, PutDatas: after.PutDatas - before.PutDatas,
		Relays: after.Relays - before.Relays, RelayDrops: after.RelayDrops - before.RelayDrops,
		RegGCs: after.RegGCs - before.RegGCs, WALAppends: after.WALAppends - before.WALAppends,
		WALGroupSyncs: after.WALGroupSyncs - before.WALGroupSyncs, Snapshots: after.Snapshots - before.Snapshots,
	}
}

// checkStorage confirms that every server holds exactly one element of
// every key, each exactly ceil(v/k) bytes, so that the element bytes
// held, which it returns, are n·ceil(v/k)/v of the live value bytes.
// It first lets in-flight put-data legs land.
func (b *bench) checkStorage() (held int, err error) {
	b.cl.settle()
	s := b.w.shardSize()
	for _, k := range b.keys {
		for i, srv := range b.cl.servers {
			_, elem, _ := srv.Snapshot(k)
			switch {
			case elem == nil:
				return held, violation("server %d holds no element for %s, want one of ceil(v/k) = %d bytes on every server", i, k, s)
			case len(elem) != s:
				return held, violation("server %d holds a %d-byte element for %s, want ceil(v/k) = %d", i, len(elem), k, s)
			}
			held += len(elem)
		}
	}
	return held, nil
}

// quantile is the nearest-rank q-quantile; it sorts xs.
func quantile[T int64 | float64 | time.Duration](xs []T, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	return float64(xs[min(len(xs)-1, int(q*float64(len(xs))))])
}
