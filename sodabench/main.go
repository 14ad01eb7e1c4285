// Command sodabench is the repository's closed-loop benchmark for the
// SODA and SODA_err register service. For one workload it builds an
// in-process Loopback cluster of memory-only servers, prewrites every key, and drives the cluster from two client
// goroutines, each waiting for its reply before sending the next
// operation. Every operation carries a deadline, every result is
// checked, and the last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with no
// instrumentation between the clients and the cluster over --seconds.
// With --trace 1 the run splits --seconds between an untraced window
// and a traced window in which a
// soda.Conn decorator records an op span per Write/Read and a child
// span per GetTag/PutData/GetData leg, then times spare Codec,
// rs.Encoder and Server instances. It reports the per-layer metrics
// and the tracing overhead (traced against untraced throughput).
//
// Run it through run.sh, which builds it from the checkout's sources:
//
//	bash sodabench/run.sh --workload kv-small --seed 1 --seconds 10 --trace 0
//
// Sockets and the WAL are not on any workload's path: a TCP cluster of
// durable servers spread too much between runs on a small shared host
// to be gated. The durability layer is timed on a spare durable Server
// in the traced run instead.
//
// Numbers are not comparable with BENCH_soda.json, which is an open
// loop at GOMAXPROCS=1 measured in a single shot.
//
// err-large rots server 2 and crashes no server. Every read still
// decodes over erasures and locates the rotted element: it decodes as
// soon as k+2e = 5 of the 7 elements are in. err-crash is err-large
// with server 1 also fail-stopped after the prewrite, the paper's
// erasure-plus-error setting. It is not gated: a known defect makes
// its runs fail at random, and a gated workload must run with no
// failed operation and every check passing. About one err-crash run in
// fifteen shows it; to reproduce it by hand, run
//
//	for s in $(seq 1 30); do bash sodabench/run.sh --workload err-crash --seed $s --seconds 5 --trace 0; done
//
// Known defect: Writer.Write can leave a straggler server without the
// element of a write that completed. Once the n-f quorum acks, Write
// cancels its legs, and a leg whose GetTag answers after that picks
// between the minted tag and the cancellation at random, so its
// PutData may never be sent, and a write can end on only n-f = 5 of
// the 7 servers. A live server that misses a key this way gets the key
// back from a later write; a fail-stopped one never does. On err-crash
// this shows two ways:
//
//   - The storage check asks every server to hold exactly one
//     ceil(v/k)-byte element of every key at the end of the run, so
//     that storage_overhead is exactly n·ceil(v/k)/v. A prewrite that
//     skipped the crashed server fails it, and the run exits non-zero.
//   - A read of a key whose last write reached only 5 servers, one of
//     them the crashed one, finds 4 elements where it needs k+2e = 5,
//     and waits for the next write of the key. It ends at its deadline
//     and counts as failed; it never stalls the run.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"time"
)

// opTimeout bounds every Write and Read. It is far above any p99 the
// workloads reach, so it only ever ends an operation that hangs.
const opTimeout = time.Second

// nClients is the number of closed-loop client goroutines.
const nClients = 2

// runLimit ends a run that stalls despite the per-op deadlines (for
// example in teardown), with a goroutine dump and a non-zero exit.
const runLimit = 170 * time.Second

// workload is one traffic mix against one cluster geometry.
type workload struct {
	n, k       int
	readErrors int // e for WithReadErrors; e > 0 needs rs.GeneratorRSView
	vsize      int // value bytes
	keys       int
	readFrac   float64
	crash, rot int // server fail-stopped / rotted after prewrite; -1 for none
}

func (w workload) shardSize() int { return (w.vsize + w.k - 1) / w.k }

var workloads = map[string]workload{
	// Client coordination, server state and GC do the work; codec,
	// transport and WAL are bypassed, so this is their no-change control.
	"kv-small": {n: 5, k: 3, vsize: 128, keys: 10000, readFrac: 0.5, crash: -1, rot: -1},
	// SODA_err with e=1: every read locates the rotted element over
	// erasures, so codec work and element copies dominate.
	"err-large": {n: 7, k: 3, readErrors: 1, vsize: 64 << 10, keys: 256, readFrac: 0.9, crash: -1, rot: 2},
	// err-large plus a fail-stopped server; not gated (see above).
	"err-crash": {n: 7, k: 3, readErrors: 1, vsize: 64 << 10, keys: 256, readFrac: 0.9, crash: 1, rot: 2},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name: kv-small, err-large or err-crash")
	seed := flag.Int64("seed", 1, "seed for keys, operation mix and values")
	seconds := flag.Float64("seconds", 10, "length of each measured window")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	workdir := flag.String("workdir", ".bench_build", "directory for WAL state and span logs")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "sodabench: need --workload {kv-small|err-large|err-crash} --seconds >0 --trace {0|1}\n")
		os.Exit(2)
	}
	time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "sodabench: run exceeded %v; goroutines:\n", runLimit)
		_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
		os.Exit(3)
	})

	b := &bench{name: *name, w: w, seed: *seed, window: time.Duration(*seconds * float64(time.Second)), workdir: *workdir}
	res, err := b.run(*trace == 1)
	var bad *checkError
	switch {
	case errors.As(err, &bad):
		res.Correct = false
		fmt.Fprintf(os.Stderr, "sodabench: correctness check failed: %v\n", err)
	case err != nil:
		fmt.Fprintf(os.Stderr, "sodabench: %v\n", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sodabench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}
