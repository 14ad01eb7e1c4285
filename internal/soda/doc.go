// Package soda implements the SODA atomic storage protocol (Konwar,
// Prakash, Kantor, Lynch, Médard, Schwarzmann — "Storage-Optimized
// Data-Atomic Algorithms for Handling Erasures and Errors in
// Distributed Storage Systems", IPDPS 2016) over the internal/rs
// codec.
//
// A cluster of n servers implements one multi-writer multi-reader
// atomic register. Every written value is encoded into one [n, k] MDS
// codeword and each server stores exactly one coded element of it —
// the storage optimization in the paper's title: total storage is n/k
// times the value, versus n full copies under replication, and versus
// CASGC's (δ+1)·n/k for δ concurrent writes (Cadambe et al., "A Coded
// Shared Atomic Memory Algorithm for Message Passing Architectures").
// SODA buys the single-version storage bound with a server-relay
// structure on the read path instead of multi-version buffering.
//
// Roles and phases:
//
//   - Tag: every write is identified by a Tag = (ts, writer-id) with
//     the lexicographic total order; tags order all writes.
//
//   - Writer (two phases): get-tag queries all servers for their
//     local tag and waits for n-f responses, then picks
//     (max.ts+1, id); put-data encodes the value with rs.Encoder and
//     sends coded element i to server i, completing on n-f acks.
//
//   - Server (state machine, server.go): stores the one coded element
//     of the highest tag it has seen, keeps per-tag reader
//     registrations (reader, t_req) where t_req is the server's tag
//     at registration time, and relays every arriving put-data
//     element with tag >= t_req to each registered reader until the
//     reader unregisters.
//
//   - Reader: get-data registers at all servers; each server answers
//     with its current (tag, element) and then relays concurrent
//     writes as they arrive. Once initial responses from n-f servers
//     fix the target tag t_target (their maximum), the reader
//     completes with the first tag t >= t_target for which it holds
//     coded elements from k distinct servers, erasure-decoding the
//     missing data shards with rs.ReconstructInto straight into the
//     returned value; it then unregisters everywhere. Delivered
//     elements are only read, never written.
//
// Fault tolerance: with f crash-faulty servers, writes and reads both
// wait on n-f quorums, and any two quorums intersect in n-2f >= k
// servers, so reads see every completed write; liveness therefore
// needs n >= k + 2f. Readers additionally require f < k: a read may
// adopt a half-applied write whose tag lives on only the k servers it
// decoded from, and k > f is what guarantees the next read's n-f
// initial quorum still meets one of them, keeping reads monotone. A reader built with WithReadErrors(e) runs the
// SODA_err variant: it waits for k + 2e coded elements of a matching
// tag (possible while n - f >= k + 2e), runs Verify when all n are in
// hand and otherwise the read-only syndrome decoder rs.DecodeErrorsTo
// on the rs-view generator, and reports the located corrupt server
// indices for quarantine, tolerating e servers that return silently
// corrupted elements on top of the crash faults (decoding radius
// 2e + erasures <= n - k).
//
// Transport: messages ride a small length-prefixed binary framing
// (wire.go) either over real TCP connections (tcp.go) or over the
// deterministic in-process Loopback (loopback.go), which adds
// fail-stop, silent-crash, and corrupt-storage fault injection for
// tests and the sodademo binary.
package soda
