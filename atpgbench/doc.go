// Command atpgbench is the repository's end-to-end benchmark.  It runs
// one workload against the public surface — satpg.Run (as Abstract plus
// GenerateCtx on the CSSG flow), satpg.CompactProgram and the satpgd
// HTTP API — checks every output against the repository's oracles, and
// prints one JSON result line:
//
//	bash atpgbench/run.sh --workload paper-tables --seed 1 --seconds 20 --trace 0
//
// run.sh builds this package from the checkout (it is a module of its
// own that replaces "repro" with the checkout root) and keeps every
// file it writes under .bench_build/.  BENCHMARK.json at the root
// declares the workloads and the metrics; the program emits exactly
// the metrics declared there.
//
// # Workloads
//
// paper-tables is the paper's own experiment: cmd/tables at default
// options, the CSSG flow on all 35 Table-1 and Table-2 circuits under
// output and input stuck-at (70 ops), each program compacted with
// CompactAll.  It is the only workload that runs the CSSG abstraction
// (core) and the exact three-phase fallback.
//
// direct-iscas is the direct flow on s349 (363 signals) and s953 (989
// signals) under input stuck-at, PodemBudget 16 (2 ops).  It is the
// only path past the 64-signal ceiling; PODEM and the walk screening
// carry it.  There is no CSSG here.
//
// audit-service runs service.New with a result store in a fresh
// directory behind a real loopback listener.  Two closed-loop
// connections (each waits for its answer before sending again) replay
// a seeded stream of 350 requests per pass: coverage audits of 64-test
// × 12-cycle programs on s349 and s953, about 8% compactions of 96
// programs on s349, and about 40% repeats of a request the same
// connection already sent, which the store must answer.  Every program
// is a valid walk (a fully definite settling each cycle).  Passes
// repeat, each on a fresh server and store, so a run sends at least
// 1,000 requests.  It is the only
// workload that uses HTTP, JSON and the store, and the only one where
// fsim runs in dropping mode.
//
// Not measured, on purpose: coordinator/peer sharding and chaos
// failover — a 2-CPU machine cannot show scale-out honestly.
//
// # Inputs, repetitions and cold starts
//
// Every input comes from --seed: the ATPG seed of the generation
// workloads, and which walks make up each program and the request
// order of audit-service (its walk pools are a fixed corpus, like the
// circuits, and its mix of classes and repeats is exact, so seeds vary
// content, not the kind of work).  Each generation pass parses its
// circuits afresh, and each audit pass starts a fresh server, so the
// caches keyed by circuit pointer start cold as they do for a CLI
// user.  Store hits follow from the stream, not from timing.  Every
// repetition must reproduce the first exactly (tests, verdicts, PODEM
// decisions, fallback calls, store hits); a difference fails the op.
//
// # End-to-end metrics (--trace 0)
//
// One op is one (circuit, model) generation plus compaction, or one
// HTTP request.  An op fails on an error, a non-200, or an oracle
// mismatch; the result line's failed/attempted is the failure share.
//
//   - setup_s: median of 31+ set-ups per run: parsing the workload's
//     circuits, or listener start plus resultstore.Open plus interning
//     both circuits over HTTP.
//   - wall_s: median pass time — every op of the workload once.
//   - op_p99_ms: tail op latency.  On audit-service it is the
//     client-observed p99 over at least 1,050 requests pooled over the
//     passes (at least 10 samples beyond it).  Generation passes repeat
//     the same ops, so each op's latency is its median over the passes
//     and the p99 is over the ops: 70 on paper-tables, 2 on
//     direct-iscas, where it is in effect the slowest op (s953).
//   - ops_per_s: ops per second of pass time (median over passes); on
//     audit-service, queries per second at 2 connections.
//   - faults_covered, program_tests: what a pass tells its user —
//     faults detected and compacted program size, summed over ops.
//   - peak_rss_mb: the process's peak resident set through set-up and
//     the first pass, before any oracle runs.
//
// There is no end-to-end median latency: on paper-tables the middle of
// the op-time distribution moves ±15% with the ATPG seed, more than
// any bound can hold.  The traced run reports audit-service's request
// p50 (service.request_p50_ms) and the per-class p50s.
//
// # Per-layer metrics (--trace 1)
//
// A traced run makes one untraced pass, one traced pass with spans
// (name, start, end, parent, run) around every call the benchmark makes
// into a layer, then probes that isolate layers behind one call, then
// the oracle.  Spans are written to .bench_build/spans/.  Each layer
// and the end-to-end metric it should move:
//
//   - netlist (parse_s): setup_s on every workload.
//   - core (build_s, builds, states, edges): wall_s on paper-tables,
//     where it is about 60% of the traced pass; every pair re-abstracts,
//     so half the 70 builds repeat a circuit.  Nothing elsewhere.
//   - atpg (generate_s, random_s, fallback_calls, fallback_s,
//     untestable, aborted, tests_generated): wall_s on paper-tables
//     (about 40% of the pass, most of it the fallback on trimos-send and
//     vbe10b) and on direct-iscas (random_s is Run with SkipPodem).
//   - podem (targeted, found, found_ratio, decisions, backtracks,
//     settles, target_s, us_per_decision): wall_s on direct-iscas, where
//     it is about two thirds of the pass, and faults_covered there if
//     found rises (0 of 3,783 targets at seed 1).  About nothing on
//     paper-tables.
//   - fsim (patterns, gate_evals[_per_pattern], allocs[_per_pattern],
//     timed_s, timed_patterns, ns_per_pattern, trace_cache_*): wall_s on
//     direct-iscas; op_p99_ms and ops_per_s on audit-service.
//   - compact (matrix_s, passes_s, tests_before, tests_after,
//     matrix_patterns): op_p99_ms on audit-service; under 3% of wall_s
//     elsewhere.
//   - service (request_p50_ms, coverage_p50_ms, compact_p50_ms,
//     store_hit_p50_ms, server_ms, overhead_ms, response_kb, errors,
//     encode_failures): ops_per_s and wall_s on audit-service only.
//   - resultstore (hits, misses, hit_ratio, evictions, log_mb, open_s):
//     ops_per_s and setup_s on audit-service.
//   - oracle.check_s, trace.*: move no end-to-end metric.
//     trace.pass_s is the traced pass's wall time and
//     trace.<layer>_frac each layer's self time over it (concurrent
//     request spans each count, so the service share nears 2 on
//     audit-service);
//     trace.unattributed_frac is the time no layer span covers, not
//     spread over layers; trace.overhead_frac is the median over ops of
//     traced/untraced op time, minus one.
//
// How the probes split one call: podem.target_s is the atpg span time
// minus the same generation with SkipPodem; atpg.fallback_s replays
// every exhaustive search through atpg.GenerateTest (and checks it
// reaches the recorded verdict); atpg.random_s is the SkipPodem time,
// less the fallback on the CSSG flow; compact.matrix_s is
// compact.BuildMatrix on the same programs and compact.passes_s the
// compaction time beyond it (on audit-service both are re-run
// in-process, alone, so the other connection's load does not skew the
// split); fsim.ns_per_pattern is a NoDrop fsim pass
// over the generated tests (generation) or the server's own coverage
// time per simulated pattern (audit-service).  Every probe starts from
// an empty good-trace cache.  A workload reports 0 for a layer it does
// not run.  Ratios come with their numerator and base as metrics.
//
// # Correctness gate (outside the timed region)
//
// Every CSSG-flow detection is re-verified with satpg.VerifyTest and
// every direct-flow result with satpg.ValidateDirect; each compaction
// must keep original programs and measure verdict-equal to the full
// program.  Each audit's per-fault verdicts must equal an in-process
// satpg.FaultSimBatch reference, each store replay must be
// byte-identical to the first answer (less its from_store flag), and
// /metrics must count exactly the stream's repeats as store hits.
package main
