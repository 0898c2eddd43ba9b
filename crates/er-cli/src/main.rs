//! `er` — the command-line interface of the filtering benchmark.
//!
//! ```text
//! er generate --profile D2 --scale 0.1 --seed 42 --out-dir ./data
//! er filter   --e1 data/D2_e1.csv --e2 data/D2_e2.csv --method knn --k 3 --out pairs.csv
//! er evaluate --pairs pairs.csv --gt data/D2_gt.csv
//! ```
//!
//! `generate` writes a synthetic benchmark dataset as three CSV files;
//! `filter` runs one filtering method over two CSV entity collections and
//! writes the candidate pairs; `evaluate` scores a pair file against a
//! ground-truth file (PC, PQ, reduction ratio); `sweep` runs the full
//! fault-isolated Table VII benchmark with optional per-grid-point
//! guards, checkpointing and resume.

mod commands;

use std::process::ExitCode;

const USAGE: &str = "\
er — filtering techniques for entity resolution

USAGE:
    er generate --profile <D1..D10> [--scale F] [--seed N] --out-dir <dir>
    er filter   --e1 <csv> --e2 <csv> --method <name> [options] --out <csv>
    er evaluate --pairs <csv> --gt <csv> [--e1 <csv> --e2 <csv>]
    er sweep    [--datasets D1,D4] [--scale F] [--grid quick] [--timeout S]
                [--budget N] [--cache-budget 512M] [--store-dir <dir>]
                [--checkpoint f.jsonl] [--resume f.jsonl]
                [--inject-faults SPEC] [--csv out.csv] [--candidates] [--configs]
                [--shards N] [--rows N] [--queries N] [--threshold F]
                [--report f.txt] [--shard-bench f.json]
    er store    <inspect | verify | gc> --dir <dir>
    er serve    --store-dir <dir> --profile <D1..D10> [--scale F] [--seed N]
                [--method epsilon|knn] [--threshold F] [--k N] [--model M]
                [--clean] [--reversed] [--shards N] [--schema <attr>]
                [--addr HOST:PORT] [--queue N] [--batch N] [--workers N]
                [--deadline-ms N] [--retry-after-ms N] [--drain-grace-ms N]
                [--stats-out f.json] [--shard-subset i,j/n]
    er supervise --store-dir <dir> --profile <D1..D10> [--scale F] [--seed N]
                [--method epsilon|knn] [--threshold F] [--k N] [--model M]
                [--clean] [--reversed] [--schema <attr>]
                [--shards N] [--children N] [--addr HOST:PORT]
                [--deadline-ms N] [--retry-after-ms N]
                [--health-interval-ms N] [--health-timeout-ms N]
                [--health-failures N] [--backoff-ms N] [--backoff-max-ms N]

SWEEP FAULT TOLERANCE:
    --timeout S           per-grid-point wall-clock deadline (seconds);
                          blown deadlines become failure rows, the sweep continues
    --budget N            per-grid-point candidate-pair budget
    --checkpoint f.jsonl  append each completed grid point to a checkpoint
    --resume f.jsonl      skip grid points already recorded (and keep appending);
                          the resumed report is byte-identical to an unbroken run
    --inject-faults SPEC  deterministic fault injection for testing, e.g.
                          'panic@Da1/SBW;stall@eval/*:p=0.1,ms=50'
                          (also via the ER_FAULTS environment variable)

SWEEP ARTIFACT CACHE:
    --cache-budget SIZE   artifact-cache memory budget (K/M/G suffixes,
                          e.g. 512M; default: unbounded). Prepared filter
                          artifacts beyond the budget are evicted LRU
    --store-dir dir       persistent artifact store: prepared artifacts are
                          written as checksummed files and reloaded (mmap)
                          by later runs, so a repeated sweep re-prepares
                          nothing; damaged files fall back to preparing

SHARDED OUT-OF-CORE EXECUTION:
    --shards N            split the collection across N deterministic shards
                          (pure function of the stable row id). `er sweep
                          --shards N` streams a synthetic workload one shard
                          at a time under the --cache-budget, so peak memory
                          is one shard, not the collection; reports are
                          byte-identical for every shard and thread count.
                          `er serve --shards N` fans lookups across shards
                          and merges in shard order — same wire bytes
    --rows N, --queries N workload size for the sharded sweep (stream
                          generator; defaults 20000 rows, rows/20 queries)
    --report f.txt        write the deterministic sharded-sweep report
    --shard-bench f.json  write throughput/RSS/cache counters (varying
                          metrics live here, never in the report)

SERVING:
    er serve loads one prepared sparse-join artifact from a --store-dir
    (built by `er sweep --store-dir`) and answers record→candidates over
    line-delimited JSON TCP: {\"id\":1,\"row\":42,\"deadline_ms\":50} in,
    {\"id\":1,\"row\":42,\"candidates\":[..],\"n\":2,\"us\":180} out. Startup does
    zero prepare work (the store-hit line proves it). Overload sheds with
    retry_after_ms, deadlines become structured timeout rows, and SIGTERM
    drains: in-flight requests finish, stats flush, the process exits 0.
    {\"op\":\"health\"} and {\"op\":\"stats\"} probe liveness and counters
    (latency histogram p50/p95/p99, queue depth, shed count, store hits).

MULTI-PROCESS SERVING:
    er supervise partitions a persisted N-shard family across --children
    `er serve --shard-subset` child processes and answers the same wire
    protocol through a merge proxy: candidates merge in shard order, so
    responses are byte-identical to a single `er serve --shards N`.
    Crashed children restart under doubling backoff; in-band health
    probes SIGKILL silent children; child shed/drain answers retry
    inside the request deadline and surface as structured
    unavailable/timeout rows, never hangs. A torn family (some shard
    manifests missing) refuses startup naming the missing shards before
    any child is spawned; an absent family is bootstrapped once.

STORE MAINTENANCE:
    er store inspect --dir d   print each file's header, section layout and
                               per-section encoded vs decoded byte sizes
    er store verify  --dir d   deep-check checksums + full decode (non-zero
                               exit when any file is damaged)
    er store gc      --dir d   remove stale temp and undecodable files

FILTER METHODS (with their options):
    pbw                   Standard Blocking + Block Purging + Comparison Propagation
    dbw                   Q-Grams(6) + Block Filtering(0.5) + WEP+ECBS
    sbw                   Standard Blocking + Meta-blocking  [--scheme S --pruning P]
    epsilon               ScanCount range join               [--threshold F --model M --clean]
    knn                   kNN-Join                           [--k N --model M --clean --reversed]
    dknn                  Default kNN-Join baseline
    faiss                 exact dense kNN                    [--k N --dim N --clean --reversed]
    minhash               MinHash LSH                        [--bands N --rows N --shingle N]

COMMON FILTER OPTIONS:
    --schema <attr>       schema-based setting on one attribute (default: agnostic)
    --lenient             skip (and count) malformed CSV rows instead of erroring
    --threads <N|auto>    worker threads for the parallel hot paths
                          (default: ER_THREADS env var, else all cores;
                          results are identical for every thread count)

Run a subcommand with wrong flags to see its specific error.
";

fn main() -> ExitCode {
    if let Err(e) = er::core::faults::configure_from_env() {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("generate") => commands::generate(&args[1..]),
        Some("filter") => commands::filter(&args[1..]),
        Some("evaluate") => commands::evaluate(&args[1..]),
        Some("sweep") => commands::sweep(&args[1..]),
        Some("store") => commands::store(&args[1..]),
        Some("serve") => commands::serve(&args[1..]),
        Some("supervise") => commands::supervise(&args[1..]),
        Some("--help") | Some("-h") | None => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(format!("unknown subcommand {other:?}\n\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
