#!/usr/bin/env bash
# Full local CI pipeline: formatting, lints (clippy + rrq-lint), the
# rrq-analyze static analyzer, and the tier-1 build/test cycle. Run from
# the repo root.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy --workspace -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== rrq-lint"
cargo run --release -p rrq-check --bin rrq-lint

echo "== rrq-analyze (lock-order, no-block-under-guard, durability-dominator, relaxed-ordering)"
# Whole-workspace analyzer over the LOCKS.md catalogue; findings carry the
# witnessing acquisition chain. See DESIGN.md §22.
cargo run --release -p rrq-check --bin rrq-analyze

echo "== cargo build --release"
cargo build --release

echo "== cargo test"
cargo test -q --release

echo "== rrqbench unit tests (the benchmark's checker and statistics)"
cargo test --release --offline --manifest-path rrqbench/Cargo.toml

echo "== rrqbench remote_open smoke (exactly-once and money audits over RPC)"
# Gates on the exit code only: the checker exits 1 on any audit violation
# (a lost, duplicated or mismatched reply, or money not conserved). The
# timings it prints are not gated here.
cargo run --release --offline --manifest-path rrqbench/Cargo.toml -- \
  --workload remote_open --seed 1 --seconds 3 --trace 0

echo "== E18 contention smoke (striped vs single-mutex at 4 workers)"
# Asserts striped throughput is no worse than the shards=1 baseline on the
# shared-queue bank workload (full sweep: experiments -- e18).
cargo run --release -p rrq-bench --bin experiments -q -- e18 --smoke

echo "== E19 partitioned-WAL smoke (parallel recovery + single-partition baseline)"
# Asserts recovery over 4 shard logs is >= 2x faster than the monolithic
# scan on per-read-latency devices, and that a wal_partitions=1 store holds
# >= 0.95x the KvStore::open baseline throughput (full sweep: experiments -- e19).
cargo run --release -p rrq-bench --bin experiments -q -- e19 --smoke

echo "== E21 repo-partition smoke (shared-nothing scaling, 4 vs 1 partitions)"
# Asserts 4 shared-nothing repository partitions push >= 1.5x the 1-partition
# rate on the bank workload at 0% cross-partition traffic, every commit
# forcing a 100us WAL write (full sweep: experiments -- e21).
cargo run --release -p rrq-bench --bin experiments -q -- e21 --smoke

echo "== E22 planned-execution smoke (contention crossover + locked-baseline tripwire)"
# Asserts the planned pool beats the full 2PL stack (skip-locked dequeues +
# group commit) >= 1.2x at 100% hot-pair traffic, and that the exec_mode-knob
# locked cell holds >= 0.95x of the pre-PR plain-constructor baseline
# (full sweep: experiments -- e22).
cargo run --release -p rrq-bench --bin experiments -q -- e22 --smoke

echo "== explorer smoke sweep (200 fixed-seed fault scripts)"
# Deterministic: any failure prints the seed and a replayable script path
# (replay with: cargo run --release -p rrq-bench --bin explore -- --replay <path>).
cargo run --release -p rrq-bench --bin explore -- \
  --scripts 200 --seed 1 --budget-secs 240 --out target/explorer-failures

echo "== explorer partitioned sweep (200 scripts, wal_partitions=4, per-log torn tails)"
# Same fixed seeds, four shard logs: scripts tear random log subsets and the
# conservation oracles must stay green across every recovery.
cargo run --release -p rrq-bench --bin explore -- \
  --scripts 200 --seed 1 --budget-secs 240 --wal-partitions 4 \
  --out target/explorer-failures-p4

echo "== explorer shared-nothing sweep (200 scripts, repo_partitions=4)"
# Same fixed seeds against four shared-nothing repository partitions: clerks
# route per queue, partition-scoped crashes and single-pair cuts land mid
# protocol, and the oracle battery must stay green across every recovery.
cargo run --release -p rrq-bench --bin explore -- \
  --scripts 200 --seed 1 --budget-secs 240 --repo-partitions 4 \
  --out target/explorer-failures-repo4

echo "== explorer planned-execution sweep (200 scripts, exec_mode=planned)"
# Same fixed seeds with the dequeue-loop servers replaced by the epoch-
# batched planned pool: crashes land inside plan, execute, and epoch-commit
# windows and the oracle battery must stay green across every recovery.
cargo run --release -p rrq-bench --bin explore -- \
  --scripts 200 --seed 1 --budget-secs 240 --exec-mode planned \
  --out target/explorer-failures-planned

echo "CI OK"
