#!/usr/bin/env bash
# Build srclda-served and the harness from this checkout, then run one
# workload:
#   bash e2ebench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1> [--repeat <k>]
# Build output goes to $CARGO_TARGET_DIR (default .bench_build), run
# scratch to .bench_work, both at the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in /*) ;; *) target="$root/$target" ;; esac
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet -p srclda_serve --bin srclda-served >&2
cargo build --release --offline --quiet --manifest-path e2ebench/Cargo.toml >&2
commit="$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse --short HEAD 2>/dev/null ||
    cat Cargo.lock crates/*/Cargo.toml $(find crates src -name '*.rs' | sort) | cksum | cut -d' ' -f1)"
exec "$target/release/e2ebench" --daemon "$target/release/srclda-served" --root "$root" --commit "$commit" "$@"
