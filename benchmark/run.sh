#!/usr/bin/env bash
# The one command: build the benchmark (release, offline) and run it.
# Arguments go to the binary; see `src/main.rs` or README.md.
#
# Run from anywhere. Unless CARGO_TARGET_DIR says otherwise the build
# shares the repository's own target directory, so the product's crates
# are compiled once for both.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/../target}"
# A panic names where it came from (costs nothing until one happens).
export RUST_BACKTRACE="${RUST_BACKTRACE:-1}"
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- "$@"
