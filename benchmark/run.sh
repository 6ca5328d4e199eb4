#!/usr/bin/env bash
# Builds the benchmark in release and runs the suite; see suite.py --help.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
cargo build --release --locked --offline --quiet --manifest-path "$here/Cargo.toml"
exec python3 "$here/suite.py" "$@"
