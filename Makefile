# Sorrento reproduction — developer entry points.
#
#   make check      build (release) + full test suite + the benchmark's
#                   own unit tests + clippy with -D warnings + rustdoc
#                   with -D warnings (public-API docs are load-bearing)
#   make test       test suite only
#   make bench-unit the benchmark's own unit tests (benchmark/ is a
#                   workspace of its own, compiled against the product's
#                   public APIs, so an API change shows here first)
#   make check-net  real-process runtime: the epoll shim's own tests (its
#                   poller and the nonblocking connect every dial uses),
#                   frame-codec property tests over every tag the codec
#                   lists plus the committed version-5 byte fixture
#                   (tests/tests/data/wire_v5.txt), the allocation
#                   budgets of a 32 MiB read, a 32 MiB EC write, an
#                   8 MiB replica fetch and a pooled frame encode
#                   (bulk_alloc prints its counts), the
#                   256-session storm (zero hangs, zero dropped ops), the
#                   loopback kit's own test, chunked reads == unchunked
#                   reads in the simulator, and the loopback TCP cluster
#                   drill (sockets, daemons, sorrentoctl)
#   make bench      regenerate every figure/table into results/
#   make sim-bytes  regenerate every seeded simulator output in results/
#                   (fig09–fig15 and ablations with their telemetry_*.json,
#                   and failure_drill's telemetry) and fail on any byte
#                   that differs from the committed files: what proves a
#                   change moved no simulated byte, ≈ 2 min
#
# The *-smoke targets below are developer entry points: each reruns, with
# --nocapture, tests that `make test` already runs quietly, so their
# figures print.
#   make chaos-smoke  the chaos game-day drill: a real loopback cluster
#                   under deterministic fault injection, with a provider
#                   crash + restart, run for three fixed seeds
#   make obs-smoke  the observability drill: boot a loopback cluster,
#                   scrape every node's versioned stats snapshot, kill a
#                   provider, and schema-check the flight dump and
#                   metrics.jsonl it leaves behind, plus the span-trace
#                   merge tests
#   make ec-smoke   the erasure-coding drill: first the byte kernels'
#                   own tests (the GF(2^8) fold against the log/exp
#                   multiply, the pinned RS(4,2) parity, the CRC-32
#                   lanes against zlib and the one-byte definition),
#                   then EC(4,2) against replication-3 with every
#                   figure pinned (storage overhead, read latency healthy
#                   and degraded, repair bytes, heal time), then the
#                   seeded-simulator EC tests
#                   (roundtrip, rewrite, refused partial rewrite,
#                   degraded read, shard repair, parity against a flat
#                   oracle), then a loopback EC(4,2) cluster that loses
#                   two shard holders mid-run — degraded reads must
#                   reconstruct and the repair scan must restore the
#                   shard count on disk
#   make ns-smoke   the metadata-plane drill: ops/s at 1, 2 and 4
#                   namespace shards (4 shards >= 2.5x one), the
#                   standby's replay tail at two checkpoint intervals,
#                   the rest of the sharded-namespace simulator tests,
#                   then a 2-shard loopback cluster with hot standbys
#                   whose shard primary is killed: the standby takes over
#                   and serves correct reads
#   make membership-smoke  the gossip-membership drill: the SWIM
#                   simulator suite (detection under 10% loss at indirect
#                   fan-out 1, 2 and 4 with zero false evictions,
#                   false-positive-freedom, refutation, 500-provider
#                   detection bound, gossip convergence), the
#                   ring/rendezvous/ASURA placement ablation, then a live
#                   loopback suspect/confirm drill with a kill -9'd
#                   provider
#   make bench-e2e  the repo's one wall-clock benchmark (benchmark/run.sh):
#                   six workloads on real in-process daemons over loopback
#                   TCP, four gated end-to-end metrics each, ~10 min
#   make bench-e2e-smoke  the same in under a minute: BENCHMARK.json still
#                   says what the binary emits, then one instance per
#                   workload with probe-sized phases; any failed or
#                   mis-verified op fails the target
#   make docs       rustdoc for the whole workspace (warnings are errors)
#   make loc        workspace Rust line count as ROADMAP tracks it per PR
#                   (benchmark/ and target/ excluded), total then per
#                   top-level directory, then the non-test lines of
#                   crates/ (outside crates/*/tests/ and every
#                   #[cfg(test)] item), beside the count at LOC_BASE
#                   (default HEAD~1) and the difference

CARGO ?= cargo

.PHONY: check build test bench-unit clippy check-net bench sim-bytes bench-e2e bench-e2e-smoke chaos-smoke obs-smoke ec-smoke ns-smoke membership-smoke docs loc

check: build test bench-unit clippy docs

build:
	$(CARGO) build --release

test:
	$(CARGO) test -q

bench-unit:
	$(CARGO) test -q --manifest-path benchmark/Cargo.toml

clippy:
	$(CARGO) clippy --all-targets -- -D warnings

check-net:
	$(CARGO) test -p epoll
	$(CARGO) test -p sorrento-net
	$(CARGO) test -p sorrento-net --test bulk_alloc -- --nocapture
	$(CARGO) test -p sorrento-tests --test frame_codec
	$(CARGO) test -p sorrento-tests --test chunked_read
	$(CARGO) test -p sorrento-tests --test loopback_cluster

chaos-smoke:
	$(CARGO) test -p sorrento-tests --test chaos_recovery -- --nocapture

obs-smoke:
	$(CARGO) test -p sorrento-tests --test obs_smoke -- --nocapture
	$(CARGO) test -p sorrento-tests --test observability -- --nocapture

ec-smoke:
	$(CARGO) test -p sorrento-ec
	$(CARGO) test -p sorrento-kvdb crc
	$(CARGO) test -p sorrento-tests --test ec_cost --test ec_mode --test ec_parity -- --nocapture

ns-smoke:
	$(CARGO) test -p sorrento-tests --test ns_shard --test ns_failover -- --nocapture

membership-smoke:
	$(CARGO) test -p sorrento-tests --test membership --test placement_ablation \
	  --test membership_live -- --nocapture

SIM_BINS := fig09_small_file_latency fig10_small_file_throughput \
            fig11_large_file_bandwidth fig12_trace_replay \
            fig13_failure_recovery fig14_crawler_placement \
            fig15_locality_migration ablations

bench:
	for f in $(SIM_BINS); do \
	  $(CARGO) run --release -p sorrento-bench --bin $$f | tee results/$$f.txt; \
	done

sim-bytes:
	set -e; for f in $(SIM_BINS); do \
	  $(CARGO) run --release -q -p sorrento-bench --bin $$f > results/$$f.txt; \
	done
	$(CARGO) run --release -q -p sorrento-examples --bin failure_drill > /dev/null
	git diff --exit-code --stat -- results/
	test -z "$$(git status --porcelain -- results/)"

bench-e2e:
	bash benchmark/run.sh

bench-e2e-smoke:
	bash benchmark/run.sh --validate
	bash benchmark/run.sh --smoke

docs:
	RUSTDOCFLAGS="-D warnings" $(CARGO) doc --no-deps

LOC_BASE ?= HEAD~1

# Counts the lines of the .rs files it is given, less each #[cfg(test)]
# item: an item that opens a brace, to the brace closing it at its own
# indent; `mod name;`, with the file it names; any other, its one line.
NONTEST_AWK = 'FNR == 1 { insk = 0; cfg = 0 } \
  insk { if (substr($$0, 1, length(ind) + 1) == ind "}") insk = 0; next } \
  cfg { cfg = 0; \
    if ($$0 ~ /^[ \t]*(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+;/) { \
      name = $$0; sub(/^.*mod /, "", name); sub(/;.*$$/, "", name); \
      dir = FILENAME; sub(/[^\/]*$$/, "", dir); base = FILENAME; sub(/^.*\//, "", base); \
      if (base != "mod.rs" && base != "lib.rs" && base != "main.rs") { sub(/\.rs$$/, "", base); dir = dir base "/" } \
      skip[dir name ".rs"] = 1 \
    } else if ($$0 ~ /\{[ \t]*$$/) { match($$0, /^[ \t]*/); ind = substr($$0, 1, RLENGTH); insk = 1 } \
    next } \
  /^[ \t]*\#\[cfg\(test\)\][ \t]*$$/ { cfg = 1; next } \
  { n[FILENAME]++ } \
  END { for (f in n) if (!(f in skip)) t += n[f]; print t + 0 }'
NONTEST_FILES = find crates -path 'crates/*/tests' -prune -o -name '*.rs' -print

loc:
	@base=$$(git rev-parse -q --verify '$(LOC_BASE)^{commit}') || base=; \
	printf '%-28s %7s %7s %7s\n' '' now '$(LOC_BASE)' delta; \
	for d in "crates shims tests examples" crates shims tests examples; do \
	  now=$$(find $$d -name '*.rs' | xargs cat | wc -l); \
	  if [ -n "$$base" ]; then \
	    was=$$(git archive $$base $$d | tar -xO --wildcards '*.rs' | wc -l); \
	    printf '%-28s %7s %7s %+7d\n' "$$d" "$$now" "$$was" "$$((now - was))"; \
	  else \
	    printf '%-28s %7s %7s\n' "$$d" "$$now" '?'; \
	  fi; \
	done; \
	now=$$($(NONTEST_FILES) | xargs awk $(NONTEST_AWK)); \
	if [ -n "$$base" ]; then \
	  tmp=$$(mktemp -d) && git archive $$base crates | tar -x -C $$tmp && \
	  was=$$(cd $$tmp && $(NONTEST_FILES) | xargs awk $(NONTEST_AWK)) && rm -rf $$tmp; \
	  printf '%-28s %7s %7s %+7d\n' "crates (non-test)" "$$now" "$$was" "$$((now - was))"; \
	else \
	  printf '%-28s %7s %7s\n' "crates (non-test)" "$$now" '?'; \
	fi
