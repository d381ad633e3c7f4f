# Sorrento reproduction — developer entry points.
#
#   make check      build (release) + full test suite + the benchmark's
#                   own unit tests + clippy with -D warnings + rustdoc
#                   with -D warnings (public-API docs are load-bearing)
#   make test       test suite only
#   make bench-unit the benchmark's own unit tests (benchmark/ is a
#                   workspace of its own, compiled against the product's
#                   public APIs, so an API change shows here first)
#   make check-net  real-process runtime: frame-codec property tests over
#                   every tag the codec lists plus the committed version-5
#                   byte fixture (tests/tests/data/wire_v5.txt), the
#                   allocation budgets of a 32 MiB read, a 32 MiB EC
#                   write, an 8 MiB replica fetch and a pooled frame
#                   encode (bulk_alloc prints its counts), the
#                   256-session storm (zero hangs, zero dropped ops), the
#                   loopback kit's own test, chunked reads == unchunked
#                   reads in the simulator, and the loopback TCP cluster
#                   drill (sockets, daemons, sorrentoctl)
#   make bench      regenerate every figure/table into results/
#   make sim-bytes  regenerate every seeded simulator output in results/
#                   (fig09–fig15 and ablations with their telemetry_*.json,
#                   failure_drill's telemetry, BENCH_ec.json) and fail on
#                   any byte that differs from the committed files: what
#                   proves a change moved no simulated byte, ≈ 2 min
#   make bench-check  the committed results/BENCH_{ns,membership}.json
#                   still validate and both benches still run at CI size
#
# The *-smoke targets below are developer entry points: each reruns, with
# --nocapture, live drills that `make test` already runs quietly.
#   make chaos-smoke  the chaos game-day drill: a real loopback cluster
#                   under deterministic fault injection, with a provider
#                   crash + restart, run for three fixed seeds
#   make obs-smoke  the observability drill: boot a loopback cluster,
#                   scrape every node's versioned stats snapshot, kill a
#                   provider, and schema-check the flight dump and
#                   metrics.jsonl it leaves behind, plus the span-trace
#                   merge tests
#   make ec-bytes   regenerate results/BENCH_ec.json into target/ and cmp
#                   it with the committed file: the seeded simulator's EC
#                   bytes (parity, placement, repair), in under a second
#   make ec-smoke   the erasure-coding drill: ec-bytes, then the
#                   seeded-simulator EC tests (roundtrip, rewrite, refused
#                   partial rewrite, degraded read, shard repair), then a
#                   loopback EC(4,2) cluster that loses two shard holders
#                   mid-run — degraded reads must reconstruct and the
#                   repair scan must restore the shard count on disk
#   make ns-smoke   the metadata-plane drill: schema-check the committed
#                   results/BENCH_ns.json (4-shard speedup >= 2.5x and a
#                   3-interval failover sweep), run the sharded-namespace
#                   simulator tests, boot a 2-shard loopback cluster with
#                   hot standbys, kill a shard primary, and assert the
#                   standby takes over and serves correct reads
#   make membership-smoke  the gossip-membership drill: schema-check the
#                   committed results/BENCH_membership.json (detection
#                   latency under 10% loss, zero false evictions, plus
#                   the ring/rendezvous/asura placement ablation), run
#                   the SWIM simulator suite (false-positive-freedom,
#                   refutation, 500-provider detection bound, gossip
#                   convergence), then a live loopback suspect/confirm
#                   drill with a kill -9'd provider
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
#                   top-level directory, beside the count at LOC_BASE
#                   (default HEAD~1) and the difference

CARGO ?= cargo

.PHONY: check build test bench-unit clippy check-net bench sim-bytes bench-check bench-e2e bench-e2e-smoke chaos-smoke obs-smoke ec-bytes ec-smoke ns-smoke membership-smoke docs loc

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

ec-bytes:
	$(CARGO) run --release -p sorrento-bench --bin bench-ec -- --out target/BENCH_ec.json
	cmp target/BENCH_ec.json results/BENCH_ec.json

ec-smoke: ec-bytes
	$(CARGO) test -p sorrento-tests --test ec_mode --test ec_parity -- --nocapture

# $(call bench-check,ns): the committed results file still validates and
# the bench that wrote it still runs, at CI size.
define bench-check
	$(CARGO) run --release -p sorrento-net --bin bench-$(1) -- \
	  --validate results/BENCH_$(1).json
	$(CARGO) run --release -p sorrento-net --bin bench-$(1) -- \
	  --smoke --out target/BENCH_$(1).smoke.json
endef

bench-check:
	$(call bench-check,ns)
	$(call bench-check,membership)

ns-smoke:
	$(call bench-check,ns)
	$(CARGO) test -p sorrento-tests --test ns_shard --test ns_failover -- --nocapture

membership-smoke:
	$(call bench-check,membership)
	$(CARGO) test -p sorrento-tests --test membership --test membership_live -- --nocapture

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
	$(CARGO) run --release -q -p sorrento-bench --bin bench-ec -- --out results/BENCH_ec.json
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
	done
