# Sorrento reproduction — developer entry points.
#
#   make check      build (release) + full test suite + clippy with -D warnings
#                   + rustdoc with -D warnings (public-API docs are load-bearing)
#   make test       test suite only
#   make check-net  real-process runtime: frame-codec property tests, the
#                   allocation budget of a 32 MiB read (bulk_alloc prints
#                   its counts), chunked reads == unchunked reads in the
#                   simulator, and the loopback TCP cluster drill
#                   (sockets, daemons, sorrentoctl)
#   make bench      regenerate every figure/table into results/
#   make bench-smoke  quick data-path bench run; fails if the committed
#                   results/BENCH_net.json is malformed or if the pooled
#                   encode path allocates more than BENCH_ALLOC_BOUND
#                   per frame at steady state
#   make storm-smoke  C10K drill at CI scale: 256 concurrent raw-socket
#                   sessions against one daemon through the event loop —
#                   asserts zero hangs and zero dropped ops, and
#                   schema-checks the committed results/BENCH_net.json
#   make chaos-smoke  the chaos game-day drill: a real loopback cluster
#                   under deterministic fault injection, with a provider
#                   crash + restart, run for three fixed seeds
#   make obs-smoke  the observability drill: boot a loopback cluster,
#                   scrape every node's versioned stats snapshot, kill a
#                   provider, and schema-check the flight dump and
#                   metrics.jsonl it leaves behind, plus the span-trace
#                   merge tests
#   make ec-smoke   the erasure-coding drill: seeded-simulator EC tests
#                   (roundtrip, rewrite, degraded read, shard repair),
#                   then a loopback EC(4,2) cluster that loses two shard
#                   holders mid-run — degraded reads must reconstruct and
#                   the repair scan must restore the shard count on disk
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

CARGO ?= cargo

# Steady-state heap allocations per encoded frame on the bulk path: one
# (the Arc that shares the pooled buffer across peer queues).
BENCH_ALLOC_BOUND ?= 1.0

.PHONY: check build test clippy check-net bench bench-smoke bench-e2e bench-e2e-smoke storm-smoke chaos-smoke obs-smoke ec-smoke ns-smoke membership-smoke docs

check: build test clippy docs

build:
	$(CARGO) build --release

test:
	$(CARGO) test -q

clippy:
	$(CARGO) clippy -- -D warnings

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

ec-smoke:
	$(CARGO) test -p sorrento-tests --test ec_mode -- --nocapture

ns-smoke:
	$(CARGO) run --release -p sorrento-net --bin bench-ns -- \
	  --validate results/BENCH_ns.json
	$(CARGO) test -p sorrento-tests --test ns_shard -- --nocapture
	$(CARGO) test -p sorrento-tests --test ns_failover -- --nocapture
	$(CARGO) run --release -p sorrento-net --bin bench-ns -- \
	  --smoke --out target/BENCH_ns.smoke.json

membership-smoke:
	$(CARGO) run --release -p sorrento-net --bin bench-membership -- \
	  --validate results/BENCH_membership.json
	$(CARGO) test -p sorrento-tests --test membership -- --nocapture
	$(CARGO) test -p sorrento-tests --test membership_live -- --nocapture
	$(CARGO) run --release -p sorrento-net --bin bench-membership -- \
	  --smoke --out target/BENCH_membership.smoke.json

bench:
	for f in fig09_small_file_latency fig10_small_file_throughput \
	         fig11_large_file_bandwidth fig12_trace_replay \
	         fig13_failure_recovery fig14_crawler_placement \
	         fig15_locality_migration ablations; do \
	  $(CARGO) run --release -p sorrento-bench --bin $$f | tee results/$$f.txt; \
	done

bench-smoke:
	$(CARGO) run --release -p sorrento-net --bin bench-net -- \
	  --validate results/BENCH_net.json --check-allocs $(BENCH_ALLOC_BOUND)
	$(CARGO) run --release -p sorrento-net --bin bench-ns -- \
	  --validate results/BENCH_ns.json
	$(CARGO) run --release -p sorrento-net --bin bench-net -- \
	  --smoke --out target/BENCH_net.smoke.json --check-allocs $(BENCH_ALLOC_BOUND)

bench-e2e:
	bash benchmark/run.sh

bench-e2e-smoke:
	bash benchmark/run.sh --validate
	bash benchmark/run.sh --smoke

# Scaled-down C10K storm: the run itself asserts zero hung sessions and
# zero dropped ops (the binary exits non-zero otherwise), and the
# committed results file is schema-checked first. Storm-scale runs on a
# real box may need `ulimit -n` raised; see RUNBOOK.md.
storm-smoke:
	$(CARGO) run --release -p sorrento-net --bin bench-net -- \
	  --validate results/BENCH_net.json
	$(CARGO) run --release -p sorrento-net --bin bench-net -- \
	  --smoke --storm 256 --out target/BENCH_net.storm.json
	$(CARGO) test -p sorrento-tests --test thread_census

docs:
	RUSTDOCFLAGS="-D warnings" $(CARGO) doc --no-deps
