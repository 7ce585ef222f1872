# Convenience targets for the itqc workspace. Everything builds fully
# offline (dependencies are vendored under vendor/).

CARGO ?= cargo

# The 13 evaluation binaries, in paper order (extensions last).
REPRO_BINS := table1 fig2 fig3 fig6 fig7 fig8 fig9 fig10 fig11 table2 rb ablations fig_adv

.PHONY: build test bench fleet-bench repro work-check obs-check fmt lint clean

## build: release build of every workspace member
build:
	$(CARGO) build --release

## test: tier-1 gate — release build plus the full test suite
test:
	$(CARGO) build --release
	$(CARGO) test -q

## bench: run the criterion benches (vendored shim prints to stdout)
bench:
	$(CARGO) bench -p itqc-bench

## fleet-bench: the BENCH_BASELINE.json fleetd workload — 256 traps for
## one simulated hour, summary diffed across worker counts (the stdout
## must be bit-identical; only the stderr wall-clock lines may differ)
fleet-bench:
	$(CARGO) build --release -p itqc-fleet --bin fleetd -p itqc-bench --bin loadgen
	./target/release/loadgen --traps=256 --minutes=60 --workers=1 > loadgen.w1.out
	./target/release/loadgen --traps=256 --minutes=60 --workers=auto > loadgen.wauto.out
	diff loadgen.w1.out loadgen.wauto.out
	@cat loadgen.w1.out
	@rm -f loadgen.w1.out loadgen.wauto.out

## work-check: the logical work of three runs, pinned exactly — fig8
## N=8 (joint-table sampler), fig8 N=64 (chain sampler) and table2 (exact
## oracle, score memo, decoder). Each run's "deterministic" metrics line
## (tables built, shots drawn, memo lookups, tests run, ...) must equal
## its pin in tests/work_pins/. The pins were captured at --threads=1, so
## running at --threads=8 checks thread invariance too. Wall-clock
## regressions are the benchmark's job (perfbench/). After an intended
## change of work, copy the new work.*.det files over the pins and
## justify the diff.
WORK_RUNS := fig8_n8:fig8:--sizes=8 fig8_n64:fig8:--sizes=64 table2:table2:
work-check:
	$(CARGO) build --release -p itqc-bench --bin fig8 --bin table2
	@set -e; for run in $(WORK_RUNS); do \
		pin=$${run%%:*}; rest=$${run#*:}; bin=$${rest%%:*}; flags=$${rest#*:}; \
		./target/release/$$bin --fast $$flags --threads=8 --metrics=work.$$pin.json >/dev/null; \
		grep '"deterministic"' work.$$pin.json > work.$$pin.det; \
		diff tests/work_pins/$$pin.det work.$$pin.det; \
		echo "work-check $$pin: deterministic work matches its pin"; \
		rm -f work.$$pin.json work.$$pin.det; \
	done

## obs-check: the observability contract, binary level — (1) the fig8
## deterministic metrics snapshot is bit-identical at 1 vs 8 threads and
## --metrics leaves stdout byte-identical; (2) same for loadgen at 1 vs
## 8 workers; (3) the registry adds no measurable overhead to the fig9
## hot path (metrics run within 5% + 0.5 s of the plain run); (4) the
## counter micro-bench runs clean
obs-check:
	$(CARGO) build --release -p itqc-bench --bin fig8 --bin fig9 --bin loadgen
	./target/release/fig8 --fast --sizes=8 --threads=1 --metrics=obs.t1.json > obs.t1.out
	./target/release/fig8 --fast --sizes=8 --threads=8 --metrics=obs.t8.json > obs.t8.out
	./target/release/fig8 --fast --sizes=8 --threads=1 > obs.plain.out
	diff obs.t1.out obs.t8.out
	diff obs.t1.out obs.plain.out
	@grep '"deterministic"' obs.t1.json > obs.t1.det
	@grep '"deterministic"' obs.t8.json > obs.t8.det
	diff obs.t1.det obs.t8.det
	@echo "obs-check fig8: deterministic snapshot thread-invariant, stdout unchanged"
	./target/release/loadgen --traps=32 --minutes=10 --workers=1 --metrics=obs.w1.json \
		> obs.w1.out 2>/dev/null
	./target/release/loadgen --traps=32 --minutes=10 --workers=8 --metrics=obs.w8.json \
		> obs.w8.out 2>/dev/null
	diff obs.w1.out obs.w8.out
	@grep '"deterministic"' obs.w1.json > obs.w1.det
	@grep '"deterministic"' obs.w8.json > obs.w8.det
	diff obs.w1.det obs.w8.det
	@echo "obs-check loadgen: deterministic snapshot worker-invariant, stdout unchanged"
	@t0=$$(date +%s.%N); ./target/release/fig9 --fast --threads=1 >/dev/null; \
	t1=$$(date +%s.%N); \
	./target/release/fig9 --fast --threads=1 --metrics=obs.fig9.json >/dev/null; \
	t2=$$(date +%s.%N); \
	awk -v a="$$t0" -v b="$$t1" -v c="$$t2" 'BEGIN { td = b - a; te = c - b; \
		printf "obs-check fig9 overhead: plain %.2f s, metrics %.2f s\n", td, te; \
		if (te > td * 1.05 + 0.5) { print "metrics overhead above the 5% gate"; exit 1 } }'
	$(CARGO) bench -p itqc-obs
	@rm -f obs.t1.* obs.t8.* obs.plain.out obs.w1.* obs.w8.* obs.fig9.json

## repro: regenerate every paper table/figure (see EXPERIMENTS.md)
repro: build
	@set -e; for b in $(REPRO_BINS); do \
		echo; echo "==================== $$b ===================="; \
		$(CARGO) run --release -q -p itqc-bench --bin $$b; \
	done

## fmt: apply the workspace formatting style
fmt:
	$(CARGO) fmt

## lint: what CI enforces — fmt --check and clippy with warnings denied
lint:
	$(CARGO) fmt --check
	$(CARGO) clippy --all-targets -- -D warnings

clean:
	$(CARGO) clean
