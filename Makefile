# Convenience targets; `make check` is the tier-1 gate CI runs.

.PHONY: all build lint analyze sarif test check bench golden-check obs-demo clean

all: build

build:
	dune build

lint:
	dune build @lint

# Typedtree cross-module analysis (determinism taint, domain-safety,
# coverage audits, suppression hygiene) plus its fixture self-test; see
# docs/ANALYSIS.md.
analyze:
	dune build @analyze

# Same analysis, but also emit a SARIF 2.1.0 log for code-scanning UIs.
sarif:
	dune build
	cd _build/default && ./tools/analyze/wfs_analyze.exe --runs 2 \
	  --lib lib --test test --sarif ../../wfs_analyze.sarif; \
	  status=$$?; [ $$status -eq 0 ] || [ $$status -eq 1 ] || exit $$status
	@echo "wrote wfs_analyze.sarif"

test:
	dune runtest

check:
	dune build @lint
	dune build
	dune runtest

bench:
	dune exec bench/main.exe -- --quick

# Regenerate the golden CSVs on both engines and require byte-identity
# with the committed ones (the `golden` alias in test/dune; the perf work
# must never change output), then check the committed checksums.
golden-check:
	dune build @golden
	cd test/golden && sha256sum -c SHA256SUMS

# Observability demo: a short Example-1 run streaming a wfs-trace/1
# time series (JSONL + CSV) and an instrument artifact into obs-demo/,
# with a phase-timing profile on stderr, then validate both outputs
# (see docs/OBSERVABILITY.md).
obs-demo:
	@mkdir -p obs-demo
	dune exec bin/wfs_sim.exe -- -e 1 -a SwapA-P -n 5000 -s 42 \
	  --trace-out obs-demo/example1.jsonl --trace-csv obs-demo/example1.csv \
	  --trace-stride 10 --metrics-out obs-demo/example1-metrics.json --profile
	dune exec bin/wfs_sim.exe -- --check-trace obs-demo/example1.jsonl
	dune exec bin/wfs_sim.exe -- --check-metrics obs-demo/example1-metrics.json
	@echo "obs-demo/: $$(ls obs-demo)"

clean:
	dune clean
