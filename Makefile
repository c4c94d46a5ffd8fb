# Convenience targets around dune. `make check` is the tier-1 gate CI runs.

.PHONY: all build test check clean examples

all: build

build:
	dune build

test:
	dune runtest

# The gate experiments: every `check` entry of the experiment registry
# (audit, profile, fuzz, fleet, tval, replay, rerand, jit) at its
# defaults, each report written to NAME_out.json; fails on any finding.
# Then the image linter over one diversified example.
check: build test
	dune exec bin/experiments.exe -- check
	dune exec bin/r2cc.exe -- examples/triangle.r2c -c full -s 7 --lint

examples:
	dune build examples

clean:
	dune clean
