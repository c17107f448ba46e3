# Convenience targets; `make check` is the tier-1 gate run before merging.

.PHONY: check test bench

check:
	./scripts/check.sh

test:
	go test -race -timeout 20m ./...

bench:
	go test -run XXX -bench . -benchtime 1x ./...
