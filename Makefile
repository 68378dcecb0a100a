# Tier-1 verification entry points. CI runs the same commands
# (.github/workflows/ci.yml); `make verify` is the local equivalent of a
# green pipeline.

GO ?= go

.PHONY: build test race bench lint lint-json verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# lint checks gofmt formatting and runs go vet plus brlint, the repo's
# own invariant-checker suite (internal/lint). See DESIGN.md "Enforced
# invariants" for what each analyzer guards and how to suppress a finding.
lint:
	test -z "$$(gofmt -l .)"
	$(GO) vet ./...
	$(GO) run ./cmd/brlint ./...

# lint-json writes the machine-readable finding inventory (including
# suppressed findings, marked as such) to brlint.json — the same
# artifact CI's lint job uploads.
lint-json:
	$(GO) run ./cmd/brlint -json ./... > brlint.json

verify: build lint test
