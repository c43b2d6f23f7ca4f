GO ?= go

WORKLOAD ?= logical-4d
PHASE ?=

.PHONY: tier1 race tables tables-check tables-diff attribution alloc-profile setup-profile build vet test chaos fuzz-smoke obs-smoke examples examples-check loc dup

tier1: ## gofmt + vet + build + full test suite (the repo's gate)
	@test -z "$$(gofmt -l .)" || { echo "gofmt needed:"; gofmt -l .; exit 1; }
	$(GO) vet ./...
	cd benchmark && $(GO) vet ./... # the nested module is invisible to ./...
	$(GO) build ./...
	$(GO) test ./...

loc: ## the two line counts simplicity PRs and ROADMAP re-anchors quote: Go outside benchmark/, non-test and test
	@echo "non-test Go: $$(find . -name '*.go' -not -path './benchmark/*' -not -name '*_test.go' | xargs cat | wc -l)"
	@echo "test Go:     $$(find . -name '*_test.go' -not -path './benchmark/*' | xargs cat | wc -l)"

dup: ## the number for "one implementation per mechanism": file pairs of non-test Go outside benchmark/ by shared 8-line windows after identifier normalisation, top ten (print-only; scripts/dup.py says how it counts)
	@python3 scripts/dup.py .

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race: ## race-detector pass over every package; no test list to fall out of (-short skips only internal/bench's table-regeneration scenarios)
	$(GO) test -race -short ./...

chaos: ## seeded fault-injection property tests, wide seed sweep; the whole package, so no test can fall out by its name
	CHAOS_SEEDS=8 $(GO) test -count 1 -v ./internal/chaos/

fuzz-smoke: ## brief real fuzzing of the untrusted-input parsers: 10 s per target `go test -list` finds, so no target can fall out by its name
	@targets=$$($(GO) test -list '^Fuzz' ./... | awk '/^Fuzz/ {n[++c] = $$1} /^ok/ {for (i = 1; i <= c; i++) print n[i], $$2; c = 0} /^FAIL/ {bad = 1} END {exit bad}') || exit 1; \
	test -n "$$targets" || { echo "fuzz-smoke: no fuzz targets found"; exit 1; }; \
	echo "$$targets" | while read target pkg; do \
		echo "== $$target $$pkg"; \
		$(GO) test -fuzz "^$$target\$$" -fuzztime 10s $$pkg || exit 1; \
	done

obs-smoke: ## instrumented dump with tracing + metrics, validated end to end
	$(GO) run ./cmd/backupctl stats -mb 4 -trace obs_trace.json -check > /dev/null
	rm -f obs_trace.json

# Every program under examples/, each one's stdout under a "== examples/x/"
# heading; a program that exits non-zero stops the run.
RUN_EXAMPLES = for d in examples/*/; do echo "== $$d"; $(GO) run ./$$d || exit 1; done

examples: ## run every program under examples/ (each checks its own result; they are the only callers of sched.New outside tests) and regenerate their committed output reference
	@$(RUN_EXAMPLES) > docs/examples-reference.txt

examples-check: ## exact-match gate: the examples run on the virtual clock and print the same bytes every run, so any diff against docs/examples-reference.txt is a behaviour change
	@out=$$(mktemp); ($(RUN_EXAMPLES)) > $$out && diff docs/examples-reference.txt $$out; rc=$$?; rm -f $$out; exit $$rc

attribution: ## per-layer table of one traced benchmark run (non-zero series; PHASE=dump|restore keeps one side's): run it at the parent and at the change for the before/after of a speed-up
	@case "$(PHASE)" in ""|dump|restore) ;; *) echo "PHASE must be dump or restore, not '$(PHASE)'" >&2; exit 1;; esac
	@bash benchmark/run.sh --workload $(WORKLOAD) --seed 1999 --seconds 6 --trace 1 | awk -v phase="$(PHASE)" '/^  / && $$2 + 0 != 0 && (phase == "" || $$1 ~ "\\." phase "$$")'

ALLOC_PROFILE_DIR ?= $(CURDIR)/.alloc_profile
ALLOC_PINS = logical:TestDumpAllocsPerMiB logical:TestRestoreAllocsPerMiB logical:TestDedupRestoreAllocsPerMiB physical:TestImageRestoreAllocsPerMiB ndmp:TestPushAllocsPerMiB

# Each pin writes the allocs profile on both sides of what it counts
# (internal/allocpin); writing the first snapshot allocates under
# runtime/pprof frames, which the second includes and -ignore drops
# (percentages are then of what is left).
alloc-profile: ## where the heap objects come from: the allocation pins (internal/logical's dump, restore and dedup'd restore, internal/physical's image restore onto a fresh RAID volume, internal/ndmp's push over TCP) with every allocation sampled, top 25 sites of exactly the objects each pin counts (pprof -base of its two snapshots; the frozen benchmark/ binary has no profile flag)
	@mkdir -p $(ALLOC_PROFILE_DIR)
	@for p in $(ALLOC_PINS); do \
		pkg=$${p%%:*}; pin=$${p#*:}; \
		echo "== $$pin"; \
		ALLOC_PROFILE_DIR=$(ALLOC_PROFILE_DIR) $(GO) test -count 1 -run "^$$pin\$$" -v -memprofilerate 1 ./internal/$$pkg | grep 'allocations per MiB' || exit 1; \
		$(GO) tool pprof -sample_index=alloc_objects -top -nodecount 25 -ignore '^runtime/pprof\.' -relative_percentages \
			-base $(ALLOC_PROFILE_DIR)/$$pin.before.pb.gz $(ALLOC_PROFILE_DIR)/$$pin.after.pb.gz || exit 1; \
	done

SETUP_PROFILE_DIR ?= $(CURDIR)/.setup_profile

setup-profile: ## where set-up time goes: CPU profile of eight builds of the benchmark's aged 64 MiB RAID volume (internal/bench's BenchmarkAgedVolume: buildFiler, populate with four age rounds, CP, snapshot), top 25 entries (the frozen benchmark/ binary has no profile flag)
	@mkdir -p $(SETUP_PROFILE_DIR)
	$(GO) test -count 1 -run '^$$' -bench '^BenchmarkAgedVolume$$' -benchtime 8x \
		-cpuprofile $(SETUP_PROFILE_DIR)/cpu.pb.gz -o $(SETUP_PROFILE_DIR)/bench.test ./internal/bench
	$(GO) tool pprof -top -nodecount 25 $(SETUP_PROFILE_DIR)/bench.test $(SETUP_PROFILE_DIR)/cpu.pb.gz

tables: ## regenerate every EXPERIMENTS.md table into the committed reference
	$(GO) run ./cmd/benchtables > docs/benchtables-reference.txt

tables-check: ## exact-match gate: virtual-clock tables are deterministic, so any diff is a behaviour change
	$(GO) run ./cmd/benchtables | diff - docs/benchtables-reference.txt

tables-diff: ## the same comparison as a per-table before (-) / after (+): only the changed lines, under the heading of the table they belong to
	@$(GO) run ./cmd/benchtables | diff -U 100000 docs/benchtables-reference.txt - | grep -E '^[-+][^-+]|^ Table [0-9]+' || true
