GO ?= go

.PHONY: check vet build test race allocs benchmark-test bench ab lint report-smoke sweep-smoke flight-smoke kpi-smoke cell-smoke obs-smoke journey-smoke

## check: full verification gate — lint (vet + gofmt), build, race-enabled tests,
## the exact allocation pins without -race, the benchmark module's tests, the
## JSONL → report round-trip smoke, the parallel-vs-sequential sweep
## invariance smoke, the flight-recorder no-interference smoke, the
## dimensional-KPI smoke, the many-UE cell smoke, the sampling/observer-tax
## smoke and the one-packet journey smoke
check: lint build race allocs benchmark-test report-smoke sweep-smoke flight-smoke kpi-smoke cell-smoke obs-smoke journey-smoke

vet:
	$(GO) vet ./...

## lint: vet plus a gofmt gate — fails listing any file that needs formatting
lint: vet
	@fmtout=$$(gofmt -l .); if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The race pass builds with -tags obsdebug so recycled recorder slabs are
# poisoned on release: a goroutine holding a span/outcome slice across a Reset
# shows up as sentinel values (and usually a race) instead of silent staleness.
race:
	$(GO) test -race -tags obsdebug ./...

## allocs: the allocation pins (testing.AllocsPerRun) without -race, whose
## runtime adds allocations of its own: per-packet counts on the testbed and
## many-UE cell, 0 allocs per steady-state codec, entity and engine call, and
## each component micro-benchmark's op at its measured count
allocs:
	$(GO) test -count=1 -run 'Allocs|ZeroAlloc' ./...

## benchmark-test: the benchmark module's own tests (its own go.mod, so
## `go test ./...` at the root skips it) — the four workloads' golden digests
## and the equivalence tests, built against this tree's simulator
benchmark-test:
	cd benchmark && $(GO) test -count=1 ./...

## bench: every go test benchmark — the table/figure regenerations, the
## tracing-overhead gate and each layer's component micro-benchmarks — with
## ns/op, B/op and allocs/op. Information only: `make allocs` gates the
## allocation counts and `make ab` the end-to-end timing
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

## ab: the timing evidence for a change — PAIRS alternating pairs of
## `bash benchmark/run.sh -workload all -trace 0 -seconds SECONDS -seed SEED`,
## BASE (any git revision, checked out into a temporary worktree) against the
## working tree; prints each side's median and quartiles and the change's
## wins per workload and end-to-end metric
BASE    ?= HEAD
PAIRS   ?= 10
SECONDS ?= 20
SEED    ?= 1
ab:
	$(GO) run ./cmd/urllc-ab -base $(BASE) -pairs $(PAIRS) -seconds $(SECONDS) -seed $(SEED)

## report-smoke: end-to-end JSONL → urllc-report round trip in a temp dir —
## a trace renders the feasibility table and both CSVs, a legacy "event" line
## appended to a trace leaves its report byte-identical, one file mixing every
## dialect (trace, flight + anomaly, slots, KPI, profile) renders every
## section in a single call, and -version lists the profile dialect
report-smoke:
	@tmp=$$(mktemp -d) && \
	$(GO) build -o $$tmp/urllcsim ./cmd/urllcsim && \
	$(GO) build -o $$tmp/urllc-report ./cmd/urllc-report && \
	$$tmp/urllcsim -packets 40 -jsonl-out $$tmp/run.jsonl >/dev/null && \
	$$tmp/urllc-report -csv $$tmp/feas.csv -breakdown-csv $$tmp/steps.csv $$tmp/run.jsonl >$$tmp/report.md && \
	grep -q 'Feasibility (Fig. 4-style)' $$tmp/report.md && \
	grep -q '^run,UL,' $$tmp/feas.csv && \
	grep -q ',source,,,radio,' $$tmp/steps.csv && \
	mkdir $$tmp/legacy && \
	{ cat $$tmp/run.jsonl; echo '{"kind":"event","time_us":500,"name":"tick","layer":"sched","packet":-1}'; } \
		> $$tmp/legacy/run.jsonl && \
	$$tmp/urllc-report $$tmp/run.jsonl > $$tmp/plain.md && \
	$$tmp/urllc-report $$tmp/legacy/run.jsonl > $$tmp/legacy.md && \
	cmp $$tmp/plain.md $$tmp/legacy.md && \
	$$tmp/urllcsim -packets 40 -ues 4 -jsonl-out $$tmp/t.jsonl -flight-out $$tmp/f.jsonl \
		-watchdog-missrate 0.01 -watchdog-window 32 -slots-out $$tmp/s.jsonl \
		-kpi-out $$tmp/k.jsonl -prof-out $$tmp/p.jsonl >/dev/null 2>&1 && \
	cat $$tmp/t.jsonl $$tmp/f.jsonl $$tmp/s.jsonl $$tmp/k.jsonl $$tmp/p.jsonl > $$tmp/mixed.jsonl && \
	$$tmp/urllc-report $$tmp/mixed.jsonl > $$tmp/mixed.md && \
	for s in 'Feasibility (Fig. 4-style)' 'Per-UE KPIs — DDDU' 'Slot occupancy' 'Tail forensics' \
		'- anomaly at' 'self-profile: mixed' 'observer tax:'; do \
		grep -qF -e "$$s" $$tmp/mixed.md || { echo "report-smoke FAIL: mixed report lacks '$$s'"; exit 1; }; done && \
	$$tmp/urllc-report -version | grep -q 'accepts urllcsim-profile/v3' && \
	echo "report-smoke OK: trace CSVs, legacy event lines ignored, every section from one mixed file, profile dialect listed ($$tmp)" && rm -rf $$tmp

## flight-smoke: the tail-forensics contract, end to end — attaching the
## flight recorder + watchdog must leave default stdout byte-identical, the
## flight file must render as a forensic narrative in urllc-report, and the
## sweep's merged exemplars must be byte-identical across worker counts
flight-smoke:
	@tmp=$$(mktemp -d) && \
	$(GO) build -o $$tmp/urllcsim ./cmd/urllcsim && \
	$(GO) build -o $$tmp/urllc-sweep ./cmd/urllc-sweep && \
	$(GO) build -o $$tmp/urllc-report ./cmd/urllc-report && \
	$$tmp/urllcsim -packets 40 > $$tmp/plain.out && \
	$$tmp/urllcsim -packets 40 -flight-out $$tmp/flight.jsonl \
		-watchdog-missrate 0.01 -watchdog-window 32 > $$tmp/tapped.out 2>/dev/null && \
	cmp $$tmp/plain.out $$tmp/tapped.out && \
	$$tmp/urllc-report $$tmp/flight.jsonl > $$tmp/report.md && \
	grep -q 'Tail forensics' $$tmp/report.md && \
	grep -q 'budget blown in' $$tmp/report.md && \
	$$tmp/urllc-sweep -pattern DDDU -replicas 4 -packets 15 -summary \
		-parallel 1 -out $$tmp/s1.md -flight-out $$tmp/f1.jsonl && \
	$$tmp/urllc-sweep -pattern DDDU -replicas 4 -packets 15 -summary \
		-parallel 4 -out $$tmp/s4.md -flight-out $$tmp/f4.jsonl && \
	cmp $$tmp/f1.jsonl $$tmp/f4.jsonl && \
	if $$tmp/urllc-report /dev/null >/dev/null 2>&1; then \
		echo "flight-smoke FAIL: empty input did not error"; exit 1; fi && \
	echo "flight-smoke OK: stdout untouched, narrative rendered, merge worker-invariant ($$tmp)" && rm -rf $$tmp

## kpi-smoke: the dimensional-KPI contract, end to end — UE attribution and
## the slot ledger must leave default stdout byte-identical, ledger and KPI
## files must render their report sections, the sweep's merged ledger must be
## byte-identical across worker counts, and a future-schema ledger must be a
## one-line error (exit 1)
kpi-smoke:
	@tmp=$$(mktemp -d) && \
	$(GO) build -o $$tmp/urllcsim ./cmd/urllcsim && \
	$(GO) build -o $$tmp/urllc-sweep ./cmd/urllc-sweep && \
	$(GO) build -o $$tmp/urllc-report ./cmd/urllc-report && \
	$$tmp/urllcsim -packets 40 -ues 4 > $$tmp/plain.out && \
	$$tmp/urllcsim -packets 40 -ues 4 -slots-out $$tmp/slots.jsonl \
		-kpi-out $$tmp/kpi.jsonl > $$tmp/labeled.out && \
	cmp $$tmp/plain.out $$tmp/labeled.out && \
	$$tmp/urllc-report $$tmp/slots.jsonl > $$tmp/slots.md && \
	grep -q 'Slot occupancy' $$tmp/slots.md && \
	$$tmp/urllc-report -kpi-csv $$tmp/kpi.csv -ccdf-csv $$tmp/ccdf.csv \
		$$tmp/kpi.jsonl > $$tmp/kpi.md && \
	grep -q 'Per-UE KPIs' $$tmp/kpi.md && \
	grep -q 'Jain fairness' $$tmp/kpi.md && \
	grep -q '^label,dir,ue,' $$tmp/kpi.csv && \
	grep -q '^label,dir,latency_le_us,' $$tmp/ccdf.csv && \
	$$tmp/urllc-sweep -pattern DDDU -replicas 4 -packets 15 -ues 3 -summary \
		-parallel 1 -out $$tmp/k1.md -slots-out $$tmp/l1.jsonl && \
	$$tmp/urllc-sweep -pattern DDDU -replicas 4 -packets 15 -ues 3 -summary \
		-parallel 4 -out $$tmp/k4.md -slots-out $$tmp/l4.jsonl && \
	cmp $$tmp/l1.jsonl $$tmp/l4.jsonl && cmp $$tmp/k1.md $$tmp/k4.md && \
	grep -q 'pkt.by_ue' $$tmp/k1.md && \
	echo '{"kind":"slots_meta","schema":"urllcsim-slots/v99"}' > $$tmp/future.jsonl && \
	if $$tmp/urllc-report $$tmp/future.jsonl >/dev/null 2>&1; then \
		echo "kpi-smoke FAIL: future slots schema did not error"; exit 1; fi && \
	echo "kpi-smoke OK: stdout untouched, sections rendered, ledger merge worker-invariant ($$tmp)" && rm -rf $$tmp

## cell-smoke: the many-UE cell contract, end to end — the CG-vs-dynamic
## experiment must regenerate byte-identically across -parallel worker counts,
## its table must carry both access modes, and the 500-machine KPI run must
## render per-UE fairness and the reliability-CCDF latency bounds
cell-smoke:
	@tmp=$$(mktemp -d) && \
	$(GO) build -o $$tmp/urllc-experiments ./cmd/urllc-experiments && \
	$$tmp/urllc-experiments -run cellcg -seed 7 -parallel 1 > $$tmp/c1.out && \
	$$tmp/urllc-experiments -run cellcg -seed 7 -parallel 8 > $$tmp/c8.out && \
	cmp $$tmp/c1.out $$tmp/c8.out && \
	grep -q 'grant-free' $$tmp/c1.out && \
	grep -q 'dynamic-grant' $$tmp/c1.out && \
	$$tmp/urllc-experiments -run cellkpi -seed 7 > $$tmp/kpi.out && \
	grep -q 'Jain(throughput)' $$tmp/kpi.out && \
	grep -q 'latency bound at CCDF' $$tmp/kpi.out && \
	echo "cell-smoke OK: CG-vs-dynamic worker-invariant, per-UE KPIs rendered ($$tmp)" && rm -rf $$tmp

## obs-smoke: the always-on-observability contract, end to end — sampling
## (off, explicit 1, or 0.25) leaves default stdout byte-identical, a sampled
## trace thins on disk yet reports the exact same feasibility table while
## stating its effective rate, a sampled sweep stays worker-invariant, a
## -sample-rate outside (0,1] is a usage error (exit 2) in both CLIs, as are
## urllcsim's -ues 0, -dir up, -journey up, -packets -5, -bytes -1,
## -deadline -1us, -snr NaN, -flight-topk/-watchdog-window < 1, a
## -watchdog-missrate outside [0,1], a negative -watchdog-p99 and a
## -pattern DDDU,DM grid of two points, and urllc-sweep's
## -replicas/-packets/-ues 0, -flight-topk -2, -parallel -2, -radio wifi,
## -grantfree maybe and -deadline -1us, and in both -pattern XYZ and
## -slot 2ms (one stderr line each; the -slot 2ms line is the same in both,
## from the one shared check), while a custom D/U/S -pattern (DDSU) runs
## and exits 0, and a self-profiled run carries the measured observer tax
## into urllc-report
obs-smoke:
	@tmp=$$(mktemp -d) && \
	$(GO) build -o $$tmp/urllcsim ./cmd/urllcsim && \
	$(GO) build -o $$tmp/urllc-sweep ./cmd/urllc-sweep && \
	$(GO) build -o $$tmp/urllc-report ./cmd/urllc-report && \
	$$tmp/urllcsim -packets 40 > $$tmp/plain.out && \
	$$tmp/urllcsim -packets 40 -sample-rate 1 -jsonl-out $$tmp/full.jsonl > $$tmp/rate1.out && \
	$$tmp/urllcsim -packets 40 -sample-rate 0.25 -jsonl-out $$tmp/qtr.jsonl > $$tmp/qtr.out && \
	cmp $$tmp/plain.out $$tmp/rate1.out && cmp $$tmp/plain.out $$tmp/qtr.out && \
	[ $$(wc -c < $$tmp/qtr.jsonl) -lt $$(wc -c < $$tmp/full.jsonl) ] && \
	$$tmp/urllc-report $$tmp/full.jsonl > $$tmp/full.md && \
	$$tmp/urllc-report $$tmp/qtr.jsonl > $$tmp/qtr.md && \
	grep -q 'Effective span sample rate: 0.25' $$tmp/qtr.md && \
	! grep -q 'Effective span sample rate' $$tmp/full.md && \
	sed -n '/### Feasibility/,/^$$/p' $$tmp/full.md > $$tmp/full.feas && \
	sed -n '/### Feasibility/,/^$$/p' $$tmp/qtr.md > $$tmp/qtr.feas && \
	cmp $$tmp/full.feas $$tmp/qtr.feas && \
	$$tmp/urllc-sweep -pattern DDDU -replicas 4 -packets 15 -sample-rate 0.2 \
		-parallel 1 -out $$tmp/o1.md && \
	$$tmp/urllc-sweep -pattern DDDU -replicas 4 -packets 15 -sample-rate 0.2 \
		-parallel 4 -out $$tmp/o4.md && \
	cmp $$tmp/o1.md $$tmp/o4.md && \
	grep -q 'Effective span sample rate: 0.2' $$tmp/o1.md && \
	for r in 0 -1 NaN; do \
		$$tmp/urllcsim -packets 4 -sample-rate $$r >/dev/null 2>&1; rc=$$?; \
		[ $$rc -eq 2 ] || { echo "obs-smoke FAIL: urllcsim -sample-rate $$r exited $$rc, want 2"; exit 1; }; \
		$$tmp/urllc-sweep -replicas 1 -packets 4 -sample-rate $$r -out $$tmp/bad.md >/dev/null 2>&1; rc=$$?; \
		[ $$rc -eq 2 ] || { echo "obs-smoke FAIL: urllc-sweep -sample-rate $$r exited $$rc, want 2"; exit 1; }; \
	done && \
	for a in '-ues 0' '-dir up' '-journey up' '-packets -5' '-bytes -1' '-deadline -1us' '-snr NaN' \
		'-flight-topk 0' '-flight-topk -1' '-watchdog-window 0' '-watchdog-window -3' \
		'-watchdog-missrate NaN' '-watchdog-missrate -1' '-watchdog-missrate 1.5' '-watchdog-p99 -1us' \
		'-pattern XYZ' '-slot 2ms' '-pattern DDDU,DM'; do \
		$$tmp/urllcsim -packets 4 $$a >/dev/null 2>$$tmp/bad.err; rc=$$?; \
		[ $$rc -eq 2 ] && [ $$(wc -l < $$tmp/bad.err) -eq 1 ] || \
			{ echo "obs-smoke FAIL: urllcsim $$a exited $$rc with $$(wc -l < $$tmp/bad.err) stderr line(s), want 2 and 1"; exit 1; }; \
	done && \
	for a in '-replicas 0' '-packets 0' '-ues 0' '-flight-topk -2' '-parallel -2' \
		'-slot 2ms' '-radio wifi' '-grantfree maybe' '-deadline -1us' '-pattern XYZ'; do \
		$$tmp/urllc-sweep -replicas 1 -packets 4 $$a -out $$tmp/bad.md >/dev/null 2>$$tmp/bad.err; rc=$$?; \
		[ $$rc -eq 2 ] && [ $$(wc -l < $$tmp/bad.err) -eq 1 ] || \
			{ echo "obs-smoke FAIL: urllc-sweep $$a exited $$rc with $$(wc -l < $$tmp/bad.err) stderr line(s), want 2 and 1"; exit 1; }; \
	done && \
	{ $$tmp/urllcsim -packets 4 -slot 2ms >/dev/null 2>$$tmp/sim.err; \
		$$tmp/urllc-sweep -replicas 1 -packets 4 -slot 2ms -out $$tmp/bad.md >/dev/null 2>$$tmp/sweep.err; \
		cmp -s $$tmp/sim.err $$tmp/sweep.err || \
		{ echo "obs-smoke FAIL: -slot 2ms: urllcsim and urllc-sweep print different errors"; exit 1; }; } && \
	{ $$tmp/urllcsim -pattern DDSU -packets 4 > $$tmp/custom.out 2>&1 && \
		grep -q '^scenario: DDSU ' $$tmp/custom.out || \
		{ echo "obs-smoke FAIL: urllcsim -pattern DDSU did not exit 0 with a 'scenario: DDSU' line"; exit 1; }; } && \
	$$tmp/urllcsim -packets 40 -jsonl-out $$tmp/p.jsonl -prof-out $$tmp/prof.jsonl \
		> $$tmp/prof.out 2>/dev/null && \
	cmp $$tmp/plain.out $$tmp/prof.out && \
	$$tmp/urllc-report $$tmp/prof.jsonl > $$tmp/prof.md && \
	grep -q 'observer tax:' $$tmp/prof.md && \
	echo "obs-smoke OK: stdout untouched at every rate, tail exact, sampled sweep worker-invariant, observer tax reported ($$tmp)" && rm -rf $$tmp

## journey-smoke: the one-packet Fig. 3 journey through the run CLI — the
## table part of `urllcsim -journey` (stdout minus the two header lines, the
## blank line and the trailing shares) must equal the API goldens for UL, DL
## and grant-free UL, its JSONL export must render the Fig. 3 breakdown in
## urllc-report, and self-profiling must leave journey stdout byte-identical
journey-smoke:
	@tmp=$$(mktemp -d) && \
	$(GO) build -o $$tmp/urllcsim ./cmd/urllcsim && \
	$(GO) build -o $$tmp/urllc-report ./cmd/urllc-report && \
	for c in 'ul:-journey ul' 'dl:-journey dl' 'grantfree:-journey ul -grantfree'; do \
		$$tmp/urllcsim $${c#*:} > $$tmp/$${c%%:*}.out && \
		sed '1,3d' $$tmp/$${c%%:*}.out | head -n -2 > $$tmp/$${c%%:*}.table && \
		cmp $$tmp/$${c%%:*}.table testdata/journey_$${c%%:*}.golden || \
			{ echo "journey-smoke FAIL: urllcsim $${c#*:} table differs from testdata/journey_$${c%%:*}.golden"; exit 1; }; \
	done && \
	$$tmp/urllcsim -journey ul -jsonl-out $$tmp/t.jsonl >/dev/null && \
	$$tmp/urllc-report $$tmp/t.jsonl > $$tmp/t.md && \
	grep -qF 'Temporal breakdown (Fig. 3)' $$tmp/t.md && \
	$$tmp/urllcsim -journey ul -prof-out $$tmp/p.jsonl > $$tmp/prof.out 2>/dev/null && \
	cmp $$tmp/ul.out $$tmp/prof.out && \
	echo "journey-smoke OK: CLI tables match the goldens, JSONL renders Fig. 3, profiling leaves stdout untouched ($$tmp)" && rm -rf $$tmp

## sweep-smoke: a small parallel config grid must reproduce the sequential
## golden byte-for-byte — the worker-count-invariance contract, end to end
sweep-smoke:
	@tmp=$$(mktemp -d) && \
	$(GO) build -o $$tmp/urllc-sweep ./cmd/urllc-sweep && \
	$$tmp/urllc-sweep -pattern DDDU,DM -grantfree false,true -replicas 4 -packets 15 \
		-summary -parallel 1 -out $$tmp/seq.md && \
	$$tmp/urllc-sweep -pattern DDDU,DM -grantfree false,true -replicas 4 -packets 15 \
		-summary -parallel 4 -out $$tmp/par.md && \
	cmp $$tmp/seq.md $$tmp/par.md && \
	grep -q 'DM/0.5ms/gf/usb2' $$tmp/par.md && \
	grep -q 'Budget by latency source' $$tmp/par.md && \
	echo "sweep-smoke OK: 4-worker grid identical to sequential ($$tmp)" && rm -rf $$tmp
