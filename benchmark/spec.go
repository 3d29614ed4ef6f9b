package main

import (
	"runtime"
	"time"
)

// workloadSpec names one workload and records why it exists. The same
// text is in BENCHMARK.json; TestSpecMatchesBenchmarkJSON keeps them equal.
type workloadSpec struct {
	Name string
	Why  string
	// Op is the operation the workload counts: attempted/failed, the
	// latency metrics and slo_share are all per Op.
	Op string
	// Work is the unit ops_per_s counts (it differs from Op only on
	// batch_fib, whose work is forks but whose caller waits for a Run).
	Work string
	run  func(env) result
}

// metricSpec is one gated end-to-end metric. Bound is the share of the
// parent's median by which it may get worse before a change is rejected.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// layerSpec is one per-layer metric of the traced run. README.md says
// where each is measured and which {metric, workload} it should move.
type layerSpec struct {
	Name   string
	Unit   string
	Better string
}

var workloads = []workloadSpec{
	{
		Name: "batch_fib", Op: "NewRuntime+Run(fib(25)) call", Work: "forks",
		Why: "one-shot fib(25) by NewRuntime+Run: pure fork/join on the deque owner path (121k forks, ~15 steals per Run); intake, steal, stack and vm are idle",
		run: runFib,
	},
	{
		Name: "batch_fanout", Op: "fork-16/join round", Work: "rounds",
		Why: "rounds of 16 seeded ~10us leaves under a deep dirty frame: work leaves by Steal, joins suspend, stacks are madvised and refaulted, thieves are woken every round",
		run: runFanout,
	},
	{
		Name: "serve_closed_tiny", Op: "Submit->Err job", Work: "jobs",
		Why: "closed loop of nproc clients, each Submit then Err of a fib(4) root: per-job intake, wake, completion and Job allocation are all of the ~3us; fork/steal/vm are idle",
		run: runClosed,
	},
	{
		Name: "serve_open_mix", Op: "request", Work: "requests",
		Why: "open loop, seeded Poisson arrivals at 2000 req/s of a four-shape mix: workers park between requests, so wake-up, first steal and waiter wake-up set the latency",
		run: runOpen,
	},
}

var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"lat_p50_us", "us", "lower", 0.25},
	{"lat_p90_us", "us", "lower", 0.25},
	{"slo_share", "share", "higher", 0.05},
}

var perLayer = []layerSpec{
	// core: one job's life, from spans stamped by the benchmark.
	{"core.intake.submit_ns", "ns", "lower"},
	{"core.complete.wake_ns", "ns", "lower"},
	{"core.dispatch.wait_ns", "ns", "lower"},
	{"core.dispatch.idle_wake_ns", "ns", "lower"},
	{"core.run.root_ns", "ns", "lower"},
	{"core.intake.allocs_per_job", "count", "lower"},
	{"core.intake.bytes_per_job", "B", "lower"},
	{"core.intake.pooled_job_ns", "ns", "lower"},
	// core: fork/join owner path.
	{"core.fork.ns_per_fork_p1", "ns", "lower"},
	{"core.fork.allocs_per_fork", "count", "lower"},
	{"core.arena.acquire_release_ns", "ns", "lower"},
	{"core.fork.tp_over_t1", "ratio", "lower"},
	// core: steal/suspend, from Stats deltas and leaf stamps.
	{"core.steal.steals_per_round", "count", "lower"},
	{"core.steal.success_ratio", "ratio", "higher"},
	{"core.steal.fork_to_remote_start_ns", "ns", "lower"},
	{"core.suspend.suspends_per_round", "count", "lower"},
	{"core.resume.join_tail_ns", "ns", "lower"},
	// deque: direct calls.
	{"deque.push_pop_ns", "ns", "lower"},
	{"deque.steal_ns", "ns", "lower"},
	{"deque.push_pop_contended_ns", "ns", "lower"},
	// stack: direct calls.
	{"stack.pool.take_put_ns", "ns", "lower"},
	{"stack.pool.take_put_cross_ns", "ns", "lower"},
	{"stack.frame.push_pop_ns", "ns", "lower"},
	{"stack.suspend_resume_ns", "ns", "lower"},
	{"stack.pool.stacks_created", "count", "lower"},
	{"stack.pool.max_in_use", "count", "lower"},
	// vm: direct calls and Stats deltas.
	{"vm.madvise_ns_per_page", "ns", "lower"},
	{"vm.fault_ns_per_page", "ns", "lower"},
	{"vm.mmap_ns", "ns", "lower"},
	{"vm.unmapped_pages_per_round", "count", "lower"},
	{"vm.page_faults_per_round", "count", "lower"},
	{"vm.peak_rss_pages", "count", "lower"},
	// trace: what the traced run itself costs.
	{"trace.emit_ns", "ns", "lower"},
	{"trace.overhead_pct.batch_fib", "%", "lower"},
	{"trace.overhead_pct.batch_fanout", "%", "lower"},
	{"trace.overhead_pct.serve_closed_tiny", "%", "lower"},
	{"trace.overhead_pct.serve_open_mix", "%", "lower"},
	// sim: the predicted counterpart.
	{"sim.tasks_per_s", "1/s", "higher"},
	{"sim.makespan_p72", "count", "lower"},
	// harness: the open-loop generator and the tail it can support.
	{"serve.gen_lag_p99_us", "us", "lower"},
	{"serve.gen_lag_max_us", "us", "lower"},
	{"serve.lat_p99_us", "us", "lower"},
	{"serve.lat_p999_us", "us", "lower"},
}

// sizes freezes every workload parameter as a number. They are never
// re-calibrated per run: a later change is compared against its parent on
// identical inputs. (BENCHMARK.json has a fixed set of keys, so the
// numbers live here rather than there.)
type sizes struct {
	setups int // set-ups per run; setup_s is their median

	fibN          int
	fibRunsPerRep int // one-shot Runs per rep
	fibSLO        time.Duration

	fanoutRounds int // rounds per rep (one Run)
	fanoutLeaves int
	fanoutSteps  int // mean xorshift steps per leaf, drawn +-50%
	fanoutDive   int // 4 KB frames below the forking frame
	fanoutDirty  int // bytes dirtied above the frame before each round
	fanoutSLO    time.Duration

	closedJobsPerRep int
	closedWarmJobs   int
	closedFibN       int
	closedSLO        time.Duration

	openRate       float64 // requests per second
	openReqsPerRep int
	openWarmReqs   int
	openGraphs     int // distinct reqgraph inputs in the request pool
	openSLO        time.Duration

	// Traced run: share of -seconds each slice measures for, and lane sizes.
	sliceFib, sliceFanout, sliceClosed, sliceOpen, sliceOpenTraced float64
	laneIters                                                      int // iterations per micro-lane batch
	laneBatches                                                    int
	idleWakes                                                      int
	pooledJobs                                                     int
	simFibN                                                        int
	spanDump                                                       int // top-level spans kept per workload in the dump
}

var fullSizes = sizes{
	setups: 5,

	fibN:          25,
	fibRunsPerRep: 40,
	fibSLO:        100 * time.Millisecond,

	fanoutRounds: 4000,
	fanoutLeaves: 16,
	fanoutSteps:  5000,
	fanoutDive:   8,
	fanoutDirty:  32768,
	fanoutSLO:    time.Millisecond,

	closedJobsPerRep: 100_000,
	closedWarmJobs:   200_000,
	closedFibN:       4,
	closedSLO:        100 * time.Microsecond,

	openRate:       2000,
	openReqsPerRep: 2000,
	openWarmReqs:   1000,
	openGraphs:     64,
	openSLO:        5 * time.Millisecond,

	sliceFib: 0.08, sliceFanout: 0.08, sliceClosed: 0.05, sliceOpen: 0.28, sliceOpenTraced: 0.10,
	laneIters:   200_000,
	laneBatches: 5,
	idleWakes:   300,
	pooledJobs:  50_000,
	simFibN:     28,
	spanDump:    2000,
}

// smokeSizes keep the same code paths at sizes a unit test can afford.
var smokeSizes = sizes{
	setups: 1,

	fibN:          16,
	fibRunsPerRep: 2,
	fibSLO:        time.Second,

	fanoutRounds: 20,
	fanoutLeaves: 16,
	fanoutSteps:  500,
	fanoutDive:   8,
	fanoutDirty:  32768,
	fanoutSLO:    time.Second,

	closedJobsPerRep: 2000,
	closedWarmJobs:   200,
	closedFibN:       4,
	closedSLO:        time.Second,

	openRate:       2000,
	openReqsPerRep: 100,
	openWarmReqs:   20,
	openGraphs:     4,
	openSLO:        time.Second,

	sliceFib: 0.5, sliceFanout: 0.5, sliceClosed: 0.5, sliceOpen: 1, sliceOpenTraced: 1,
	laneIters:   2000,
	laneBatches: 2,
	idleWakes:   3,
	pooledJobs:  500,
	simFibN:     12,
	spanDump:    50,
}

// workers is the runtime size every workload uses, and also the number of
// client goroutines the closed loop drives it with: sized for the host,
// never above it.
func workers() int { return min(runtime.NumCPU(), 4) }
