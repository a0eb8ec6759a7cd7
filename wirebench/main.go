// Command wirebench is the repository's end-to-end benchmark: it drives
// a real bqsd process over its wire protocol from one load-generator
// process (at most two connections, GOMAXPROCS ≤ 2) and reports, per
// workload, what a user of the daemon sees — set-up time, ingest
// throughput, ack latencies, query latency, memory, disk and compression
// per fix — after checking that every answer was right.
//
// Usage (from the repository root; run.sh builds both binaries):
//
//	bash wirebench/run.sh --workload stream_ingest --seed 1 --seconds 20 --trace 0
//	bash wirebench/run.sh compare DIR_A DIR_B
//
// With --trace 0 the last line of standard output is a JSON object
// holding the end-to-end metrics; with --trace 1 the run is repeated
// untraced and traced, an in-process replay times each layer, and the
// JSON holds the per-layer metrics. Every run writes a full report
// (host fingerprint, sample spread, output checks, failure accounting,
// trace reconciliation) to .bench_build/reports. See NOTES.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// metricDef names one reported metric; layer metrics print with
// --trace 1, the others with --trace 0.
type metricDef struct {
	name, unit string
	layer      bool
}

// metricDefs is the benchmark's metric list; BENCHMARK.json names the
// same metrics with the same units.
var metricDefs = []metricDef{
	{"setup_s", "s", false},
	{"fixes_per_s", "1/s", false},
	{"frame_ack_p50_ms", "ms", false},
	{"durable_ack_p50_ms", "ms", false},
	{"queries_per_s", "1/s", false},
	{"query_p50_ms", "ms", false},
	{"rss_peak_mib", "MiB", false},
	{"disk_bytes_per_fix", "B", false},
	{"keypoints_per_fix", "ratio", false},

	{"durable_ack_p90_ms", "ms", true},
	{"query_p99_ms", "ms", true},
	{"failed_ops_ratio", "ratio", true},
	{"bench.generator_late_p99_ms", "ms", true},
	{"bench.e2e_ns_per_fix", "ns", true},
	{"bench.span_sum_ns_per_fix", "ns", true},
	{"bench.query_e2e_ms", "ms", true},
	{"bench.query_span_sum_ms", "ms", true},
	{"bench.trace_overhead_ratio", "ratio", true},
	{"proto.decode_ns_per_fix", "ns", true},
	{"proto.wire_bytes_per_fix", "B", true},
	{"proto.resp_encode_ns_per_record", "ns", true},
	{"engine.tryingest_ns_per_fix", "ns", true},
	{"engine.sync_barrier_ms", "ms", true},
	{"engine.flush_ms", "ms", true},
	{"engine.sessions_opened", "count", true},
	{"engine.rejected_fixes", "count", true},
	{"engine.queue_depth_max", "count", true},
	{"core.push_ns_per_fix", "ns", true},
	{"trajstore.insert_ns_per_segment", "ns", true},
	{"trajstore.live_segments", "count", true},
	{"trajstore.encode_ns_per_key", "ns", true},
	{"segmentlog.append_ns_per_record", "ns", true},
	{"segmentlog.record_bytes", "B", true},
	{"segmentlog.fsync_ms", "ms", true},
	{"segmentlog.fsyncs", "count", true},
	{"segmentlog.open_ms", "ms", true},
	{"segmentlog.query_ns", "ns", true},
	{"segmentlog.segments_pruned_ratio", "ratio", true},
	{"segmentlog.records_pruned_ratio", "ratio", true},
	{"segmentlog.records_decoded_per_query", "count", true},
	{"segmentlog.decode_useful_ratio", "ratio", true},
	{"cache.hit_ratio", "ratio", true},
	{"cache.evictions", "count", true},
	{"server.unattributed_ns_per_fix", "ns", true},
}

var workloads = map[string]bool{"stream_ingest": true, "checkpoint_ingest": true, "query_mixed": true}

// metric is one reported value with the spread of the samples it
// summarises (nil when it is a single measurement).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Dist  *dist   `json:"dist,omitempty"`
}

// report is the full record of one run, written to .bench_build/reports.
type report struct {
	Workload    string                `json:"workload"`
	Seed        int64                 `json:"seed"`
	Seconds     int                   `json:"seconds"`
	Trace       int                   `json:"trace"`
	Toy         bool                  `json:"toy,omitempty"`
	Fingerprint fingerprint           `json:"fingerprint"`
	Correct     bool                  `json:"correct"`
	Failures    []string              `json:"failures,omitempty"`
	Tally       tally                 `json:"tally"`
	Bound       boundResult           `json:"bound"`
	Windows     int                   `json:"windows_checked"`
	Metrics     map[string]metric     `json:"metrics"`
	Layers      map[string]*layerTime `json:"layers,omitempty"`
	Scrape      map[string]float64    `json:"scrape"`
	Flags       []string              `json:"bqsd_flags"`
	CPU         cpuWindow             `json:"cpu"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		workload = flag.String("workload", "", "stream_ingest, checkpoint_ingest or query_mixed")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 20, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
		bqsd     = flag.String("bqsd", "", "bqsd binary (run.sh builds it)")
		root     = flag.String("root", ".", "repository root; scratch files go under its .bench_build")
		toyFlag  = flag.Bool("toy", false, "toy sizes for the self-test")
	)
	flag.Parse()
	if !workloads[*workload] || *bqsd == "" || *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "wirebench: need --workload stream_ingest|checkpoint_ingest|query_mixed, --bqsd, --seconds ≥ 1, --trace 0|1")
		os.Exit(2)
	}
	if n := runtime.NumCPU(); n < 2 {
		runtime.GOMAXPROCS(n)
	} else {
		runtime.GOMAXPROCS(2)
	}
	build := filepath.Join(*root, ".bench_build")
	e := &env{bqsd: *bqsd, build: build, seed: *seed, sz: full}
	if *toyFlag {
		e.sz = toy
	}
	e.work = filepath.Join(build, "work", fmt.Sprintf("%s-%d", *workload, os.Getpid()))
	e.logPath = filepath.Join(e.work, "bqsd.log")
	cleanup := func() {
		killAll()
		_ = os.RemoveAll(e.work) // scratch only
	}
	// The run must end within three minutes whatever bqsd does.
	watchdog := time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "wirebench: run exceeded 170s; stopping")
		cleanup()
		os.Exit(3)
	})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		cleanup()
		os.Exit(4)
	}()
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "wirebench:", err)
		os.Exit(1)
	}

	rep, err := runWorkload(e, *workload, time.Duration(*seconds)*time.Second, *trace == 1)
	watchdog.Stop()
	if err != nil {
		killAll()
		fmt.Fprintf(os.Stderr, "wirebench: %s: %v\n", *workload, err)
		if b, rerr := os.ReadFile(e.logPath); rerr == nil && len(b) > 0 {
			fmt.Fprintf(os.Stderr, "bqsd log tail:\n%s\n", tail(b, 2000))
		}
		cleanup()
		os.Exit(1)
	}
	cleanup()
	rep.Seed, rep.Seconds, rep.Trace, rep.Toy = *seed, *seconds, *trace, *toyFlag
	if rep.Fingerprint, err = hostFingerprint(*root, filepath.Join(build, "work")); err != nil {
		fmt.Fprintln(os.Stderr, "wirebench: fingerprint:", err)
		os.Exit(1)
	}
	path, err := writeReport(filepath.Join(build, "reports"), rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wirebench: report:", err)
		os.Exit(1)
	}
	printHuman(rep, path)

	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.Correct, rep.Tally.Attempted, rep.Tally.Failed + rep.Tally.Resends + rep.Tally.Degraded, map[string]metric{}}
	for _, d := range metricDefs {
		if d.layer == (*trace == 1) {
			m := rep.Metrics[d.name]
			out.Metrics[d.name] = metric{Value: m.Value, Unit: m.Unit}
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wirebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !rep.Correct {
		os.Exit(1)
	}
}

func tail(b []byte, n int) []byte {
	if len(b) > n {
		return b[len(b)-n:]
	}
	return b
}

// runWorkload runs one workload: with trace off, one wire run; with
// trace on, an untraced and a traced wire run of half the length each,
// then the in-process replay.
func runWorkload(e *env, workload string, seconds time.Duration, traced bool) (*report, error) {
	rep := &report{Workload: workload, Metrics: map[string]metric{}}
	var histDir, histCopy string
	var hist *fleet
	if workload == "query_mixed" {
		rep.Flags = e.mixedFlags()
		histDir = filepath.Join(e.work, "history")
		var err error
		if hist, err = preload(e, histDir); err != nil {
			return nil, err
		}
		if traced {
			histCopy = filepath.Join(e.work, "history-traced")
			if err := copyDir(histDir, histCopy); err != nil {
				return nil, err
			}
		}
	}
	run := func(seconds time.Duration, traced bool, dir string) (*phase, error) {
		p := &phase{}
		var err error
		switch workload {
		case "stream_ingest":
			err = runStream(e, p, seconds, traced)
		case "checkpoint_ingest":
			err = runCheckpoint(e, p, seconds, traced)
		default:
			err = runMixed(e, p, seconds, traced, hist, dir)
		}
		return p, err
	}
	if !traced {
		p, err := run(seconds, false, histDir)
		if err != nil {
			return nil, err
		}
		fillE2E(rep, p)
		return rep, nil
	}
	untraced, err := run(seconds/2, false, histDir)
	if err != nil {
		return nil, err
	}
	tracedP, err := run(seconds/2, true, histCopy)
	if err != nil {
		return nil, err
	}
	fillE2E(rep, untraced)
	rp, err := e.replay(workload, bqsdProcs(), untraced.histEnd, filepath.Join(histDir, tenant))
	if err != nil {
		return nil, err
	}
	fillLayers(rep, workload, untraced, tracedP, rp)
	rep.Failures = append(rep.Failures, tracedP.failures...)
	rep.Correct = rep.Correct && len(tracedP.failures) == 0
	rep.Tally.add(tracedP.tally)
	rep.Bound.add(tracedP.bound)
	rep.Windows += tracedP.windows
	dir := filepath.Join(e.build, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// The wire spans and the replay spans have different epochs; each
	// keeps its own Req numbering.
	spans := mergeSpans(&tracer{spans: tracedP.spans}, &tracer{spans: rp.spans})
	if err := writeSpans(filepath.Join(dir, fmt.Sprintf("%s-seed%d.spans.jsonl", workload, e.seed)), spans); err != nil {
		return nil, err
	}
	return rep, nil
}
