package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// unitOf returns the unit metricDefs gives name.
func unitOf(name string) string {
	for _, d := range metricDefs {
		if d.name == name {
			return d.unit
		}
	}
	panic("wirebench: undeclared metric " + name)
}

func (r *report) set(name string, v float64, d *dist) {
	r.Metrics[name] = metric{Value: v, Unit: unitOf(name), Dist: d}
}

// fillE2E records a wire run's user-visible metrics and its checks.
func fillE2E(rep *report, p *phase) {
	rep.set("setup_s", median(p.setupS), summarize(p.setupS))
	rep.set("fixes_per_s", p.fixesPerS, summarize(p.rates))
	rep.set("frame_ack_p50_ms", median(p.frameMs), summarize(p.frameMs))
	rep.set("durable_ack_p50_ms", median(p.durableMs), summarize(p.durableMs))
	rep.set("durable_ack_p90_ms", quantile(sortedCopy(p.durableMs), 0.9), summarize(p.durableMs))
	rep.set("queries_per_s", p.queriesPerS, nil)
	rep.set("query_p50_ms", median(p.queryMs), summarize(p.queryMs))
	rep.set("query_p99_ms", quantile(sortedCopy(p.queryMs), 0.99), summarize(p.queryMs))
	rep.set("rss_peak_mib", p.rssMiB, nil)
	rep.set("disk_bytes_per_fix", p.bytesPerFix, nil)
	rep.set("keypoints_per_fix", p.kpPerFix, nil)
	rep.set("failed_ops_ratio", p.tally.failedRatio(), nil)
	rep.set("bench.generator_late_p99_ms", quantile(sortedCopy(p.lateMs), 0.99), summarize(p.lateMs))
	rep.Correct = len(p.failures) == 0
	rep.Failures = p.failures
	rep.Tally = p.tally
	rep.Bound = p.bound
	rep.Windows = p.windows
	rep.Scrape = p.scrape
	rep.CPU = p.cpu
}

// ingestLayers are the replay spans on the path from a client's frame
// to its durable ack; their self times sum to the span total that
// reconciles with the untraced end-to-end ns/fix. trajstore.encode is
// left out: segmentlog.append encodes each trail again, as bqsd does.
var ingestLayers = []string{
	"proto.encode", "proto.decode", "server.fixes", "trajstore.shardindex", "engine.session",
	"core.push", "trajstore.insert", "core.flush", "trajstore.geo", "segmentlog.append", "segmentlog.fsync",
}

// fillLayers records the per-layer metrics of a traced invocation: the
// replay's self times and counts, the wire runs' counters, and the
// reconciliation of spans against the untraced run.
func fillLayers(rep *report, workload string, untraced, traced *phase, rp *replayOut) {
	self := func(name string) float64 {
		if l := rp.layers[name]; l != nil {
			return float64(l.SelfNs)
		}
		return 0
	}
	fixes := float64(rp.fixes)
	rep.set("proto.decode_ns_per_fix", self("proto.decode")/fixes, nil)
	rep.set("proto.wire_bytes_per_fix", float64(rp.wireBytes)/fixes, nil)
	rep.set("proto.resp_encode_ns_per_record", ratio(self("proto.resp_encode"), float64(rp.respRecords)), nil)
	rep.set("engine.tryingest_ns_per_fix", float64(rp.tryNs)/fixes, nil)
	rep.set("engine.sync_barrier_ms", median(rp.syncMs), summarize(rp.syncMs))
	rep.set("engine.flush_ms", median(rp.flushMs), summarize(rp.flushMs))
	rep.set("engine.sessions_opened", float64(rp.sessions), nil)
	rep.set("engine.rejected_fixes", untraced.scrape["bqs_ingest_rejected_total"]+traced.scrape["bqs_ingest_rejected_total"], nil)
	rep.set("engine.queue_depth_max", float64(rp.queueMax), nil)
	rep.set("core.push_ns_per_fix", self("core.push")/fixes, nil)
	rep.set("trajstore.insert_ns_per_segment", ratio(self("trajstore.insert"), float64(rp.segments)), nil)
	rep.set("trajstore.live_segments", float64(rp.liveSegments), nil)
	rep.set("trajstore.encode_ns_per_key", ratio(self("trajstore.encode"), float64(rp.keys)), nil)
	rep.set("segmentlog.append_ns_per_record", ratio(self("segmentlog.append"), float64(rp.records)), nil)
	rep.set("segmentlog.record_bytes", ratio(float64(rp.logBytes), float64(rp.records)), nil)
	rep.set("segmentlog.fsync_ms", median(rp.fsyncMs), summarize(rp.fsyncMs))
	rep.set("segmentlog.fsyncs", float64(rp.fsyncs), nil)
	rep.set("segmentlog.open_ms", rp.openMs, nil)
	nq := float64(rp.queries)
	rep.set("segmentlog.query_ns", ratio(self("segmentlog.query"), nq), nil)
	ws := rp.ws
	rep.set("segmentlog.segments_pruned_ratio", ratio(float64(ws.SegmentsPruned), float64(ws.Segments)), nil)
	rep.set("segmentlog.records_pruned_ratio", ratio(float64(ws.RecordsPruned), float64(ws.RecordsIndexed)), nil)
	rep.set("segmentlog.records_decoded_per_query", ratio(float64(ws.RecordsDecoded), nq), nil)
	// Matched over candidates read, from disk or from the cache.
	rep.set("segmentlog.decode_useful_ratio", ratio(float64(ws.RecordsMatched), float64(ws.RecordsDecoded+ws.CacheHits)), nil)
	m := untraced.scrape
	rep.set("cache.hit_ratio", ratio(m["bqs_cache_hits_total"], m["bqs_cache_hits_total"]+m["bqs_cache_misses_total"]), nil)
	rep.set("cache.evictions", m["bqs_cache_evictions_total"], nil)

	var sum float64
	for _, l := range ingestLayers {
		sum += self(l)
	}
	spanSum := sum / fixes
	e2e := 1e9 / untraced.fixesPerS
	rep.set("bench.e2e_ns_per_fix", e2e, nil)
	rep.set("bench.span_sum_ns_per_fix", spanSum, nil)
	rep.set("server.unattributed_ns_per_fix", e2e-spanSum, nil)
	rep.set("bench.query_e2e_ms", mean(untraced.queryMs), nil)
	rep.set("bench.query_span_sum_ms", ratio(self("segmentlog.query")+self("proto.resp_encode"), nq)/1e6, nil)
	overhead := untraced.fixesPerS/traced.fixesPerS - 1
	if workload == "query_mixed" {
		overhead = mean(traced.queryMs)/mean(untraced.queryMs) - 1
	}
	rep.set("bench.trace_overhead_ratio", overhead, nil)
	rep.Layers = rp.layers
}

// fingerprint identifies the host and the code a report was measured
// on. Reports compare only when everything but Code matches.
type fingerprint struct {
	NProc          int    `json:"nproc"`
	GeneratorProcs int    `json:"generator_gomaxprocs"`
	BqsdProcs      int    `json:"bqsd_gomaxprocs"`
	CPU            string `json:"cpu"`
	Kernel         string `json:"kernel"`
	Go             string `json:"go"`
	DataFS         string `json:"data_fs"`
	Code           string `json:"code"` // git commit when the checkout is a repository, and a hash of the Go sources
}

func (f fingerprint) host() fingerprint {
	f.Code = ""
	return f
}

// bqsdProcs is bqsd's GOMAXPROCS: it inherits this environment and
// leaves the runtime default alone.
func bqsdProcs() int {
	if n, err := strconv.Atoi(os.Getenv("GOMAXPROCS")); err == nil && n > 0 {
		return n
	}
	return runtime.NumCPU()
}

func hostFingerprint(root, dataDir string) (fingerprint, error) {
	f := fingerprint{
		NProc:          runtime.NumCPU(),
		GeneratorProcs: runtime.GOMAXPROCS(0),
		BqsdProcs:      bqsdProcs(),
		Go:             runtime.Version(),
		CPU:            "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				f.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return f, err
	}
	f.Kernel = strings.TrimSpace(string(b))
	var st syscall.Statfs_t
	if err := syscall.Statfs(dataDir, &st); err != nil {
		return f, err
	}
	f.DataFS = fsName(int64(st.Type))
	f.Code, err = codeID(root)
	return f, err
}

func fsName(magic int64) string {
	switch magic {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	}
	return fmt.Sprintf("fs-%#x", magic)
}

// codeID names the code under test: the git commit when root is a
// repository, plus a hash of every Go source and module file, which
// also identifies a checkout that is not.
func codeID(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod" || d.Name() == "go.sum") {
			return nil
		}
		rel, _ := filepath.Rel(root, path) // path is under root by construction
		fmt.Fprintf(h, "%s\x00", rel)
		src, err := os.Open(path)
		if err != nil {
			return err
		}
		defer src.Close()
		_, err = io.Copy(h, src)
		return err
	})
	if err != nil {
		return "", err
	}
	id := fmt.Sprintf("src:%x", h.Sum(nil)[:8])
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "--short=12", "HEAD").Output(); err == nil {
			id = "git:" + strings.TrimSpace(string(out)) + " " + id
		}
	}
	return id, nil
}

func writeReport(dir string, rep *report) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d-%d.json", rep.Workload, rep.Seed, rep.Trace, time.Now().UnixNano()))
	return path, os.WriteFile(path, b, 0o644)
}

// printHuman writes the run's report as text; the JSON result line
// follows it.
func printHuman(rep *report, path string) {
	fp := rep.Fingerprint
	fmt.Printf("wirebench %s seed %d, %ds, trace %d  (report %s)\n", rep.Workload, rep.Seed, rep.Seconds, rep.Trace, path)
	fmt.Printf("host: nproc %d, GOMAXPROCS generator %d / bqsd %d, %s, kernel %s, %s, data on %s, code %s\n",
		fp.NProc, fp.GeneratorProcs, fp.BqsdProcs, fp.CPU, fp.Kernel, fp.Go, fp.DataFS, fp.Code)
	if rep.Flags != nil {
		fmt.Printf("bqsd flags beyond -dir/-addr/-metrics: %s\n", strings.Join(rep.Flags, " "))
	}
	for _, d := range metricDefs {
		m, ok := rep.Metrics[d.name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("  %-36s %14.6g %s", d.name, m.Value, m.Unit)
		if m.Dist != nil {
			line += fmt.Sprintf("   (n=%d, p25 %.4g, p50 %.4g, p75 %.4g)", m.Dist.N, m.Dist.P25, m.Dist.P50, m.Dist.P75)
		}
		fmt.Println(line)
	}
	fmt.Printf("bqsd CPU %.2f s over the measured phase; host steal %.1f%%\n", rep.CPU.CPUSeconds, 100*rep.CPU.StealRatio)
	t := rep.Tally
	fmt.Printf("ops: %d attempted, %d failed, %d backpressure resend rounds, %d degraded acks\n", t.Attempted, t.Failed, t.Resends, t.Degraded)
	fmt.Printf("checks: %d sampled fixes within %g m + %g m (worst %.4f m, %d violations); %d window answers vs brute force\n",
		rep.Bound.Fixes, float64(tolM), quantM, rep.Bound.WorstM, rep.Bound.Violations, rep.Windows)
	for _, f := range rep.Failures {
		fmt.Println("FAILED CHECK:", f)
	}
	if rep.Layers == nil {
		return
	}
	names := make([]string, 0, len(rep.Layers))
	for n := range rep.Layers {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Println("replay layers (self time):")
	for _, n := range names {
		l := rep.Layers[n]
		fmt.Printf("  %-24s %8d calls %12.3f ms self %12.3f ms wall\n", n, l.Calls, float64(l.SelfNs)/1e6, float64(l.WallNs)/1e6)
	}
	e2e, sum := rep.Metrics["bench.e2e_ns_per_fix"].Value, rep.Metrics["bench.span_sum_ns_per_fix"].Value
	fmt.Printf("reconciliation: untraced end to end %.1f ns/fix, replay spans %.1f ns/fix, unattributed %.1f ns/fix (%.0f%% of end to end); tracing overhead %.2f%%\n",
		e2e, sum, e2e-sum, 100*(e2e-sum)/e2e, 100*rep.Metrics["bench.trace_overhead_ratio"].Value)
	fmt.Printf("queries: untraced %.3f ms mean, replay spans %.3f ms\n",
		rep.Metrics["bench.query_e2e_ms"].Value, rep.Metrics["bench.query_span_sum_ms"].Value)
}

// copyDir copies the regular files of a log directory tree.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path) // path is under src by construction
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}
