package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/trajcomp/bqs/internal/proto"
	"github.com/trajcomp/bqs/internal/server"
)

// tolM is bqsd's default deviation tolerance; the benchmark never
// changes it.
const tolM = 10

// sizes fixes the shape of every workload. full is the benchmark; toy
// runs the same code in seconds for the self-test.
type sizes struct {
	devices      int           // fleet of the ingest workloads and of query_mixed's history
	group        int           // devices per Ingest frame
	streamPer    int           // fixes per device per frame, stream_ingest
	streamRate   float64       // stream_ingest sends this many fixes per --seconds second
	syncEvery    int           // frames per Sync(false) in the closed loops
	ckptPer      int           // fixes per device per round, checkpoint_ingest
	ckptRate     float64       // checkpoint_ingest runs this many rounds per --seconds second
	histRounds   int           // checkpoint rounds that preload query_mixed's history
	histPer      int           // fixes per device per history round
	histGap      uint32        // seconds from one history round to the next
	writers      int           // query_mixed writer devices
	writerPer    int           // fixes per writer device per frame
	writerEvery  time.Duration // writer frame interval (open loop)
	writerSync   int           // writer frames per Sync(true): 4 durable rounds a second, so a run has enough samples
	dashboard    int           // repeated "dashboard" windows
	probeQueries int           // read probe after the ingest workloads: at most this many queries,
	probeTime    time.Duration // or as many as fit in this time (at least 50)
	setups       int           // bqsd launches per set-up measurement
	setupGap     time.Duration // pause after each launch, so the launches sample a longer stretch of the host
	sample       int           // devices per fleet kept for the error-bound check
	segBytes     int           // query_mixed's -segbytes
	cacheMB      int           // query_mixed's -cache-mb
	replayFrames int           // frames the in-process replay feeds
	replayQuery  int           // window queries the replay runs
}

var full = sizes{
	devices: 2000, group: 100, streamPer: 50, streamRate: 1.2e6, syncEvery: 4, ckptPer: 60, ckptRate: 10,
	histRounds: 100, histPer: 12, histGap: 600,
	writers: 500, writerPer: 10, writerEvery: 50 * time.Millisecond, writerSync: 5,
	dashboard: 64, probeQueries: 3000, probeTime: 4 * time.Second, setups: 41, setupGap: 40 * time.Millisecond, sample: 16,
	segBytes: 256 << 10, cacheMB: 8,
	replayFrames: 200, replayQuery: 1000,
}

var toy = sizes{
	devices: 200, group: 50, streamPer: 20, streamRate: 1e6, syncEvery: 4, ckptPer: 20, ckptRate: 10,
	histRounds: 10, histPer: 12, histGap: 600,
	writers: 50, writerPer: 10, writerEvery: 50 * time.Millisecond, writerSync: 20,
	dashboard: 4, probeQueries: 50, probeTime: time.Second, setups: 2, sample: 4,
	segBytes: 64 << 10, cacheMB: 1,
	replayFrames: 20, replayQuery: 50,
}

// env is one benchmark invocation.
type env struct {
	bqsd    string // bqsd binary
	build   string // .bench_build: reports and traces
	work    string // scratch directory of this run
	seed    int64
	sz      sizes
	logPath string // bqsd's stderr, appended across launches
}

// phase is the outcome of one wire run of a workload.
type phase struct {
	setupS      []float64
	fixesPerS   float64
	rates       []float64 // acked fixes/s per second of the run
	frameMs     []float64
	durableMs   []float64
	queryMs     []float64
	queriesPerS float64
	lateMs      []float64 // how late the generator ran: open loop, send time minus due time; closed loop, wait for the next frame
	rssMiB      float64
	bytesPerFix float64
	kpPerFix    float64
	tally       tally
	acked       uint64
	bound       boundResult
	windows     int // sampled window answers checked
	failures    []string
	scrape      map[string]float64 // /metrics at the end
	spans       []span
	elapsed     time.Duration // first frame to final durable ack
	tracers     []*tracer
	histEnd     uint32 // query_mixed: history timestamps lie below this
	sampled     []answered
	fleets      []*fleet
	cpu         cpuWindow // bqsd CPU and host steal over the ingest (or mixed) phase
}

// cpuWindow measures bqsd's CPU time and the host's steal over a phase.
type cpuWindow struct {
	d                  *daemon
	cpu0, steal0, tot0 float64
	CPUSeconds         float64 `json:"bqsd_cpu_s"`
	StealRatio         float64 `json:"host_steal_ratio"`
}

func (w *cpuWindow) start(d *daemon) {
	w.d = d
	w.cpu0, _ = d.cpuSeconds() // a missing reading shows as an implausible total
	w.steal0, w.tot0 = hostTicks()
}

func (w *cpuWindow) stop() {
	c, _ := w.d.cpuSeconds() // as above
	s, t := hostTicks()
	w.CPUSeconds = c - w.cpu0
	w.StealRatio = ratio(s-w.steal0, t-w.tot0)
}

func (p *phase) fail(format string, args ...interface{}) {
	p.failures = append(p.failures, fmt.Sprintf(format, args...))
}

func (p *phase) tracer(traced bool, epoch time.Time) *tracer {
	if !traced {
		return nil
	}
	t := newTracer(epoch)
	p.tracers = append(p.tracers, t)
	return t
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func fixesIn(fr []proto.DeviceBatch) uint64 {
	n := 0
	for _, b := range fr {
		n += len(b.Keys)
	}
	return uint64(n)
}

// launch measures set-up: it starts bqsd on dir sz.setups times — from
// an empty directory each time when fresh — and keeps the last one
// running for the workload.
func (e *env) launch(p *phase, dir string, fresh bool, flags ...string) (*daemon, *server.Client, error) {
	for i := 0; ; i++ {
		if fresh {
			if err := os.RemoveAll(dir); err != nil {
				return nil, nil, err
			}
		}
		d, c, dt, err := startDaemon(e.bqsd, dir, e.logPath, flags...)
		if err != nil {
			return nil, nil, err
		}
		p.setupS = append(p.setupS, dt.Seconds())
		if i == e.sz.setups-1 {
			return d, c, nil
		}
		_ = c.Close() // only the handshake ran on it
		if err := d.stop(); err != nil {
			return nil, nil, err
		}
		time.Sleep(e.sz.setupGap)
	}
}

// rateTimeline turns (elapsed, cumulative acked) samples into per-second
// rates.
type rateTimeline struct {
	last  time.Time
	n     uint64
	rates []float64
}

func (r *rateTimeline) add(now time.Time, acked uint64) {
	if now.Sub(r.last) >= time.Second {
		r.rates = append(r.rates, float64(acked-r.n)/now.Sub(r.last).Seconds())
		r.last, r.n = now, acked
	}
}

// drain stops a producer and waits for its goroutine to exit.
func drain(stop chan struct{}, frames <-chan sweepFrame) {
	close(stop)
	for range frames {
	}
}

// stream_ingest: closed loop on one connection; frames of group devices
// × streamPer fixes, Sync(false) every syncEvery frames, and a Sync(true)
// that ends each epoch — one epoch per second asked for, so a 20 s run
// yields twenty durable-ack samples while each session still runs for
// hundreds of fixes. The run sends a fixed number of fixes, streamRate per second
// asked for, so the state it leaves behind — live store, the log the
// read probe searches — is the same on every run and only the time to
// reach it varies.
func runStream(e *env, p *phase, seconds time.Duration, traced bool) error {
	d, c, err := e.launch(p, filepath.Join(e.work, "data"), true)
	if err != nil {
		return err
	}
	defer d.stop()
	epoch := time.Now()
	k := newConn(c, p.tracer(traced, epoch))
	fl := newFleet(e.seed, "dev", e.sz.devices, e.sz.sample)
	p.fleets = []*fleet{fl}
	sw := &sweep{f: fl, group: e.sz.group, per: e.sz.streamPer}
	stop := make(chan struct{})
	src := sw.produce(stop)
	var sent uint64
	p.cpu.start(d)
	start := time.Now()
	tl := rateTimeline{last: start}
	epochs := max(1, int(seconds.Seconds()))
	epochFrames := int(seconds.Seconds()*e.sz.streamRate) / (e.sz.group * e.sz.streamPer) / epochs
	epochStart := start
	for i := 0; i < epochs*epochFrames; i++ {
		t := time.Now()
		fr := <-src
		p.lateMs = append(p.lateMs, ms(time.Since(t)))
		t = time.Now()
		if _, err := k.ingest(fr.batches); err != nil {
			drain(stop, src)
			return fmt.Errorf("ingest: %w", err)
		}
		p.frameMs = append(p.frameMs, ms(time.Since(t)))
		sent += fixesIn(fr.batches)
		fl.acked(fr.batches)
		switch {
		case (i+1)%epochFrames == 0:
			if err := k.sync(true); err != nil {
				drain(stop, src)
				return fmt.Errorf("sync(flush): %w", err)
			}
			p.durableMs = append(p.durableMs, ms(time.Since(epochStart)))
			epochStart = time.Now()
		case (i+1)%e.sz.syncEvery == 0:
			if err := k.sync(false); err != nil {
				drain(stop, src)
				return fmt.Errorf("sync: %w", err)
			}
		}
		tl.add(time.Now(), k.acked)
	}
	drain(stop, src)
	p.elapsed = time.Since(start)
	p.cpu.stop()
	p.rates = tl.rates
	p.fixesPerS = float64(k.acked) / p.elapsed.Seconds()
	p.acked = k.acked
	e.readProbe(p, k, fl.maxT())
	return e.finish(p, d, []*conn{k}, sent, 0)
}

// checkpoint_ingest: closed loop on one connection; each round sends
// ckptPer fixes for every device, then Sync(true). The run makes
// ckptRate rounds per second asked for.
func runCheckpoint(e *env, p *phase, seconds time.Duration, traced bool) error {
	d, c, err := e.launch(p, filepath.Join(e.work, "data"), true)
	if err != nil {
		return err
	}
	defer d.stop()
	epoch := time.Now()
	k := newConn(c, p.tracer(traced, epoch))
	fl := newFleet(e.seed, "dev", e.sz.devices, e.sz.sample)
	p.fleets = []*fleet{fl}
	sw := &sweep{f: fl, group: e.sz.group, per: e.sz.ckptPer}
	p.cpu.start(d)
	start := time.Now()
	tl := rateTimeline{last: start}
	rounds := max(1, int(seconds.Seconds()*e.sz.ckptRate))
	sent, err := checkpointRounds(k, sw, e.sz.syncEvery, rounds, p, &tl)
	if err != nil {
		return err
	}
	p.elapsed = time.Since(start)
	p.cpu.stop()
	p.rates = tl.rates
	p.fixesPerS = float64(k.acked) / p.elapsed.Seconds()
	p.acked = k.acked
	e.readProbe(p, k, fl.maxT())
	return e.finish(p, d, []*conn{k}, sent, 0)
}

// checkpointRounds sends rounds whole sweeps, each followed by
// Sync(true). Within a round a Sync(false) follows every syncEvery
// frames, which keeps each shard queue below its depth (the server
// enqueues one batch per device), so no frame meets backpressure. With
// p set it records frame acks, generator waits and each round's time
// from its first frame to the durable ack.
func checkpointRounds(k *conn, sw *sweep, syncEvery, rounds int, p *phase, tl *rateTimeline) (uint64, error) {
	stop := make(chan struct{})
	frames := sw.produce(stop)
	defer drain(stop, frames)
	var sent uint64
	for r := 0; r < rounds; r++ {
		t0 := time.Now()
		for i, last := 0, false; !last; i++ {
			t := time.Now()
			fr := <-frames
			wait := time.Since(t)
			last = fr.last
			t = time.Now()
			if _, err := k.ingest(fr.batches); err != nil {
				return sent, fmt.Errorf("ingest: %w", err)
			}
			if p != nil {
				p.frameMs = append(p.frameMs, ms(time.Since(t)))
				p.lateMs = append(p.lateMs, ms(wait))
			}
			sent += fixesIn(fr.batches)
			sw.f.acked(fr.batches)
			if !last && (i+1)%syncEvery == 0 {
				if err := k.sync(false); err != nil {
					return sent, fmt.Errorf("sync: %w", err)
				}
			}
		}
		if err := k.sync(true); err != nil {
			return sent, fmt.Errorf("sync(flush): %w", err)
		}
		if p != nil {
			p.durableMs = append(p.durableMs, ms(time.Since(t0)))
			tl.add(time.Now(), k.acked)
		}
	}
	return sent, nil
}

// maxT is one past the newest timestamp any device has sent.
func (f *fleet) maxT() uint32 {
	var t uint32
	for _, w := range f.walkers {
		t = max(t, w.t)
	}
	return t
}

// mixedFlags are query_mixed's two workload flags: many sealed segments
// and a read cache between the repeated set and the history.
func (e *env) mixedFlags() []string {
	return []string{"-segbytes", fmt.Sprint(e.sz.segBytes), "-cache-mb", fmt.Sprint(e.sz.cacheMB)}
}

// preload writes query_mixed's history with checkpoint rounds through a
// bqsd of its own, checks it was all acknowledged, and stops that bqsd.
func preload(e *env, dir string) (*fleet, error) {
	d, c, _, err := startDaemon(e.bqsd, dir, e.logPath, e.mixedFlags()...)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	k := newConn(c, nil)
	defer k.close()
	fl := newFleet(e.seed, "dev", e.sz.devices, e.sz.sample)
	sw := &sweep{f: fl, group: e.sz.group, per: e.sz.histPer, gap: e.sz.histGap - uint32(e.sz.histPer)}
	sent, err := checkpointRounds(k, sw, e.sz.syncEvery, e.sz.histRounds, nil, nil)
	if err != nil {
		return nil, fmt.Errorf("preload: %w", err)
	}
	m, err := d.scrape()
	if err != nil {
		return nil, err
	}
	if k.acked != sent || m["bqs_ingest_fixes_total"] != float64(sent) {
		return nil, fmt.Errorf("preload: sent %d fixes, acked %d, server counted %v", sent, k.acked, m["bqs_ingest_fixes_total"])
	}
	if k.tally.Failed+k.tally.Resends+k.tally.Degraded > 0 {
		return nil, fmt.Errorf("preload: %+v", k.tally)
	}
	return fl, d.stop()
}

// query_mixed: bqsd restarted on a preloaded history; connection A runs
// closed-loop window queries while connection B writes open loop.
func runMixed(e *env, p *phase, seconds time.Duration, traced bool, hist *fleet, histDir string) error {
	p.histEnd = hist.maxT()
	d, c, err := e.launch(p, histDir, false, e.mixedFlags()...)
	if err != nil {
		return err
	}
	defer d.stop()
	m0, err := d.scrape()
	if err != nil {
		return err
	}
	epoch := time.Now()
	reader := newConn(c, p.tracer(traced, epoch))
	wc, err := d.dial()
	if err != nil {
		return err
	}
	writer := newConn(wc, p.tracer(traced, epoch))
	wf := newFleet(e.seed+1, "wr", e.sz.writers, e.sz.sample)
	wf.skip(p.histEnd + e.sz.histGap) // writer fixes are newer than all history
	p.fleets = []*fleet{hist, wf}

	p.cpu.start(d)
	start := time.Now()
	deadline := start.Add(seconds)
	var (
		wg      sync.WaitGroup
		sent    uint64
		werr    error
		welapse time.Duration
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		sw := &sweep{f: wf, group: e.sz.writers, per: e.sz.writerPer}
		tl := rateTimeline{last: start}
		defer func() { p.rates = tl.rates }()
		pending := 0
		for i := 0; ; i++ {
			due := start.Add(time.Duration(i) * e.sz.writerEvery)
			if !due.Before(deadline) {
				break
			}
			fr, _ := sw.frame()
			time.Sleep(time.Until(due))
			p.lateMs = append(p.lateMs, ms(time.Since(due)))
			if _, werr = writer.ingest(fr); werr != nil {
				return
			}
			p.frameMs = append(p.frameMs, ms(time.Since(due)))
			sent += fixesIn(fr)
			wf.acked(fr)
			tl.add(time.Now(), writer.acked)
			// The round's Sync(true) is due with its last frame: the
			// durable ack is timed from that frame's due time.
			if pending++; pending == e.sz.writerSync {
				if werr = writer.sync(true); werr != nil {
					return
				}
				p.durableMs = append(p.durableMs, ms(time.Since(due)))
				pending = 0
			}
		}
		if pending > 0 {
			t := time.Now()
			if werr = writer.sync(true); werr != nil {
				return
			}
			p.durableMs = append(p.durableMs, ms(time.Since(t)))
		}
		welapse = time.Since(start)
	}()

	gen := e.windows(p.histEnd)
	n := 0
	var qerr error
	qstart := time.Now()
	for ; qerr == nil && time.Now().Before(deadline); n++ {
		qerr = e.query(p, reader, gen.pick(n), n)
	}
	p.queriesPerS = float64(n) / time.Since(qstart).Seconds()
	wg.Wait()
	p.cpu.stop()
	if werr != nil {
		return fmt.Errorf("writer: %w", werr)
	}
	if qerr != nil {
		return fmt.Errorf("query: %w", qerr)
	}
	p.elapsed = welapse
	p.fixesPerS = float64(writer.acked) / welapse.Seconds()
	p.acked = writer.acked
	return e.finish(p, d, []*conn{reader, writer}, sent, m0["bqs_log_bytes"])
}

// querySet mixes repeated "dashboard" windows with one-off windows,
// alternately.
type querySet struct {
	dashboard []window
	oneOff    windowGen
}

func (e *env) windows(t1 uint32) *querySet {
	g := windowGen{rng: rand.New(rand.NewSource(e.seed ^ 0x9e3779b9)), t1: t1}
	q := &querySet{oneOff: g}
	for i := 0; i < e.sz.dashboard; i++ {
		q.dashboard = append(q.dashboard, g.draw())
	}
	return q
}

func (q *querySet) pick(i int) window {
	if i%2 == 0 {
		return q.dashboard[(i/2)%len(q.dashboard)]
	}
	return q.oneOff.draw()
}

// maxSampled caps the window answers kept for the brute-force check.
const maxSampled = 200

// query runs one timed window query and keeps every 5th answer for the
// brute-force check.
func (e *env) query(p *phase, k *conn, w window, i int) error {
	t := time.Now()
	recs, err := k.query(w)
	if err != nil {
		return err
	}
	p.queryMs = append(p.queryMs, ms(time.Since(t)))
	if i%5 == 0 && len(p.sampled) < maxSampled {
		p.sampled = append(p.sampled, answered{w, recs})
	}
	return nil
}

// readProbe runs closed-loop window queries over the data the ingest
// workloads just made durable.
func (e *env) readProbe(p *phase, k *conn, t1 uint32) {
	q := e.windows(t1)
	start := time.Now()
	n := 0
	for ; n < e.sz.probeQueries && (n < 50 || time.Since(start) < e.sz.probeTime); n++ {
		if err := e.query(p, k, q.pick(n), n); err != nil {
			p.fail("read probe query: %v", err)
			return
		}
	}
	p.queriesPerS = float64(n) / time.Since(start).Seconds()
}

// finish reads the server's counters and peak memory, runs the output
// checks, and stops bqsd. logBytes0 is bqs_log_bytes before the
// workload wrote.
func (e *env) finish(p *phase, d *daemon, conns []*conn, sent uint64, logBytes0 float64) error {
	for _, k := range conns {
		p.tally.add(k.tally)
	}
	m, err := d.scrape()
	if err != nil {
		return err
	}
	p.scrape = m
	if p.rssMiB, err = d.hwmMiB(); err != nil {
		return err
	}
	fixes := m["bqs_ingest_fixes_total"]
	if p.acked != sent || fixes != float64(sent) {
		p.fail("fix count: sent %d, acked %d, bqs_ingest_fixes_total %v", sent, p.acked, fixes)
	}
	p.bytesPerFix = (m["bqs_log_bytes"] - logBytes0) / float64(p.acked)
	p.kpPerFix = m["bqs_ingest_keypoints_total"] / float64(p.acked)

	// Read every durable record back by device — a path independent of
	// the window index — for both the bound and the window checks.
	c, err := d.dial()
	if err != nil {
		return err
	}
	defer c.Close()
	var all []record
	for _, fl := range p.fleets {
		for _, dev := range fl.names {
			recs, err := c.QueryTime(dev, 0, math.MaxUint32)
			if err != nil {
				return fmt.Errorf("read back %s: %w", dev, err)
			}
			all = append(all, recs...)
			if fl.sample[dev] {
				p.bound.add(checkBound(fl.sent[dev], recs, tolM))
			}
		}
	}
	if p.bound.Violations > 0 {
		p.fail("error bound: %d of %d sampled fixes farther than %g m + %g m from their durable segment (worst %.3f m)",
			p.bound.Violations, p.bound.Fixes, float64(tolM), quantM, p.bound.WorstM)
	}
	p.windows = len(p.sampled)
	if n, first := checkWindows(p.sampled, all); n > 0 {
		p.fail("window answers: %d of %d sampled differ from brute force; first: %s", n, p.windows, first)
	}
	p.spans = mergeSpans(p.tracers...)
	for _, k := range conns {
		k.close()
	}
	return d.stop()
}
