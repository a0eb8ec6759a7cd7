package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"github.com/trajcomp/bqs/internal/core"
	"github.com/trajcomp/bqs/internal/engine"
	"github.com/trajcomp/bqs/internal/proto"
	"github.com/trajcomp/bqs/internal/stream"
	"github.com/trajcomp/bqs/internal/trajstore"
	"github.com/trajcomp/bqs/internal/trajstore/segmentlog"
	"github.com/trajcomp/bqs/internal/trajstore/segmentlog/vfs"
)

// schedule is a workload's frame order and barrier policy, so the
// replay feeds the layers the frames the wire run sent, with the same
// Sync(false) and Sync(true) points.
type schedule struct {
	fl         *fleet
	group, per int
	gap        uint32
	syncEvery  int  // frames per Sync(false); 0 for none
	flushSweep bool // Sync(true) after every sweep over the fleet
	flushEvery int  // frames per Sync(true); 0 for none
}

func (e *env) schedule(workload string, histEnd uint32) schedule {
	switch workload {
	case "stream_ingest":
		return schedule{fl: newFleet(e.seed, "dev", e.sz.devices, 0), group: e.sz.group, per: e.sz.streamPer, syncEvery: e.sz.syncEvery}
	case "checkpoint_ingest":
		return schedule{fl: newFleet(e.seed, "dev", e.sz.devices, 0), group: e.sz.group, per: e.sz.ckptPer, syncEvery: e.sz.syncEvery, flushSweep: true}
	}
	wf := newFleet(e.seed+1, "wr", e.sz.writers, 0)
	wf.skip(histEnd + e.sz.histGap)
	return schedule{fl: wf, group: e.sz.writers, per: e.sz.writerPer, flushEvery: e.sz.writerSync}
}

// feed generates n frames in schedule order and calls the hooks at the
// barrier points the wire run hits, ending with a Sync(true).
func (s schedule) feed(n int, frame func([]proto.DeviceBatch) error, barrier func(flush bool) error) error {
	sw := &sweep{f: s.fl, group: s.group, per: s.per, gap: s.gap}
	pending := 0
	for i := 0; i < n; i++ {
		fr, last := sw.frame()
		if err := frame(fr); err != nil {
			return err
		}
		pending++
		switch {
		case s.flushSweep && last, s.flushEvery > 0 && pending == s.flushEvery:
			if err := barrier(true); err != nil {
				return err
			}
			pending = 0
		case s.syncEvery > 0 && (i+1)%s.syncEvery == 0:
			if err := barrier(false); err != nil {
				return err
			}
		}
	}
	if pending > 0 {
		return barrier(true)
	}
	return nil
}

// replayOut is what the in-process replay measured.
type replayOut struct {
	layers       map[string]*layerTime
	spans        []span
	fixes        int
	wireBytes    int
	segments     int // store inserts
	keys         int // key points encoded into trails
	records      int // trails appended
	logBytes     int64
	fsyncMs      []float64
	fsyncs       int
	openMs       float64
	queries      int
	respRecords  int
	ws           segmentlog.WindowStats
	syncMs       []float64
	flushMs      []float64
	tryNs        int64
	queueMax     int
	sessions     uint64
	liveSegments int
}

// rsess is the replay's per-device session, as the engine keeps one.
type rsess struct {
	comp  stream.Compressor
	shard int
	last  core.Point
	have  bool
	trail []core.Point
}

// pipeline calls each layer's public functions in the order bqsd
// composes them, one span per layer per frame.
type pipeline struct {
	tr     *tracer
	out    *replayOut
	shards int
	sess   map[string]*rsess
	stores []*trajstore.Store
	log    *segmentlog.ShardedLog
	syncs  *syncCounter // the log's file system
	buf    []byte
	pts    [][]core.Point
}

// syncCounter is the real file system with every File.Sync counted and
// timed — segment, manifest, index and directory syncs alike — so the
// replay reports the fsyncs the log issued, not the ones its schedule
// implies.
type syncCounter struct {
	vfs.FS
	n, ns atomic.Int64
}

type countedFile struct {
	vfs.File
	c *syncCounter
}

func (c *syncCounter) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return countedFile{f, c}, nil
}

func (c *syncCounter) Open(name string) (vfs.File, error) {
	f, err := c.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return countedFile{f, c}, nil
}

func (f countedFile) Sync() error {
	t := time.Now()
	err := f.File.Sync()
	f.c.ns.Add(int64(time.Since(t)))
	f.c.n.Add(1)
	return err
}

type emitted struct {
	s  *rsess
	kp core.Point
}

func (pl *pipeline) frame(req int64, fr []proto.DeviceBatch) error {
	tr := pl.tr
	root := tr.begin("replay.frame", -1, req)
	defer tr.end(root)

	s := tr.begin("proto.encode", root, req)
	payload, err := proto.AppendIngest(pl.buf[:0], proto.Ingest{Seq: uint64(req), Batches: fr})
	tr.end(s)
	if err != nil {
		return err
	}
	pl.buf = payload
	pl.out.wireBytes += len(payload) + 5 // length prefix and type byte

	s = tr.begin("proto.decode", root, req)
	m, err := proto.ParseIngest(payload)
	tr.end(s)
	if err != nil {
		return err
	}

	s = tr.begin("server.fixes", root, req)
	for len(pl.pts) < len(m.Batches) {
		pl.pts = append(pl.pts, nil)
	}
	for i, b := range m.Batches {
		ps := pl.pts[i][:0]
		for _, k := range b.Keys {
			ps = append(ps, core.Point{X: k.Lon * mPerDeg, Y: k.Lat * mPerDeg, T: float64(k.T)})
		}
		pl.pts[i] = ps
		pl.out.fixes += len(ps)
	}
	tr.end(s)

	s = tr.begin("trajstore.shardindex", root, req)
	shard := make([]int, len(m.Batches))
	for i, b := range m.Batches {
		shard[i] = trajstore.ShardIndex(b.Device, pl.shards)
	}
	tr.end(s)

	s = tr.begin("engine.session", root, req)
	ss := make([]*rsess, len(m.Batches))
	for i, b := range m.Batches {
		if ss[i] = pl.sess[b.Device]; ss[i] == nil {
			comp, err := stream.New("fbqs", tolM)
			if err != nil {
				tr.end(s)
				return err
			}
			ss[i] = &rsess{comp: comp, shard: shard[i]}
			pl.sess[b.Device] = ss[i]
		}
	}
	tr.end(s)

	s = tr.begin("core.push", root, req)
	var em []emitted
	for i := range m.Batches {
		for _, p := range pl.pts[i] {
			if kp, ok := ss[i].comp.Push(p); ok {
				em = append(em, emitted{ss[i], kp})
			}
		}
	}
	tr.end(s)

	s = tr.begin("trajstore.insert", root, req)
	for _, x := range em {
		pl.insert(x.s, x.kp)
	}
	tr.end(s)
	return nil
}

func (pl *pipeline) insert(s *rsess, kp core.Point) {
	if s.have {
		pl.stores[s.shard].Insert(s.last, kp)
		pl.out.segments++
	}
	s.last, s.have = kp, true
	s.trail = append(s.trail, kp)
}

// barrier is Sync: Sync(true) first finalizes every session — flush,
// trail encode, append — then both fsync the log.
func (pl *pipeline) barrier(req int64, flush bool) error {
	tr := pl.tr
	root := tr.begin("replay.barrier", -1, req)
	defer tr.end(root)
	if flush {
		devs := make([]string, 0, len(pl.sess))
		for d := range pl.sess {
			devs = append(devs, d)
		}
		sort.Strings(devs)
		s := tr.begin("core.flush", root, req)
		for _, d := range devs {
			ss := pl.sess[d]
			for _, kp := range stream.FlushAll(ss.comp) {
				pl.insert(ss, kp)
			}
		}
		tr.end(s)
		s = tr.begin("trajstore.geo", root, req)
		geos := make([][]trajstore.GeoKey, len(devs))
		for i, d := range devs {
			geos[i] = trajstore.PointKeysToGeo(pl.sess[d].trail, mPerDeg, mPerDeg)
			pl.out.keys += len(geos[i])
		}
		tr.end(s)
		// Append encodes each trail itself; this span times that encode
		// on its own and stays out of the ingest span sum.
		s = tr.begin("trajstore.encode", root, req)
		for _, g := range geos {
			if _, err := trajstore.DeltaEncode(g); err != nil {
				tr.end(s)
				return err
			}
		}
		tr.end(s)
		s = tr.begin("segmentlog.append", root, req)
		for i, d := range devs {
			if len(geos[i]) == 0 {
				continue
			}
			if err := pl.log.Append(d, geos[i]); err != nil {
				tr.end(s)
				return err
			}
			pl.out.records++
		}
		tr.end(s)
		pl.sess = map[string]*rsess{}
	}
	s := tr.begin("segmentlog.fsync", root, req)
	ns0 := pl.syncs.ns.Load()
	err := pl.log.Sync()
	pl.out.fsyncMs = append(pl.out.fsyncMs, float64(pl.syncs.ns.Load()-ns0)/1e6)
	tr.end(s)
	return err
}

// query is one window query as bqsd answers it: the log's window
// search, then the response encode.
func (pl *pipeline) query(req int64, lg *segmentlog.ShardedLog, w window) error {
	tr := pl.tr
	root := tr.begin("replay.query", -1, req)
	defer tr.end(root)
	s := tr.begin("segmentlog.query", root, req)
	recs, ws, err := lg.QueryWindowStats(w.minLon, w.minLat, w.maxLon, w.maxLat, w.t0, w.t1)
	tr.end(s)
	if err != nil {
		return err
	}
	o := &pl.out.ws
	o.Segments += ws.Segments
	o.SegmentsPruned += ws.SegmentsPruned
	o.RecordsIndexed += ws.RecordsIndexed
	o.RecordsPruned += ws.RecordsPruned
	o.RecordsDecoded += ws.RecordsDecoded
	o.RecordsMatched += ws.RecordsMatched
	o.CacheHits += ws.CacheHits
	s = tr.begin("proto.resp_encode", root, req)
	pl.buf, err = proto.AppendQueryResp(pl.buf[:0], proto.QueryResp{Seq: uint64(req), Records: recs})
	tr.end(s)
	pl.out.queries++
	pl.out.respRecords += len(recs)
	return err
}

// replay feeds sz.replayFrames frames of the workload's own inputs
// through the layers in-process, then sz.replayQuery window queries:
// against a reopened copy of the replay's log, or for query_mixed
// against the history bqsd served (queryDir). A second pass runs the
// same frames through an in-process engine for its handoff and barrier
// costs.
func (e *env) replay(workload string, shards int, histEnd uint32, queryDir string) (*replayOut, error) {
	out := &replayOut{}
	tr := newTracer(time.Now())
	logOpts := segmentlog.Options{}
	if workload == "query_mixed" {
		logOpts = segmentlog.Options{MaxSegmentBytes: int64(e.sz.segBytes), CacheBytes: int64(e.sz.cacheMB) << 20}
	}
	dir := filepath.Join(e.work, "replay-log")
	syncs := &syncCounter{FS: vfs.OS}
	ingestOpts := logOpts
	ingestOpts.FS = syncs
	lg, err := segmentlog.OpenSharded(dir, shards, ingestOpts)
	if err != nil {
		return nil, err
	}
	pl := &pipeline{tr: tr, out: out, shards: shards, sess: map[string]*rsess{}, log: lg, syncs: syncs}
	for i := 0; i < shards; i++ {
		st, err := trajstore.NewStore(trajstore.Config{}) // the engine's store config under bqsd
		if err != nil {
			return nil, errors.Join(err, lg.Close())
		}
		pl.stores = append(pl.stores, st)
	}
	var req int64
	sch := e.schedule(workload, histEnd)
	err = sch.feed(e.sz.replayFrames,
		func(fr []proto.DeviceBatch) error { req++; return pl.frame(req, fr) },
		func(flush bool) error { req++; return pl.barrier(req, flush) })
	out.logBytes = lg.Stats().Bytes
	out.fsyncs = int(syncs.n.Load()) // from the open through the last barrier
	if err = errors.Join(err, lg.Close()); err != nil {
		return nil, fmt.Errorf("replay ingest: %w", err)
	}

	t1 := sch.fl.maxT()
	if workload == "query_mixed" {
		dir, t1 = queryDir, histEnd
	}
	t := time.Now()
	s := tr.begin("segmentlog.open", -1, req)
	qlog, err := segmentlog.OpenSharded(dir, 0, logOpts)
	tr.end(s)
	out.openMs = ms(time.Since(t))
	if err != nil {
		return nil, fmt.Errorf("replay open: %w", err)
	}
	q := e.windows(t1)
	for i := 0; i < e.sz.replayQuery && err == nil; i++ {
		req++
		err = pl.query(req, qlog, q.pick(i))
	}
	if err = errors.Join(err, qlog.Close()); err != nil {
		return nil, fmt.Errorf("replay query: %w", err)
	}
	for _, st := range pl.stores {
		out.liveSegments += st.Len()
	}
	if err := e.replayEngine(workload, shards, histEnd, tr, out); err != nil {
		return nil, err
	}
	out.spans = tr.spans
	out.layers = selfTimes(tr.spans)
	return out, nil
}

// replayEngine runs the same frames through engine.Engine.TryIngest per
// device batch, as the server does, with Sync and FlushSessions at the
// workload's barriers and a segment log of its own as persister.
func (e *env) replayEngine(workload string, shards int, histEnd uint32, tr *tracer, out *replayOut) error {
	lg, err := segmentlog.OpenSharded(filepath.Join(e.work, "replay-engine"), shards, segmentlog.Options{})
	if err != nil {
		return err
	}
	eng, err := engine.New(engine.Config{Tolerance: tolM, Shards: lg.NumShards(), Persister: lg})
	if err != nil {
		return errors.Join(err, lg.Close())
	}
	var fixes []engine.Fix
	var req int64
	err = e.schedule(workload, histEnd).feed(e.sz.replayFrames,
		func(fr []proto.DeviceBatch) error {
			req++
			for _, b := range fr {
				fixes = fixes[:0]
				for _, k := range b.Keys {
					fixes = append(fixes, engine.Fix{Device: b.Device, Point: core.Point{X: k.Lon * mPerDeg, Y: k.Lat * mPerDeg, T: float64(k.T)}})
				}
				for {
					s := tr.begin("engine.tryingest", -1, req)
					t := time.Now()
					_, err := eng.TryIngest(fixes)
					out.tryNs += int64(time.Since(t))
					tr.end(s)
					for _, l := range eng.QueueStats().Len {
						out.queueMax = max(out.queueMax, l)
					}
					if !errors.Is(err, engine.ErrBackpressure) {
						if err != nil {
							return err
						}
						break
					}
					time.Sleep(time.Millisecond) // the queue drains; resend as a client would
				}
			}
			return nil
		},
		func(flush bool) error {
			req++
			if flush {
				s := tr.begin("engine.flush", -1, req)
				t := time.Now()
				err := eng.FlushSessions()
				out.flushMs = append(out.flushMs, ms(time.Since(t)))
				tr.end(s)
				if err != nil {
					return err
				}
			}
			s := tr.begin("engine.sync", -1, req)
			t := time.Now()
			err := eng.Sync()
			out.syncMs = append(out.syncMs, ms(time.Since(t)))
			tr.end(s)
			return err
		})
	st := eng.Stats()
	out.sessions = st.SessionsOpened
	return errors.Join(err, eng.Close())
}
