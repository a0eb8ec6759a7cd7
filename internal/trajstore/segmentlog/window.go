// Spatio-temporal window queries over the durable log. QueryWindow is
// the cross-device counterpart of the per-device Query: it returns
// every record whose trajectory actually enters an axis-aligned window
// during a time range, pruning with three metadata tiers before
// touching any payload — per-segment summaries (the manifest-level
// bbox/time union of a whole file), in-memory block summaries (the same
// union over each run of blockRecs consecutive records) and per-record
// bounding boxes (from the block index / v2 record headers). The
// bounding structures only ever prune:
// a candidate record is decoded and tested exactly, so indexed and
// fallback (pre-index, legacy v1) paths return identical results.
package segmentlog

import (
	"errors"
	"fmt"
	"io/fs"
	"math"

	"github.com/trajcomp/bqs/internal/trajstore"
)

// bbox is a spatial bounding box in the wire format's 1e-7-degree
// integer coordinates: the same quantization DeltaEncode applies, so a
// record's box bounds its decoded key points exactly.
type bbox struct {
	minLat, minLon, maxLat, maxLon int32
}

// emptyBBox is the identity for union: add any point to it.
func emptyBBox() bbox {
	return bbox{minLat: math.MaxInt32, minLon: math.MaxInt32, maxLat: math.MinInt32, maxLon: math.MinInt32}
}

// add grows the box to cover one quantized point.
func (b *bbox) add(lat, lon int32) {
	if lat < b.minLat {
		b.minLat = lat
	}
	if lat > b.maxLat {
		b.maxLat = lat
	}
	if lon < b.minLon {
		b.minLon = lon
	}
	if lon > b.maxLon {
		b.maxLon = lon
	}
}

// union grows the box to cover o.
func (b *bbox) union(o bbox) {
	b.add(o.minLat, o.minLon)
	b.add(o.maxLat, o.maxLon)
}

// intersects reports whether the box overlaps the degree-coordinate
// window [minX, maxX] × [minY, maxY] (X longitude, Y latitude),
// boundaries inclusive — matching trajstore's geom.Box.Intersects.
func (b bbox) intersects(minX, minY, maxX, maxY float64) bool {
	return float64(b.minLon)/1e7 <= maxX && float64(b.maxLon)/1e7 >= minX &&
		float64(b.minLat)/1e7 <= maxY && float64(b.maxLat)/1e7 >= minY
}

// quantizeCoord maps a degree coordinate to the wire format's 1e-7°
// integer, with exactly the rounding DeltaEncode applies.
func quantizeCoord(v float64) int32 { return int32(math.Round(v * 1e7)) }

// keysBBox computes the quantized bounding box of a trajectory. The
// keys must already be range-validated (DeltaEncode does).
func keysBBox(keys []trajstore.GeoKey) bbox {
	bb := emptyBBox()
	for _, k := range keys {
		bb.add(quantizeCoord(k.Lat), quantizeCoord(k.Lon))
	}
	return bb
}

// segSummary is the metadata union of a run of records: the time
// bounds and bounding box of every record in it. One per segment drives
// segment-level pruning — maintained incrementally on append, rebuilt
// from the block index or scan on Open, and published in the MANIFEST
// for sealed segments — and one per block of blockRecs records drives
// block-level pruning (see segRecords).
type segSummary struct {
	records int
	t0, t1  uint32 // union of record time bounds; valid when records > 0
	bb      bbox   // union of record bboxes; usable only when bbAll
	bbAll   bool   // every record carries a bbox (false for legacy v1 data)
}

// add folds one record's metadata into the summary.
func (s *segSummary) add(m recordMeta) {
	if s.records == 0 {
		s.t0, s.t1 = m.t0, m.t1
		s.bb = emptyBBox()
		s.bbAll = true
	} else {
		if m.t0 < s.t0 {
			s.t0 = m.t0
		}
		if m.t1 > s.t1 {
			s.t1 = m.t1
		}
	}
	if m.hasBB {
		s.bb.union(m.bb)
	} else {
		s.bbAll = false
	}
	s.records++
}

// summarize folds a run of record metadata into its summary.
func summarize(metas []recordMeta) segSummary {
	var sum segSummary
	for _, m := range metas {
		sum.add(m)
	}
	return sum
}

// blockRecs is the number of consecutive records one block summary
// covers: large enough that the summaries cost under a byte per record,
// small enough that a time- or space-selective window skips most of a
// large segment in runs.
const blockRecs = 64

// segRecords is one segment's per-record metadata in file order
// together with its block summaries: blocks[b] is exactly the summary
// of metas[b·blockRecs : (b+1)·blockRecs]. Every change to a segment's
// records goes through add, truncate or set, so the summaries never go
// stale. They are memory-only: derived from the metadata, never
// persisted. The zero value is an empty (or not yet loaded) segment.
type segRecords struct {
	metas  []recordMeta
	blocks []segSummary
}

// add appends one record, extending the last block or opening a new
// one: O(1).
func (r *segRecords) add(m recordMeta) {
	if len(r.metas)%blockRecs == 0 {
		r.blocks = append(r.blocks, segSummary{})
	}
	r.metas = append(r.metas, m)
	r.blocks[len(r.blocks)-1].add(m)
}

// truncate keeps the first n records; a block the cut splits is
// re-summarized from its surviving records.
func (r *segRecords) truncate(n int) {
	r.metas = r.metas[:n]
	r.blocks = r.blocks[:(n+blockRecs-1)/blockRecs]
	if tail := n % blockRecs; tail != 0 {
		r.blocks[len(r.blocks)-1] = summarize(r.metas[n-tail:])
	}
}

// set replaces the records wholesale (a lazy segment's load) and
// summarizes every block.
func (r *segRecords) set(metas []recordMeta) {
	r.metas = metas
	r.blocks = make([]segSummary, 0, (len(metas)+blockRecs-1)/blockRecs)
	for lo := 0; lo < len(metas); lo += blockRecs {
		r.blocks = append(r.blocks, summarize(metas[lo:min(lo+blockRecs, len(metas))]))
	}
}

// prunes reports whether the summary rules out every record it covers
// for the window: all fall outside the time range, or all carry a box
// and their union misses the area.
func (s *segSummary) prunes(minX, minY, maxX, maxY float64, t0, t1 uint32) bool {
	return s.records == 0 || s.t0 > t1 || s.t1 < t0 ||
		(s.bbAll && !s.bb.intersects(minX, minY, maxX, maxY))
}

// WindowStats reports how a window query was answered: how much the
// three pruning tiers saved and how many records had to be decoded.
// The selectivity win of the block index is RecordsDecoded versus the
// total record count a full scan would decode.
type WindowStats struct {
	Segments       int // segments in the snapshot
	SegmentsPruned int // skipped whole via segment summaries
	// RecordsIndexed counts the records of every segment that survived
	// segment pruning, whether their block summary or their own
	// metadata ruled them out.
	RecordsIndexed int
	// RecordsPruned counts the records of RecordsIndexed skipped without
	// a read: by their block summary or their own bbox/time bounds.
	RecordsPruned int
	// RecordsBlockPruned is the part of RecordsPruned skipped whole with
	// their block of blockRecs records; their own metadata was never
	// examined.
	RecordsBlockPruned int
	RecordsDecoded     int // candidate records read and decoded from disk
	RecordsMatched     int // records returned
	CacheHits          int // candidate records served from the read cache (not decoded)
}

// windowMatch is the exact predicate: the polyline has at least one
// consecutive key-point pair whose bounding box intersects the window
// and whose time span overlaps [t0, t1] — the same per-segment test
// the in-memory trajstore ground truth (Query ∩ QueryTime) applies.
// Records with fewer than two keys never match.
func windowMatch(keys []trajstore.GeoKey, minX, minY, maxX, maxY float64, t0, t1 uint32) bool {
	for i := 0; i+1 < len(keys); i++ {
		a, b := &keys[i], &keys[i+1]
		loX, hiX := a.Lon, b.Lon
		if loX > hiX {
			loX, hiX = hiX, loX
		}
		if loX > maxX || hiX < minX {
			continue
		}
		loY, hiY := a.Lat, b.Lat
		if loY > hiY {
			loY, hiY = hiY, loY
		}
		if loY > maxY || hiY < minY {
			continue
		}
		loT, hiT := a.T, b.T
		if loT > hiT {
			loT, hiT = hiT, loT
		}
		if loT > t1 || hiT < t0 {
			continue
		}
		return true
	}
	return false
}

// QueryWindow returns the decoded records — across all devices, in log
// order — that enter the window [minX, maxX] × [minY, maxY] (degrees:
// X longitude, Y latitude) during [t0, t1]: records with at least one
// consecutive key-point pair whose bounding box intersects the window
// and whose time span overlaps the range. Segment summaries, block
// summaries and per-record bounding boxes prune the candidate set;
// candidates are decoded and tested exactly, so legacy (pre-index)
// segments answer identically through the decode-everything fallback.
// Like Query, a call racing a concurrent compaction transparently
// retries against the newly published generation.
func (l *Log) QueryWindow(minX, minY, maxX, maxY float64, t0, t1 uint32) ([]Record, error) {
	recs, _, err := l.QueryWindowStats(minX, minY, maxX, maxY, t0, t1)
	return recs, err
}

// QueryWindowStats is QueryWindow plus pruning statistics.
func (l *Log) QueryWindowStats(minX, minY, maxX, maxY float64, t0, t1 uint32) ([]Record, WindowStats, error) {
	if math.IsNaN(minX) || math.IsNaN(minY) || math.IsNaN(maxX) || math.IsNaN(maxY) {
		return nil, WindowStats{}, errors.New("segmentlog: window bounds must not be NaN")
	}
	if minX > maxX || minY > maxY || t0 > t1 {
		return nil, WindowStats{}, fmt.Errorf("segmentlog: inverted window [%g,%g]×[%g,%g] t[%d,%d]", minX, maxX, minY, maxY, t0, t1)
	}
	for attempt := 0; ; attempt++ {
		out, ws, retry, err := l.queryWindowOnce(minX, minY, maxX, maxY, t0, t1)
		if err != nil && retry && attempt < 4 {
			continue
		}
		if err != nil && retry && l.ro {
			return out, ws, fmt.Errorf("segmentlog: log rewritten by a concurrent compaction; reopen to read the new generation: %w", err)
		}
		return out, ws, err
	}
}

// queryWindowOnce is one snapshot-prune-decode pass; retry is true when
// a segment file vanished under a concurrent compaction.
func (l *Log) queryWindowOnce(minX, minY, maxX, maxY float64, t0, t1 uint32) (out []Record, ws WindowStats, retry bool, err error) {
	cands, segs, gen, ws, err := l.snapshotWindow(minX, minY, maxX, maxY, t0, t1)
	if err != nil {
		return nil, ws, false, err
	}
	files := newSegReader(l.fs, segs)
	defer files.close()
	for _, ref := range cands {
		rec, hit := l.cacheGet(gen, segs[ref.seg].path, ref.off)
		if hit {
			ws.CacheHits++
		} else {
			body, err := files.readRecord(ref)
			if err != nil {
				return nil, ws, errors.Is(err, fs.ErrNotExist), err
			}
			dev, rt0, rt1, _, _, payload, err := splitBody(body, segs[ref.seg].ver)
			if err != nil {
				return nil, ws, false, fmt.Errorf("segmentlog: indexed record unreadable: %w", err)
			}
			keys, err := trajstore.DeltaDecode(payload)
			if err != nil {
				return nil, ws, false, fmt.Errorf("segmentlog: %w", err)
			}
			ws.RecordsDecoded++
			rec = Record{Device: dev, T0: rt0, T1: rt1, Keys: keys}
			// Candidates that fail the exact test below are cached too:
			// they survived the metadata pruning, so the same window (or a
			// neighboring one) will keep re-reading them.
			l.cachePut(gen, segs[ref.seg].path, ref.off, rec)
		}
		if !windowMatch(rec.Keys, minX, minY, maxX, maxY, t0, t1) {
			continue
		}
		ws.RecordsMatched++
		out = append(out, rec)
	}
	return out, ws, false, nil
}

// snapshotWindow collects, under the lock, the candidate records whose
// metadata cannot rule out a window match, flushing pending writes
// first so disk reads observe every indexed record. Candidates come
// back in (segment, offset) order — log order. gen is the manifest
// generation the snapshot belongs to — the cache epoch of every
// candidate returned.
func (l *Log) snapshotWindow(minX, minY, maxX, maxY float64, t0, t1 uint32) ([]refSnap, []segSnap, uint64, WindowStats, error) {
	var ws WindowStats
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, nil, 0, ws, ErrClosed
	}
	// A flush failure poisons the active segment and withdraws the
	// at-risk records from the index, leaving it consistent — window
	// queries keep answering from the durable prefix (see snapshotRefs).
	if err := l.flushLocked(); err != nil && !l.poisoned {
		return nil, nil, 0, ws, err
	}
	var cands []refSnap
	ws.Segments = len(l.segs)
	for si := range l.segs {
		if l.segs[si].sum.prunes(minX, minY, maxX, maxY, t0, t1) {
			ws.SegmentsPruned++
			continue
		}
		// Deferred segments carry their manifest summary, so the prune
		// above worked without touching disk; only a segment the window
		// might actually hit pays its load here.
		if err := l.ensureSegLoadedLocked(si); err != nil {
			return nil, nil, 0, ws, err
		}
		recs := &l.segRecs[si]
		for bi := range recs.blocks {
			lo := bi * blockRecs
			metas := recs.metas[lo:min(lo+blockRecs, len(recs.metas))]
			ws.RecordsIndexed += len(metas)
			if recs.blocks[bi].prunes(minX, minY, maxX, maxY, t0, t1) {
				ws.RecordsPruned += len(metas)
				ws.RecordsBlockPruned += len(metas)
				continue
			}
			for pi := range metas {
				m := &metas[pi]
				if m.t0 > t1 || m.t1 < t0 || (m.hasBB && !m.bb.intersects(minX, minY, maxX, maxY)) {
					ws.RecordsPruned++
					continue
				}
				cands = append(cands, refSnap{seg: si, off: m.off, bodyLen: m.bodyLen})
			}
		}
	}
	segs := make([]segSnap, len(l.segs))
	for i, s := range l.segs {
		segs[i] = segSnap{path: s.path, ver: s.ver}
	}
	return cands, segs, l.gen, ws, nil
}
