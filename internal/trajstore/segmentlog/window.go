// Spatio-temporal window queries over the durable log. QueryWindow is
// the cross-device counterpart of the per-device Query: it returns
// every record whose trajectory actually enters an axis-aligned window
// during a time range, pruning with three metadata tiers before
// touching any payload — per-segment summaries (the manifest-level
// bbox/time union of a whole file), an in-memory spatial cell index per
// segment (each record listed under the fixed grid cells its bbox
// covers, with a summary per run of runRecs entries of every cell list)
// and per-record bounding boxes (from the block index / v2 record
// headers). The bounding structures only ever prune:
// a candidate record is decoded and tested exactly, so indexed and
// fallback (pre-index, legacy v1) paths return identical results.
package segmentlog

import (
	"errors"
	"fmt"
	"io/fs"
	"math"
	"slices"

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
// for sealed segments — and one per run of runRecs entries of a cell
// list drives run-level pruning (see segRecords).
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

// The spatial cell index. Records are listed under every cell of a
// fixed grid that their quantized bbox covers; a window visits only the
// cells its own (conservatively widened) range touches. A checkpointed
// fleet appends records in device order, so consecutive records are
// scattered over the whole area and runs of them prune only by time;
// grouping by cell lets a window skip the rest of the area.
const (
	// cellShift sets the grid: a cell spans 2^cellShift quantized units
	// (1e-7°) on each axis — 0.0131072°, about 1.46 km of latitude.
	cellShift = 17
	// maxRecordCells caps how many cells one record is listed under; a
	// record whose bbox covers more goes on the segment's wide list,
	// which every window visits.
	maxRecordCells = 16
	// runRecs is the number of consecutive entries of a cell list one
	// run summary covers: the summaries cost under a byte per entry, and
	// a time-selective window still skips most of a busy cell in runs.
	runRecs = 64
)

// cellOf maps a quantized coordinate to its grid cell (flooring, so
// negative coordinates get cells of their own).
func cellOf(q int32) int32 { return q >> cellShift }

// cellKey packs a cell's coordinates into one map key.
func cellKey(cx, cy int32) uint64 { return uint64(uint32(cy))<<32 | uint64(uint32(cx)) }

// cellList is one list of the cell index: positions into the segment's
// metas, ascending, with sums[k] exactly the summary of the records at
// pos[k·runRecs : (k+1)·runRecs].
type cellList struct {
	cx, cy int32
	pos    []int32
	sums   []segSummary
}

// push appends record p, extending the last run or opening a new one.
func (c *cellList) push(p int32, m *recordMeta) {
	if len(c.pos)%runRecs == 0 {
		c.sums = append(c.sums, segSummary{})
	}
	c.pos = append(c.pos, p)
	c.sums[len(c.sums)-1].add(*m)
}

// segRecords is one segment's per-record metadata in file order
// together with its spatial cell index: lists[cells[cellKey(cx, cy)]]
// holds every record whose bbox covers cell (cx, cy), and wide every
// record listed under no cell (no bbox, or one covering more than
// maxRecordCells cells). Every change to a segment's records goes
// through add, truncate or set, so the index never goes stale. It is
// memory-only: derived from the metadata, never persisted. The zero
// value is an empty (or not yet loaded) segment.
type segRecords struct {
	metas []recordMeta
	cells map[uint64]int32 // cell key → index into lists
	lists []cellList       // occupied cells, in order of first use
	wide  cellList
}

// recordCells returns the cell range a record is listed under, or
// ok=false for a wide record.
func recordCells(m *recordMeta) (x0, y0, x1, y1 int32, ok bool) {
	if !m.hasBB {
		return 0, 0, 0, 0, false
	}
	x0, y0 = cellOf(m.bb.minLon), cellOf(m.bb.minLat)
	x1, y1 = cellOf(m.bb.maxLon), cellOf(m.bb.maxLat)
	if n := (int64(x1) - int64(x0) + 1) * (int64(y1) - int64(y0) + 1); n < 1 || n > maxRecordCells {
		return 0, 0, 0, 0, false
	}
	return x0, y0, x1, y1, true
}

// add appends one record and lists it in the index: O(cells covered).
func (r *segRecords) add(m recordMeta) {
	r.metas = append(r.metas, m)
	r.index(int32(len(r.metas) - 1))
}

// index lists record p under its cells, or on the wide list.
func (r *segRecords) index(p int32) {
	m := &r.metas[p]
	x0, y0, x1, y1, ok := recordCells(m)
	if !ok {
		r.wide.push(p, m)
		return
	}
	if r.cells == nil {
		r.cells = make(map[uint64]int32)
	}
	for cy := y0; cy <= y1; cy++ {
		for cx := x0; cx <= x1; cx++ {
			li, found := r.cells[cellKey(cx, cy)]
			if !found {
				li = int32(len(r.lists))
				r.cells[cellKey(cx, cy)] = li
				r.lists = append(r.lists, cellList{cx: cx, cy: cy})
			}
			r.lists[li].push(p, m)
		}
	}
}

// truncate keeps the first n records. It runs only when a failed fsync
// withdraws the at-risk tail, so it simply rebuilds the index.
func (r *segRecords) truncate(n int) {
	if n < len(r.metas) {
		r.set(r.metas[:n])
	}
}

// set replaces the records wholesale (a lazy segment's load) and
// indexes every one.
func (r *segRecords) set(metas []recordMeta) {
	*r = segRecords{metas: metas}
	for p := range metas {
		r.index(int32(p))
	}
}

// windowQuery is one window with its conservatively widened cell range.
type windowQuery struct {
	minX, minY, maxX, maxY float64
	t0, t1                 uint32
	// x0..x1 × y0..y1 is every cell a record intersecting the window
	// can be listed under.
	x0, y0, x1, y1 int32
}

// newWindowQuery widens the window by a quantum beyond its rounded
// bounds before mapping it to cells, so a record whose bbox passes
// bbox.intersects always shares a cell with the range.
func newWindowQuery(minX, minY, maxX, maxY float64, t0, t1 uint32) windowQuery {
	lo := func(v float64) int32 { return cellOf(clampQuant(math.Floor(v*1e7) - 1)) }
	hi := func(v float64) int32 { return cellOf(clampQuant(math.Ceil(v*1e7) + 1)) }
	return windowQuery{minX: minX, minY: minY, maxX: maxX, maxY: maxY, t0: t0, t1: t1,
		x0: lo(minX), y0: lo(minY), x1: hi(maxX), y1: hi(maxY)}
}

// clampQuant converts a quantized coordinate to int32, saturating
// (infinite and out-of-range window bounds included).
func clampQuant(v float64) int32 {
	return int32(max(math.MinInt32, min(math.MaxInt32, v)))
}

// candidates returns, in buf's storage, the positions of the records
// whose metadata cannot rule out the window, ascending, and how many
// records had their own metadata tested. It visits the wide list and
// the cells of the window's range — through the map, or by scanning the
// occupied cells when there are fewer of those. A record listed under
// several visited cells is tested only at its reference cell: the
// lowest of the cells it shares with the range, on each axis.
func (r *segRecords) candidates(buf []int32, q *windowQuery) (cands []int32, tested int) {
	cands = r.visit(buf[:0], &r.wide, false, q, &tested)
	if span := (int64(q.x1) - int64(q.x0) + 1) * (int64(q.y1) - int64(q.y0) + 1); span <= int64(len(r.lists)) {
		for cy := q.y0; cy <= q.y1; cy++ {
			for cx := q.x0; cx <= q.x1; cx++ {
				if li, ok := r.cells[cellKey(cx, cy)]; ok {
					cands = r.visit(cands, &r.lists[li], true, q, &tested)
				}
			}
		}
	} else {
		for li := range r.lists {
			if c := &r.lists[li]; c.cx >= q.x0 && c.cx <= q.x1 && c.cy >= q.y0 && c.cy <= q.y1 {
				cands = r.visit(cands, c, true, q, &tested)
			}
		}
	}
	slices.Sort(cands)
	return cands, tested
}

// visit runs the exact metadata test over the entries of one list whose
// run summary does not rule out the window — for a cell list (ref),
// only over the records whose reference cell this is — appending the
// survivors to cands and counting the tests in tested.
func (r *segRecords) visit(cands []int32, c *cellList, ref bool, q *windowQuery, tested *int) []int32 {
	for k := range c.sums {
		if c.sums[k].prunes(q.minX, q.minY, q.maxX, q.maxY, q.t0, q.t1) {
			continue
		}
		for _, p := range c.pos[k*runRecs : min((k+1)*runRecs, len(c.pos))] {
			m := &r.metas[p]
			if ref && (max(cellOf(m.bb.minLon), q.x0) != c.cx || max(cellOf(m.bb.minLat), q.y0) != c.cy) {
				continue
			}
			*tested++
			if m.t0 > q.t1 || m.t1 < q.t0 || (m.hasBB && !m.bb.intersects(q.minX, q.minY, q.maxX, q.maxY)) {
				continue
			}
			cands = append(cands, p)
		}
	}
	return cands
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
// The selectivity win of the indexes is RecordsDecoded versus the
// total record count a full scan would decode.
type WindowStats struct {
	Segments       int // segments in the snapshot
	SegmentsPruned int // skipped whole via segment summaries
	// RecordsIndexed counts the records of every segment that survived
	// segment pruning, whether the cell index or their own metadata
	// ruled them out.
	RecordsIndexed int
	// RecordsPruned counts the records of RecordsIndexed skipped without
	// a read: by the cell index or by their own bbox/time bounds.
	RecordsPruned int
	// RecordsCellPruned is the part of RecordsPruned the cell index
	// ruled out on its own: records listed under no cell the window
	// touches, or only in runs whose summary misses the window. Their
	// own metadata was never tested.
	RecordsCellPruned int
	RecordsDecoded    int // candidate records read and decoded from disk
	RecordsMatched    int // records returned
	CacheHits         int // candidate records served from the read cache (not decoded)
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
	q := newWindowQuery(minX, minY, maxX, maxY, t0, t1)
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
		pos, tested := recs.candidates(l.winPos, &q)
		l.winPos = pos
		ws.RecordsIndexed += len(recs.metas)
		ws.RecordsPruned += len(recs.metas) - len(pos)
		ws.RecordsCellPruned += len(recs.metas) - tested
		cands = slices.Grow(cands, len(pos))
		for _, p := range pos {
			m := &recs.metas[p]
			cands = append(cands, refSnap{seg: si, off: m.off, bodyLen: m.bodyLen})
		}
	}
	segs := make([]segSnap, len(l.segs))
	for i, s := range l.segs {
		segs[i] = segSnap{path: s.path, ver: s.ver}
	}
	return cands, segs, l.gen, ws, nil
}
