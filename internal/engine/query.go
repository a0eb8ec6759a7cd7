// Spatio-temporal window queries over the engine's storage. A durable
// engine answers from the memtable (unpersisted session trails and
// parked trails) plus the segment log; a non-persisting engine answers
// from its in-memory shard stores.
package engine

import (
	"errors"
	"fmt"

	"github.com/trajcomp/bqs/internal/core"
	"github.com/trajcomp/bqs/internal/trajstore"
)

// ErrPartialResult reports that QueryWindow could answer from the
// memtable but not from the durable log: the returned segments are the
// in-memory side only, and persisted history (from before a restart,
// or of already-flushed sessions) is missing. Errors carrying it (match
// with errors.Is) wrap the durable side's failure. Callers wanting
// fail-fast semantics treat it as any other error; callers serving
// best-effort dashboards may use the partial slice knowingly.
var ErrPartialResult = errors.New("engine: partial window result (live data only; durable side failed)")

// geoPoint maps a persisted key back into the projected metric plane.
func geoPoint(k trajstore.GeoKey, m float64) core.Point {
	return core.Point{X: k.Lon * m, Y: k.Lat * m, T: float64(k.T)}
}

// window is a metric-plane query window: a box plus a time range.
type window struct {
	minX, minY, maxX, maxY, t0, t1 float64
}

// hits is the in-memory ground-truth predicate applied to one
// metric-plane segment: bounding boxes intersect (boundaries inclusive,
// matching geom.Box.Intersects) and the time spans overlap.
func (w window) hits(a, b core.Point) bool {
	loX, hiX := min(a.X, b.X), max(a.X, b.X)
	loY, hiY := min(a.Y, b.Y), max(a.Y, b.Y)
	loT, hiT := min(a.T, b.T), max(a.T, b.T)
	return loX <= w.maxX && hiX >= w.minX && loY <= w.maxY && hiY >= w.minY && loT <= w.t1 && hiT >= w.t0
}

// appendPair appends segment (a, b) to out when it lies in the window.
func (w window) appendPair(out []trajstore.Segment, a, b core.Point) []trajstore.Segment {
	if !w.hits(a, b) {
		return out
	}
	return append(out, trajstore.Segment{A: a, B: b, Weight: 1, FirstT: a.T, LastT: b.T})
}

// appendGeo appends every in-window consecutive pair of a persisted
// (or parked) trail.
func (w window) appendGeo(out []trajstore.Segment, keys []trajstore.GeoKey, m float64) []trajstore.Segment {
	for i := 0; i+1 < len(keys); i++ {
		out = w.appendPair(out, geoPoint(keys[i], m), geoPoint(keys[i+1], m))
	}
	return out
}

// memtableWindow appends the shard's in-window memtable pairs: the
// consecutive pairs of every session's unpersisted trail and of every
// parked trail. The caller holds sh.mu.
func (sh *shard) memtableWindow(out []trajstore.Segment, w window) []trajstore.Segment {
	for _, s := range sh.sessions {
		for i := 0; i+1 < len(s.keys); i++ {
			out = w.appendPair(out, s.keys[i], s.keys[i+1])
		}
	}
	for _, p := range sh.parked {
		out = w.appendGeo(out, p.keys, sh.eng.mPerDegree)
	}
	return out
}

// QueryWindow answers a spatio-temporal window query in the projected
// metric plane: every stored trajectory segment whose bounding box
// intersects [minX, maxX] × [minY, maxY] and whose observation time
// overlaps [t0, t1].
//
// A non-persisting engine answers from its shard stores. A durable
// engine answers from the disjoint union of its memtable and its log:
//
//   - Memtable xor log. Every key-point pair is either in the memtable
//     (a session's unpersisted trail, or a trail parked by degraded
//     mode) or in the log, never both: a shard worker removes a trail
//     from the memtable in the same critical section in which the
//     persister's Append for it succeeds.
//   - Lock order shard → log. QueryWindow holds every shard's lock
//     while it reads the memtable and then the log, so no trail can
//     move between the two reads; shard workers likewise hold their
//     shard lock around Append. Nothing takes a shard lock while
//     holding a log lock.
//   - Multiset contract. Each pair is reported once per time it was
//     ingested — a device that travels the same path twice is reported
//     twice, exactly as the wire QueryWindow's records would show it.
//     Memtable pairs keep metric-plane precision; log pairs come back
//     at wire resolution (1e-7°, whole seconds). All segments carry
//     ID 0 and Weight 1.
//
// Like Stats, the snapshot is not a barrier: fixes still queued for a
// shard worker are invisible until processed. Call Sync first for a
// quiescent view.
//
// When the durable side fails, the error matches ErrPartialResult
// (wrapping the underlying failure) and the returned slice holds the
// memtable's answer only — a documented partial view, not a silent one.
func (e *Engine) QueryWindow(minX, minY, maxX, maxY float64, t0, t1 uint32) ([]trajstore.Segment, error) {
	// Register in compactWG under the same lock the closed check reads,
	// exactly like CompactNow/Heal: Close waits on compactWG before
	// ClosePersist, so an admitted query can never race the persister's
	// teardown and report a spurious partial result against itself.
	e.mu.RLock()
	if e.closed {
		e.mu.RUnlock()
		return nil, ErrClosed
	}
	e.compactWG.Add(1)
	e.mu.RUnlock()
	defer e.compactWG.Done()

	w := window{minX, minY, maxX, maxY, float64(t0), float64(t1)}
	if !e.persisting {
		return e.stores.QueryWindow(minX, minY, maxX, maxY, w.t0, w.t1), nil
	}
	for _, sh := range e.shards {
		sh.mu.Lock()
	}
	defer func() {
		for _, sh := range e.shards {
			sh.mu.Unlock()
		}
	}()
	var out []trajstore.Segment
	for _, sh := range e.shards {
		out = sh.memtableWindow(out, w)
	}
	m := e.mPerDegree
	durable, _, err := e.stores.QueryWindowPersist(minX/m, minY/m, maxX/m, maxY/m, t0, t1)
	if err != nil {
		return out, fmt.Errorf("%w: %w", ErrPartialResult, err)
	}
	for _, rec := range durable {
		out = w.appendGeo(out, rec.Keys, m)
	}
	return out, nil
}
