package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"github.com/trajcomp/bqs/internal/trajstore"
)

// quantM is the wire format's quantization slack: key points are stored
// on a 1e-7° grid, 1 cm at bqsd's 1e5 m/°.
const quantM = 0.01

type record = trajstore.PersistedRecord

// boundResult is the error-bound check over one set of devices.
type boundResult struct {
	Fixes      int     `json:"fixes"`
	Violations int     `json:"violations"` // fixes farther than tol+quantM from their segment, or on no segment
	WorstM     float64 `json:"worst_m"`
}

func (b *boundResult) add(o boundResult) {
	b.Fixes += o.Fixes
	b.Violations += o.Violations
	b.WorstM = math.Max(b.WorstM, o.WorstM)
}

type seg struct{ a, b trajstore.GeoKey }

// checkBound checks one device's acknowledged raw fixes against the
// durable polyline read back for it. A fix at time t must lie within
// tol + quantM (perpendicular distance, metres in bqsd's plane) of the
// line through the key-point pair whose time span encloses t; a fix no
// durable pair encloses is a violation (a lost fix).
func checkBound(sent []trajstore.GeoKey, recs []record, tol float64) boundResult {
	var segs []seg
	for _, r := range recs {
		for i := 0; i+1 < len(r.Keys); i++ {
			segs = append(segs, seg{r.Keys[i], r.Keys[i+1]})
		}
		if len(r.Keys) == 1 {
			segs = append(segs, seg{r.Keys[0], r.Keys[0]})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].a.T < segs[j].a.T })
	res := boundResult{Fixes: len(sent)}
	for _, p := range sent {
		// Segments starting at or before p.T; pairs are time-ordered and
		// only touch at shared key points, so the enclosing pair is the
		// last of them or its predecessor.
		j := sort.Search(len(segs), func(i int) bool { return segs[i].a.T > p.T }) - 1
		best := math.Inf(1)
		for i := j; i >= 0 && i >= j-2; i-- {
			if segs[i].a.T <= p.T && p.T <= segs[i].b.T {
				best = math.Min(best, lineDist(p, segs[i].a, segs[i].b))
			}
		}
		if best > tol+quantM {
			res.Violations++
		}
		if !math.IsInf(best, 1) {
			res.WorstM = math.Max(res.WorstM, best)
		}
	}
	return res
}

// lineDist is p's perpendicular distance in metres from the line
// through a and b (from a when they coincide).
func lineDist(p, a, b trajstore.GeoKey) float64 {
	px, py := p.Lon*mPerDeg, p.Lat*mPerDeg
	ax, ay := a.Lon*mPerDeg, a.Lat*mPerDeg
	dx, dy := b.Lon*mPerDeg-ax, b.Lat*mPerDeg-ay
	l := math.Hypot(dx, dy)
	if l == 0 {
		return math.Hypot(px-ax, py-ay)
	}
	return math.Abs(dx*(py-ay)-dy*(px-ax)) / l
}

// answered is one sampled window query and the records it returned.
type answered struct {
	w   window
	got []record
}

// recBounds is a record's bounding box and time span, precomputed so
// the brute-force filter can skip records cheaply.
type recBounds struct {
	minLon, minLat, maxLon, maxLat float64
	t0, t1                         uint32
}

// checkWindows recomputes every sampled window by brute force over all
// records — each consecutive key pair whose bounding box meets the
// window and whose time span overlaps the range, the documented
// QueryWindow predicate — and counts answers that differ as multisets.
func checkWindows(sample []answered, all []record) (mismatches int, firstDiff string) {
	bounds := make([]recBounds, len(all))
	for i, r := range all {
		b := recBounds{math.Inf(1), math.Inf(1), math.Inf(-1), math.Inf(-1), math.MaxUint32, 0}
		for _, k := range r.Keys {
			b.minLon, b.maxLon = math.Min(b.minLon, k.Lon), math.Max(b.maxLon, k.Lon)
			b.minLat, b.maxLat = math.Min(b.minLat, k.Lat), math.Max(b.maxLat, k.Lat)
			b.t0, b.t1 = min(b.t0, k.T), max(b.t1, k.T)
		}
		bounds[i] = b
	}
	for _, a := range sample {
		w := a.w
		want := map[string]int{}
		for i, b := range bounds {
			if b.minLon > w.maxLon || b.maxLon < w.minLon || b.minLat > w.maxLat || b.maxLat < w.minLat || b.t0 > w.t1 || b.t1 < w.t0 {
				continue
			}
			if pairInWindow(all[i].Keys, w) {
				want[recID(all[i])]++
			}
		}
		got := map[string]int{}
		for _, r := range a.got {
			got[recID(r)]++
		}
		if d := diffCounts(want, got); d != "" {
			mismatches++
			if firstDiff == "" {
				firstDiff = fmt.Sprintf("window %+v: %s", w, d)
			}
		}
	}
	return mismatches, firstDiff
}

func pairInWindow(keys []trajstore.GeoKey, w window) bool {
	for i := 0; i+1 < len(keys); i++ {
		a, b := keys[i], keys[i+1]
		if math.Max(a.Lon, b.Lon) < w.minLon || math.Min(a.Lon, b.Lon) > w.maxLon ||
			math.Max(a.Lat, b.Lat) < w.minLat || math.Min(a.Lat, b.Lat) > w.maxLat ||
			max(a.T, b.T) < w.t0 || min(a.T, b.T) > w.t1 {
			continue
		}
		return true
	}
	return false
}

func diffCounts(want, got map[string]int) string {
	for id, n := range want {
		if got[id] != n {
			return fmt.Sprintf("record %s: want %d, got %d (want %d records, got %d)", id, n, got[id], total(want), total(got))
		}
	}
	for id, n := range got {
		if want[id] != n {
			return fmt.Sprintf("record %s: want %d, got %d (want %d records, got %d)", id, want[id], n, total(want), total(got))
		}
	}
	return ""
}

func total(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

// recID identifies a record by device, time span and key points on the
// wire grid.
func recID(r record) string {
	h := fnv.New64a()
	var b [12]byte
	for _, k := range r.Keys {
		lat, lon := int32(math.Round(k.Lat*1e7)), int32(math.Round(k.Lon*1e7))
		for i, v := range [3]uint32{uint32(lat), uint32(lon), k.T} {
			b[4*i], b[4*i+1], b[4*i+2], b[4*i+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		}
		h.Write(b[:])
	}
	return fmt.Sprintf("%s/%d-%d/%d/%x", r.Device, r.T0, r.T1, len(r.Keys), h.Sum64())
}
