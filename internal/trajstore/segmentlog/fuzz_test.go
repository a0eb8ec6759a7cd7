package segmentlog

import (
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/trajcomp/bqs/internal/trajstore"
)

// FuzzRecover feeds arbitrary bytes to Open as a segment file: recovery
// must never panic, and whatever it salvages must be stable — a second
// open of the recovered directory sees the same records and truncates
// nothing further.
func FuzzRecover(f *testing.F) {
	// Seed: a well-formed file with two records...
	dir := f.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := l.Append("dev", genKeys(i+1, 6)); err != nil {
			f.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(filepath.Join(dir, "seg-00000001.log"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	// ...its truncations...
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:headerSize+3])
	f.Add(valid[:headerSize])
	// ...and degenerate files.
	f.Add([]byte{})
	f.Add([]byte("BQSLOG\x01\x00"))
	f.Add([]byte("garbage that is not a log at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "seg-00000001.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(dir, Options{})
		if err != nil {
			return // structurally rejected (bad magic/version) is fine
		}
		s1 := l.Stats()
		recs1, err := l.Query("dev", 0, ^uint32(0))
		if err != nil {
			t.Fatalf("Query on recovered log: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}

		// Recovery must be idempotent: reopening truncates nothing more.
		l2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("second Open after recovery: %v", err)
		}
		defer l2.Close()
		s2 := l2.Stats()
		if s2.Truncated != 0 {
			t.Fatalf("second open truncated %d more bytes", s2.Truncated)
		}
		if s2.Records != s1.Records {
			t.Fatalf("records changed across reopen: %d → %d", s1.Records, s2.Records)
		}
		recs2, err := l2.Query("dev", 0, ^uint32(0))
		if err != nil {
			t.Fatalf("Query after reopen: %v", err)
		}
		if len(recs1) != len(recs2) {
			t.Fatalf("query results changed across reopen: %d → %d", len(recs1), len(recs2))
		}
		// And the recovered log must accept appends.
		if err := l2.Append("post", []trajstore.GeoKey{{Lat: 1e-7, Lon: 1e-7, T: 1}}); err != nil {
			t.Fatalf("Append after recovery: %v", err)
		}
	})
}

// FuzzBlockIndex feeds arbitrary bytes to the block-index parser: it
// must never panic, anything it accepts must round-trip through the
// formatter (re-rendering and re-parsing yields the identical value —
// a hostile-but-CRC-valid encoding may use non-minimal varints, so
// byte identity is not required), and every accepted entry must lie
// inside the declared segment bounds in strictly increasing order —
// the invariants that let Open trust a loaded index instead of
// scanning. (End-to-end, a corrupt index only ever degrades to a scan;
// see TestBlockIndexCorruptionFallsBack.)
func FuzzBlockIndex(f *testing.F) {
	metas := []recordMeta{
		{device: "alpha", off: headerSize + recordHeaderSize, bodyLen: 40, t0: 10, t1: 20,
			bb: bbox{minLat: -50, minLon: -60, maxLat: 70, maxLon: 80}, hasBB: true},
		{device: "bravo", off: headerSize + 2*recordHeaderSize + 40, bodyLen: 30, t0: 15, t1: 35},
	}
	f.Add(formatBlockIndex(headerSize+2*recordHeaderSize+70, version, metas))
	f.Add(formatBlockIndex(headerSize, version, nil))
	f.Add(formatBlockIndex(headerSize+recordHeaderSize+40, versionLegacy, metas[1:]))
	f.Add([]byte("BQSIDX\x01\x02"))
	f.Add([]byte{})
	f.Add([]byte("garbage that is not an index"))

	f.Fuzz(func(t *testing.T, data []byte) {
		segSize, segVer, metas, err := parseBlockIndex(data)
		if err != nil {
			return // structurally rejected is fine
		}
		re := formatBlockIndex(segSize, segVer, metas)
		segSize2, segVer2, metas2, err := parseBlockIndex(re)
		if err != nil {
			t.Fatalf("re-rendered index rejected: %v", err)
		}
		if segSize2 != segSize || segVer2 != segVer || !reflect.DeepEqual(metas2, metas) {
			t.Fatalf("round trip changed index: (%d,%d,%+v) → (%d,%d,%+v)",
				segSize, segVer, metas, segSize2, segVer2, metas2)
		}
		prevEnd := int64(headerSize)
		for i, m := range metas {
			if m.off < prevEnd+recordHeaderSize || m.off+int64(m.bodyLen) > segSize {
				t.Fatalf("entry %d outside segment bounds: %+v (segSize %d)", i, m, segSize)
			}
			if m.t0 > m.t1 {
				t.Fatalf("entry %d has inverted time bounds", i)
			}
			if m.hasBB && (m.bb.minLat > m.bb.maxLat || m.bb.minLon > m.bb.maxLon) {
				t.Fatalf("entry %d has an inverted bbox", i)
			}
			prevEnd = m.off + int64(m.bodyLen)
		}
	})
}

// FuzzManifest feeds arbitrary bytes to the manifest parser: it must
// never panic, and whatever it accepts must round-trip — re-rendering a
// parsed manifest and parsing it again yields the identical value, the
// invariant Open's "manifest is the source of truth" logic rests on.
func FuzzManifest(f *testing.F) {
	f.Add(formatManifest(manifest{Gen: 1, Segs: []manifestSeg{{Name: "seg-00000001.log"}}}))
	f.Add(formatManifest(manifest{Gen: 7, Segs: []manifestSeg{
		{Name: "seg-00000009.log", Idx: true, Sum: &segSummary{
			records: 2, t0: 10, t1: 90, bbAll: true,
			bb: bbox{minLat: -100, minLon: -200, maxLat: 300, maxLon: 400},
		}},
		{Name: "seg-00000003.log"},
	}}))
	f.Add(formatManifest(manifest{Gen: 0}))
	f.Add([]byte("BQSMANIFEST 2\ngen 3\nseg seg-00000004.log idx sum=1,5,5\ncrc 00000000\n"))
	f.Add([]byte("BQSMANIFEST 1\ngen 1\nseg seg-00000001.log\ncrc 00000000\n"))
	f.Add([]byte("BQSMANIFEST 1\ngen 1\nseg ../escape.log\ncrc 00000000\n"))
	f.Add([]byte(""))
	f.Add([]byte("garbage"))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := parseManifest(data)
		if err != nil {
			return // structurally rejected is fine
		}
		re := formatManifest(m)
		m2, err := parseManifest(re)
		if err != nil {
			t.Fatalf("re-rendered manifest rejected: %v\n%q", err, re)
		}
		if m2.Gen != m.Gen || len(m2.Segs) != len(m.Segs) {
			t.Fatalf("round trip changed manifest: %+v → %+v", m, m2)
		}
		for i := range m.Segs {
			if !reflect.DeepEqual(m.Segs[i], m2.Segs[i]) {
				t.Fatalf("round trip changed segment %d: %+v → %+v", i, m.Segs[i], m2.Segs[i])
			}
			// Accepted names must be directory-local canonical segment
			// names (no path traversal).
			if _, ok := parseSegName(m.Segs[i].Name); !ok {
				t.Fatalf("parser accepted non-canonical segment name %q", m.Segs[i].Name)
			}
		}
	})
}

// fuzzCellRecs decodes the records of FuzzWindowCells: 13 bytes each —
// start latitude and longitude (int32, folded into the valid range),
// latitude and longitude extent (uint16) and a mode byte. Mode&3
// selects the extent's scale: 0 raw 1e-7° units (up to half a cell),
// 1 sixteenths of a cell (up to thousands of cells: wide records),
// 2 a zero-size box snapped to a cell corner, 3 no box at all (a
// legacy record). Mode>>2 widens the record's time span.
func fuzzCellRecs(data []byte) []recordMeta {
	const maxLat, maxLon = 900_000_000, 1_800_000_000
	fold := func(v, lim int32) int32 {
		if v > lim || v < -lim {
			return v % lim
		}
		return v
	}
	var metas []recordMeta
	for i := 0; len(data) >= 13; i++ {
		lat := fold(int32(binary.LittleEndian.Uint32(data)), maxLat)
		lon := fold(int32(binary.LittleEndian.Uint32(data[4:])), maxLon)
		dLat := int64(binary.LittleEndian.Uint16(data[8:]))
		dLon := int64(binary.LittleEndian.Uint16(data[10:]))
		mode := data[12]
		data = data[13:]
		m := recordMeta{t0: uint32(i * 7 % 100), hasBB: true}
		m.t1 = m.t0 + uint32(mode>>2)
		switch mode & 3 {
		case 1:
			dLat, dLon = dLat<<(cellShift-4), dLon<<(cellShift-4)
		case 2:
			lat, lon = lat&^(1<<cellShift-1), lon&^(1<<cellShift-1)
			dLat, dLon = 0, 0
		case 3:
			m.hasBB = false
		}
		m.bb = bbox{minLat: lat, minLon: lon,
			maxLat: int32(min(int64(lat)+dLat, maxLat)), maxLon: int32(min(int64(lon)+dLon, maxLon))}
		metas = append(metas, m)
	}
	return metas
}

// fuzzCellRec encodes one FuzzWindowCells record.
func fuzzCellRec(lat, lon int32, dLat, dLon uint16, mode byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(lat))
	b = binary.LittleEndian.AppendUint32(b, uint32(lon))
	b = binary.LittleEndian.AppendUint16(b, dLat)
	b = binary.LittleEndian.AppendUint16(b, dLon)
	return append(b, mode)
}

// FuzzWindowCells checks the cell index against brute force: over
// random record boxes — ±90/±180 extremes, boxes on cell boundaries,
// zero-size boxes, wide and box-less records — and a random window
// (given in 1e-7° units; the extreme int32 values stand for ±Inf), the
// candidates must be exactly the records whose own metadata passes the
// window, ascending and without duplicates, each tested at most once.
// The same must hold after a truncation, and both the incrementally
// built and the truncated index must equal one built from scratch.
func FuzzWindowCells(f *testing.F) {
	const cell = 1 << cellShift
	var seed []byte
	for _, r := range [][5]int64{
		{900_000_000, 1_800_000_000, 0, 0, 0},           // the north-east corner
		{-900_000_000, -1_800_000_000, 0, 0, 2},         // the south-west corner, snapped
		{-900_000_000, -1_800_000_000, 65535, 65535, 1}, // a wide box from the corner
		{3 * cell, -5 * cell, 0, 0, 0},                  // a point on a cell corner
		{3*cell - 1, -5*cell - 1, 10, 10, 0},            // a box across a cell corner
		{-1, -1, 1, 1, 4},                               // the origin's four cells
		{123_456, -654_321, 300, 65535, 1},              // a tall, wide record
		{0, 0, 0, 0, 3},                                 // no box
		{-70_000, 20_000, 5000, 7000, 8},
	} {
		seed = append(seed, fuzzCellRec(int32(r[0]), int32(r[1]), uint16(r[2]), uint16(r[3]), byte(r[4]))...)
	}
	f.Add(seed, int32(-cell), int32(-cell), int32(cell), int32(cell), uint32(0), uint32(100), uint16(4))
	f.Add(seed, int32(math.MinInt32), int32(math.MinInt32), int32(math.MaxInt32), int32(math.MaxInt32), uint32(0), uint32(math.MaxUint32), uint16(9))
	f.Add(seed, int32(-5*cell), int32(3*cell), int32(-5*cell), int32(3*cell), uint32(0), uint32(100), uint16(0))
	// Inside the upper cells of the box across a cell corner only.
	f.Add(seed, int32(-5*cell+5), int32(2*(3*cell+5)), int32(-5*cell+6), int32(2*(3*cell+6)), uint32(0), uint32(100), uint16(0))
	f.Add(seed, int32(1_800_000_000), int32(1_800_000_000), int32(1_800_000_000), int32(1_800_000_000), uint32(0), uint32(50), uint16(2))
	f.Add([]byte{}, int32(0), int32(0), int32(0), int32(0), uint32(0), uint32(0), uint16(0))

	f.Fuzz(func(t *testing.T, data []byte, wx0, wy0, wx1, wy1 int32, t0, t1 uint32, cut uint16) {
		// Latitude bounds are halved so windows reach past ±90° and stay
		// inside it about equally often.
		deg := func(v int32, scale float64) float64 {
			switch v {
			case math.MinInt32:
				return math.Inf(-1)
			case math.MaxInt32:
				return math.Inf(1)
			}
			return float64(v) / scale
		}
		minX, maxX := deg(min(wx0, wx1), 1e7), deg(max(wx0, wx1), 1e7)
		minY, maxY := deg(min(wy0, wy1), 2e7), deg(max(wy0, wy1), 2e7)
		t0, t1 = min(t0, t1), max(t0, t1)
		q := newWindowQuery(minX, minY, maxX, maxY, t0, t1)

		check := func(stage string, r *segRecords) {
			t.Helper()
			var want []int32
			for p := range r.metas {
				m := &r.metas[p]
				if m.t0 > t1 || m.t1 < t0 || (m.hasBB && !m.bb.intersects(minX, minY, maxX, maxY)) {
					continue
				}
				want = append(want, int32(p))
			}
			got, tested := r.candidates(nil, &q)
			if !reflect.DeepEqual(got, want) && (len(got) != 0 || len(want) != 0) {
				t.Fatalf("%s: window [%g,%g]×[%g,%g] t[%d,%d]: candidates %v, want %v",
					stage, minX, maxX, minY, maxY, t0, t1, got, want)
			}
			if tested < len(got) || tested > len(r.metas) {
				t.Fatalf("%s: tested %d records for %d candidates of %d", stage, tested, len(got), len(r.metas))
			}
			var scratch segRecords
			scratch.set(r.metas)
			if !reflect.DeepEqual(*r, scratch) {
				t.Fatalf("%s: index differs from one built from scratch", stage)
			}
		}
		var r segRecords
		for _, m := range fuzzCellRecs(data) {
			r.add(m)
		}
		check("appended", &r)
		r.truncate(int(cut) % (len(r.metas) + 1))
		check("truncated", &r)
	})
}
