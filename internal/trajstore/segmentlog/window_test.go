package segmentlog

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/trajcomp/bqs/internal/trajstore"
	"github.com/trajcomp/bqs/internal/trajstore/segmentlog/vfs"
)

// cellKeys builds record r of device d: a small trajectory confined to
// the 0.01°-wide cell at (0.1·d, 0.1·d) degrees, with timestamps
// 1000+100·r onward shared across devices (so purely spatial windows
// are not accidentally time-pruned). Coordinates are exact multiples of
// 1e-7°, so encode→decode equality is exact.
func cellKeys(d, r, n int) []trajstore.GeoKey {
	lat0 := int64(d) * 1_000_000 // 0.1° in 1e-7 units
	lon0 := int64(d) * 1_000_000
	t := uint32(1000 + 100*r)
	keys := make([]trajstore.GeoKey, n)
	for i := range keys {
		lat := lat0 + int64(r*1000+i*10)
		lon := lon0 + int64(r*700+i*13)
		keys[i] = trajstore.GeoKey{Lat: float64(lat) / 1e7, Lon: float64(lon) / 1e7, T: t}
		t += uint32(i%3 + 1)
	}
	return keys
}

// cellWindow returns a window covering the cells of devices [lo, hi],
// with a margin that keeps boundaries off the coordinate grid.
func cellWindow(lo, hi int) (minX, minY, maxX, maxY float64) {
	min := 0.1*float64(lo) - 0.005
	max := 0.1*float64(hi) + 0.015
	return min, min, max, max
}

// fillCells appends recs records of n keys for each of devs devices.
func fillCells(t *testing.T, l *Log, devs, recs, n int) {
	t.Helper()
	for r := 0; r < recs; r++ {
		for d := 0; d < devs; d++ {
			if err := l.Append(fmt.Sprintf("dev-%03d", d), cellKeys(d, r, n)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// bruteWindow computes the expected QueryWindow result by decoding
// every record of every device and applying the exact predicate — the
// reference the pruned path must match.
func bruteWindow(t *testing.T, l *Log, minX, minY, maxX, maxY float64, t0, t1 uint32) map[string][]Record {
	t.Helper()
	out := make(map[string][]Record)
	for _, dev := range l.Devices() {
		for _, rec := range queryAll(t, l, dev) {
			if windowMatch(rec.Keys, minX, minY, maxX, maxY, t0, t1) {
				out[dev] = append(out[dev], rec)
			}
		}
	}
	return out
}

// byDevice regroups a QueryWindow result per device, preserving order.
func byDevice(recs []Record) map[string][]Record {
	out := make(map[string][]Record)
	for _, r := range recs {
		out[r.Device] = append(out[r.Device], r)
	}
	return out
}

// checkWindow asserts QueryWindow equals the brute-force reference for
// one window and returns the stats.
func checkWindow(t *testing.T, l *Log, minX, minY, maxX, maxY float64, t0, t1 uint32) WindowStats {
	t.Helper()
	got, ws, err := l.QueryWindowStats(minX, minY, maxX, maxY, t0, t1)
	if err != nil {
		t.Fatal(err)
	}
	want := bruteWindow(t, l, minX, minY, maxX, maxY, t0, t1)
	gotBy := byDevice(got)
	if len(gotBy) != len(want) {
		t.Fatalf("window [%g,%g]×[%g,%g]: devices %d, want %d", minX, maxX, minY, maxY, len(gotBy), len(want))
	}
	for dev, recs := range want {
		if !reflect.DeepEqual(gotBy[dev], recs) {
			t.Fatalf("window results for %s diverge from brute force:\ngot  %+v\nwant %+v", dev, gotBy[dev], recs)
		}
	}
	if ws.RecordsMatched != len(got) {
		t.Fatalf("stats matched %d, returned %d", ws.RecordsMatched, len(got))
	}
	return ws
}

func TestQueryWindowBasic(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{MaxSegmentBytes: 2048}) // several rotations
	fillCells(t, l, 8, 5, 12)
	defer l.Close()

	// Selective, full, empty, and time-restricted windows.
	minX, minY, maxX, maxY := cellWindow(2, 2)
	ws := checkWindow(t, l, minX, minY, maxX, maxY, 0, math.MaxUint32)
	if ws.RecordsMatched != 5 {
		t.Fatalf("device-2 window matched %d records, want 5", ws.RecordsMatched)
	}
	checkWindow(t, l, -1, -1, 1, 1, 0, math.MaxUint32) // covers device 0 only
	checkWindow(t, l, -10, -10, 10, 10, 0, math.MaxUint32)
	checkWindow(t, l, 50, 50, 60, 60, 0, math.MaxUint32) // empty
	checkWindow(t, l, -10, -10, 10, 10, 1000, 1099)      // first record of each device
	checkWindow(t, l, -10, -10, 10, 10, 5000, 6000)      // after every record

	// The unflushed tail must be visible.
	if err := l.Append("dev-002", cellKeys(2, 9, 6)); err != nil {
		t.Fatal(err)
	}
	ws = checkWindow(t, l, minX, minY, maxX, maxY, 0, math.MaxUint32)
	if ws.RecordsMatched != 6 {
		t.Fatalf("pending append invisible to QueryWindow: matched %d, want 6", ws.RecordsMatched)
	}
}

func TestQueryWindowInvalidArgs(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{})
	defer l.Close()
	if _, err := l.QueryWindow(1, 0, 0, 1, 0, 1); err == nil {
		t.Fatal("inverted X window accepted")
	}
	if _, err := l.QueryWindow(0, 1, 1, 0, 0, 1); err == nil {
		t.Fatal("inverted Y window accepted")
	}
	if _, err := l.QueryWindow(0, 0, 1, 1, 2, 1); err == nil {
		t.Fatal("inverted time window accepted")
	}
	if _, err := l.QueryWindow(math.NaN(), 0, 1, 1, 0, 1); err == nil {
		t.Fatal("NaN window accepted")
	}
}

// TestQueryWindowSelectivity pins the acceptance criterion: on a
// selective window (≤ 5% of devices in range), the pruned path decodes
// under 20% of the records a full scan would, with results equal to
// the ground truth.
func TestQueryWindowSelectivity(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{MaxSegmentBytes: 8192})
	defer l.Close()
	// Device-major fill: a fleet's records arrive clustered (sessions
	// evict in bursts), so segments cover distinct spatial regions and
	// the segment-level summaries have something to prune.
	for d := 0; d < 50; d++ {
		for r := 0; r < 8; r++ {
			if err := l.Append(fmt.Sprintf("dev-%03d", d), cellKeys(d, r, 10)); err != nil {
				t.Fatal(err)
			}
		}
	}

	total := l.Stats().Records
	minX, minY, maxX, maxY := cellWindow(10, 11) // 2 of 50 devices = 4%
	ws := checkWindow(t, l, minX, minY, maxX, maxY, 0, math.MaxUint32)
	if ws.RecordsMatched != 16 {
		t.Fatalf("selective window matched %d records, want 16", ws.RecordsMatched)
	}
	if ratio := float64(ws.RecordsDecoded) / float64(total); ratio >= 0.20 {
		t.Fatalf("selective window decoded %d of %d records (%.1f%%), want < 20%%",
			ws.RecordsDecoded, total, 100*ratio)
	}
	if ws.SegmentsPruned == 0 {
		t.Fatal("no segment-level pruning on a selective window")
	}
}

// TestQueryWindowSurvivesReopenAndCompact: identical results through
// the block-index load path and after a compaction rewrite.
func TestQueryWindowSurvivesReopenAndCompact(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{MaxSegmentBytes: 2048})
	fillCells(t, l, 6, 6, 10)
	minX, minY, maxX, maxY := cellWindow(1, 2)
	want := byDevice(mustWindow(t, l, minX, minY, maxX, maxY))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: sealed segments come back through their block indexes.
	l2 := mustOpen(t, dir, Options{MaxSegmentBytes: 2048})
	if s := l2.Stats(); s.IndexedSegs == 0 || s.IndexedSegs != s.Segments-1 {
		t.Fatalf("sealed segments not index-loaded: %+v", s)
	}
	if got := byDevice(mustWindow(t, l2, minX, minY, maxX, maxY)); !reflect.DeepEqual(got, want) {
		t.Fatal("window results changed across reopen")
	}

	// Compaction (merge+dedup, no ageing) preserves the polylines and
	// therefore the exact window results.
	if _, err := l2.Compact(CompactionPolicy{MergeChunks: true}); err != nil {
		t.Fatal(err)
	}
	if got := byDevice(mustWindow(t, l2, minX, minY, maxX, maxY)); !reflect.DeepEqual(got, want) {
		t.Fatal("window results changed across compaction")
	}
	checkWindow(t, l2, minX, minY, maxX, maxY, 0, math.MaxUint32)
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
}

func mustWindow(t *testing.T, l *Log, minX, minY, maxX, maxY float64) []Record {
	t.Helper()
	recs, err := l.QueryWindow(minX, minY, maxX, maxY, 0, math.MaxUint32)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestBlockIndexCorruptionFallsBack flips every byte of a sealed block
// index in turn: the log must open and answer the window query
// identically every time — a bad index degrades to a scan, never to
// wrong results. Read-only mode is used so the open cannot heal the
// index between flips.
func TestBlockIndexCorruptionFallsBack(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{MaxSegmentBytes: 1024})
	fillCells(t, l, 4, 8, 12)
	minX, minY, maxX, maxY := cellWindow(1, 2)
	want := byDevice(mustWindow(t, l, minX, minY, maxX, maxY))
	if s := l.Stats(); s.IndexedSegs == 0 {
		t.Fatalf("no sealed block index to corrupt: %+v", s)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	idxPath := filepath.Join(dir, idxName(1))
	orig, err := os.ReadFile(idxPath)
	if err != nil {
		t.Fatal(err)
	}
	check := func(stage string) {
		t.Helper()
		ro := mustOpen(t, dir, Options{ReadOnly: true})
		defer ro.Close()
		if got := byDevice(mustWindow(t, ro, minX, minY, maxX, maxY)); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: window results diverged", stage)
		}
	}
	for i := 0; i < len(orig); i++ {
		mut := append([]byte(nil), orig...)
		mut[i] ^= 0xff
		if err := os.WriteFile(idxPath, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("flip byte %d", i))
	}
	for _, cut := range []int{0, 1, len(orig) / 2, len(orig) - 1} {
		if err := os.WriteFile(idxPath, orig[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("truncate to %d", cut))
	}
	if err := os.Remove(idxPath); err != nil {
		t.Fatal(err)
	}
	check("missing index")

	// A writable open scans past the damage and reseals the index.
	lw := mustOpen(t, dir, Options{MaxSegmentBytes: 2048})
	if s := lw.Stats(); s.IndexedSegs != s.Segments-1 {
		t.Fatalf("writable open did not heal the block index: %+v", s)
	}
	if got := byDevice(mustWindow(t, lw, minX, minY, maxX, maxY)); !reflect.DeepEqual(got, want) {
		t.Fatal("healed index changed window results")
	}
	if err := lw.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestHealedIndexSurvivesSweep: when the manifest does not reference a
// sealed v2 segment's index (a rotation whose manifest publish failed),
// the writable Open that scans and re-seals the index must not let the
// unreferenced-file sweep — which runs against the OLD manifest —
// delete what it just wrote; the manifest published at the end of Open
// references the healed index, and the next Open loads through it.
func TestHealedIndexSurvivesSweep(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{MaxSegmentBytes: 1024})
	fillCells(t, l, 6, 8, 12)
	minX, minY, maxX, maxY := cellWindow(1, 2)
	want := byDevice(mustWindow(t, l, minX, minY, maxX, maxY))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Strip the idx references (and summaries) from the manifest and
	// remove the index files, as if no rotation ever published them.
	man, found, err := readManifest(vfs.OS, dir)
	if err != nil || !found {
		t.Fatalf("readManifest: %v found=%v", err, found)
	}
	sealed := 0
	for i := range man.Segs {
		if man.Segs[i].Idx {
			sealed++
		}
		man.Segs[i].Idx = false
		man.Segs[i].Sum = nil
	}
	if sealed == 0 {
		t.Fatal("fixture produced no sealed indexes")
	}
	man.Gen++
	if err := writeManifest(vfs.OS, dir, man); err != nil {
		t.Fatal(err)
	}
	idxFiles, _ := filepath.Glob(filepath.Join(dir, "seg-*.idx"))
	for _, p := range idxFiles {
		if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
	}

	// The healing open must scan, re-seal the indexes, and leave them
	// on disk — referenced by the manifest it publishes.
	l2 := mustOpen(t, dir, Options{MaxSegmentBytes: 2048})
	if s := l2.Stats(); s.IndexedSegs != s.Segments-1 {
		t.Fatalf("healing open did not reseal the indexes: %+v", s)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	left, _ := filepath.Glob(filepath.Join(dir, "seg-*.idx"))
	if len(left) != sealed {
		t.Fatalf("sweep ate the healed indexes: %d on disk, want %d", len(left), sealed)
	}
	// And the next open actually loads through them, with identical
	// query results.
	l3 := mustOpen(t, dir, Options{MaxSegmentBytes: 2048})
	defer l3.Close()
	if s := l3.Stats(); s.IndexedSegs != s.Segments-1 {
		t.Fatalf("healed indexes not loaded on reopen: %+v", s)
	}
	if got := byDevice(mustWindow(t, l3, minX, minY, maxX, maxY)); !reflect.DeepEqual(got, want) {
		t.Fatal("window results changed across index healing")
	}
}

// TestQueryWindowConcurrent exercises QueryWindow racing Append-driven
// rotation and Compact under the race detector: no torn index reads,
// and a query that loses a segment to compaction retries against the
// new generation (the documented reopen-on-ENOENT behavior).
func TestQueryWindowConcurrent(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{MaxSegmentBytes: 1024})
	defer l.Close()
	fillCells(t, l, 4, 2, 10) // some sealed history to compact

	stop := make(chan struct{})
	var wg sync.WaitGroup
	fail := make(chan error, 16)

	wg.Add(1)
	go func() { // writer: appends force rotations
		defer wg.Done()
		for r := 10; ; r++ {
			select {
			case <-stop:
				return
			default:
			}
			for d := 0; d < 4; d++ {
				if err := l.Append(fmt.Sprintf("dev-%03d", d), cellKeys(d, r, 10)); err != nil {
					fail <- err
					return
				}
			}
		}
	}()
	wg.Add(1)
	go func() { // compactor: rewrites sealed segments under the readers
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := l.Compact(CompactionPolicy{MergeChunks: true}); err != nil {
				fail <- err
				return
			}
		}
	}()
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			minX, minY, maxX, maxY := cellWindow(w, w+1)
			for {
				select {
				case <-stop:
					return
				default:
				}
				recs, err := l.QueryWindow(minX, minY, maxX, maxY, 0, math.MaxUint32)
				if err != nil {
					fail <- fmt.Errorf("QueryWindow: %w", err)
					return
				}
				for _, r := range recs {
					if !windowMatch(r.Keys, minX, minY, maxX, maxY, 0, math.MaxUint32) {
						fail <- fmt.Errorf("QueryWindow returned a non-matching record")
						return
					}
				}
			}
		}(w)
	}
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	select {
	case err := <-fail:
		t.Fatal(err)
	default:
	}
}

// Cell-index lifecycle tests. Each builds segments whose records sit on
// cell edges, at negative coordinates and on the wide list, with cell
// lists that straddle runRecs boundaries; drives one way of changing a
// segment's records; and then asserts two things: every in-memory cell
// index is exactly the index of its segment's records (indexExact),
// and every window answers exactly like the brute-force oracle
// (checkWindow), which reads through the per-device index and never
// consults the cell index.

// lifeKeys builds record i of the lifecycle fixture: device (i/32)%4,
// so a run of 64 consecutive records holds two devices' runs, with time
// bounds that grow with i (record i spans about [1000+100·i,
// 1012+100·i]). Device 0 sits on the origin, where four cells meet;
// device 1 crosses a cell corner at positive coordinates; device 2
// drifts through several cells at negative coordinates; each record of
// device 3 covers more than maxRecordCells cells, so it goes on the
// wide list.
func lifeKeys(i int) (string, []trajstore.GeoKey) {
	const cell = 1 << cellShift
	d := (i / 32) % 4
	// Start latitude, start longitude and per-key step, in 1e-7°.
	start := [4][3]int64{
		{-300, -200, 40},
		{3*cell - 90, 5*cell - 90, 30},
		{-900_000 - int64(i)*2_000, -1_200_000 + int64(i)*1_500, 25},
		{400_000, -600_000, cell},
	}[d]
	t := recTime(i)
	keys := make([]trajstore.GeoKey, 6)
	for k := range keys {
		keys[k] = trajstore.GeoKey{
			Lat: float64(start[0]+int64(k)*start[2]) / 1e7,
			Lon: float64(start[1]+int64(k)*start[2]) / 1e7,
			T:   t,
		}
		t += uint32(k%3 + 1)
	}
	return fmt.Sprintf("dev-%03d", d), keys
}

// lifeFill appends records [from, to) of the lifecycle fixture.
func lifeFill(t *testing.T, l *Log, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		dev, keys := lifeKeys(i)
		if err := l.Append(dev, keys); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
}

// recTime returns the first timestamp of lifecycle-fixture record i.
func recTime(i int) uint32 { return uint32(1000 + 100*i) }

// indexExact asserts every loaded segment's cell index is exactly the
// index of its records: each record with a bbox over at most
// maxRecordCells cells is listed, in log order, under every cell it
// covers and no other; every other record is on the wide list; every
// run summary is the summary of its entries; and the whole index equals
// one built from scratch over the metas. The segment summary must be
// that of all its records. Deferred segments hold nothing.
func indexExact(t *testing.T, l *Log, stage string) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.segRecs) != len(l.segs) {
		t.Fatalf("%s: %d record lists for %d segments", stage, len(l.segRecs), len(l.segs))
	}
	for si := range l.segRecs {
		r := &l.segRecs[si]
		if l.segs[si].lazy {
			if len(r.metas) != 0 || len(r.lists) != 0 || len(r.cells) != 0 || len(r.wide.pos) != 0 {
				t.Fatalf("%s: deferred segment %d holds %d records, %d cells, %d wide", stage, si, len(r.metas), len(r.lists), len(r.wide.pos))
			}
			continue
		}
		want := make(map[uint64][]int32)
		var wantWide []int32
		for p := range r.metas {
			x0, y0, x1, y1, ok := recordCells(&r.metas[p])
			if !ok {
				wantWide = append(wantWide, int32(p))
				continue
			}
			for cy := y0; cy <= y1; cy++ {
				for cx := x0; cx <= x1; cx++ {
					want[cellKey(cx, cy)] = append(want[cellKey(cx, cy)], int32(p))
				}
			}
		}
		if len(r.lists) != len(want) || len(r.cells) != len(want) {
			t.Fatalf("%s: segment %d: %d cell lists, %d map entries, want %d cells", stage, si, len(r.lists), len(r.cells), len(want))
		}
		runsExact := func(name string, c *cellList, wantPos []int32) {
			t.Helper()
			if !slices.Equal(c.pos, wantPos) {
				t.Fatalf("%s: segment %d %s: entries %v, want %v", stage, si, name, c.pos, wantPos)
			}
			if len(c.sums) != (len(c.pos)+runRecs-1)/runRecs {
				t.Fatalf("%s: segment %d %s: %d run summaries for %d entries", stage, si, name, len(c.sums), len(c.pos))
			}
			for k := range c.sums {
				var sum segSummary
				for _, p := range c.pos[k*runRecs : min((k+1)*runRecs, len(c.pos))] {
					sum.add(r.metas[p])
				}
				if c.sums[k] != sum {
					t.Fatalf("%s: segment %d %s run %d: summary %+v, want %+v", stage, si, name, k, c.sums[k], sum)
				}
			}
		}
		for li := range r.lists {
			c := &r.lists[li]
			key := cellKey(c.cx, c.cy)
			if got, ok := r.cells[key]; !ok || got != int32(li) {
				t.Fatalf("%s: segment %d: cell (%d, %d) maps to list %d (present %v), want %d", stage, si, c.cx, c.cy, got, ok, li)
			}
			runsExact(fmt.Sprintf("cell (%d, %d)", c.cx, c.cy), c, want[key])
		}
		runsExact("wide list", &r.wide, wantWide)
		var scratch segRecords
		scratch.set(r.metas)
		if !reflect.DeepEqual(*r, scratch) {
			t.Fatalf("%s: segment %d: index differs from one built from scratch", stage, si)
		}
		if want := summarize(r.metas); l.segs[si].sum != want {
			t.Fatalf("%s: segment %d: summary %+v, want %+v", stage, si, l.segs[si].sum, want)
		}
	}
}

// lifecycleWindows checks indexExact and the oracle on time-selective,
// spatial and mixed windows: windows straddling cell edges, at negative
// coordinates, exactly on a cell boundary, over the wide records only,
// and over the full extent. It returns the stats of the full-area
// window over the last five records' time.
func lifecycleWindows(t *testing.T, l *Log, stage string, n int) WindowStats {
	t.Helper()
	const edge = float64(1<<cellShift) / 1e7 // one cell, in degrees
	indexExact(t, l, stage)
	all := math.Inf(1)
	checkWindow(t, l, -10, -10, 10, 10, recTime(60), recTime(70))
	ws := checkWindow(t, l, -180, -90, 180, 90, recTime(max(n-5, 0)), recTime(n))
	checkWindow(t, l, -all, -all, all, all, 0, math.MaxUint32)
	checkWindow(t, l, -1e-5, -1e-5, 1e-5, 1e-5, 0, math.MaxUint32)                      // the origin's four cells
	checkWindow(t, l, 5*edge-2e-6, 3*edge-2e-6, 5*edge+1e-6, 3*edge, 0, math.MaxUint32) // device 1's cell corner
	checkWindow(t, l, 5*edge, 3*edge, 5*edge, 3*edge, 0, math.MaxUint32)                // a point on the corner
	// Device 1 from inside its upper cells only: a record must be found
	// although the window's range misses its lowest cells.
	checkWindow(t, l, 5*edge+5e-6, -1, 5*edge+1e-5, 1, 0, math.MaxUint32)
	checkWindow(t, l, -1, 3*edge+5e-6, 1, 3*edge+1e-5, 0, math.MaxUint32)
	checkWindow(t, l, 5*edge+5e-6, 3*edge+5e-6, 5*edge+1e-5, 3*edge+1e-5, 0, math.MaxUint32)
	checkWindow(t, l, -0.16, -0.2, -0.1, -0.09, 0, math.MaxUint32) // device 2, negative
	checkWindow(t, l, -0.16, -0.2, -0.1, -0.09, recTime(70), recTime(80))
	checkWindow(t, l, -0.06, 0.041, -0.0599, 0.0411, 0, math.MaxUint32) // inside wide records only
	checkWindow(t, l, 50, 50, 60, 60, 0, math.MaxUint32)                // empty
	for _, w := range []float64{-2 * edge, -edge, 0, edge} {            // cell-aligned bands
		checkWindow(t, l, w, -1, w+edge, 1, 0, math.MaxUint32)
		checkWindow(t, l, -1, w, 1, w, 0, math.MaxUint32)
	}
	indexExact(t, l, stage+" (after queries)")
	return ws
}

// statsConsistent asserts the nesting of the pruning counters.
func statsConsistent(t *testing.T, ws WindowStats, stage string) {
	t.Helper()
	if ws.RecordsCellPruned > ws.RecordsPruned || ws.RecordsPruned > ws.RecordsIndexed ||
		ws.RecordsDecoded+ws.CacheHits != ws.RecordsIndexed-ws.RecordsPruned {
		t.Fatalf("%s: inconsistent stats %+v", stage, ws)
	}
}

func TestWindowCellsAppend(t *testing.T) {
	l := mustOpen(t, t.TempDir(), Options{})
	defer l.Close()
	n := 0
	for _, want := range []int{1, 63, 64, 65, 127, 128, 129, 191, 193} {
		lifeFill(t, l, n, want)
		n = want
		stage := fmt.Sprintf("%d records", n)
		ws := lifecycleWindows(t, l, stage, n)
		statsConsistent(t, ws, stage)
		// Each device's first 32 records make a cell or wide run that
		// ends long before the last five records' time, so once the log
		// has grown past two runs of them, at least 64 records are
		// skipped without their own metadata being tested.
		if n > 128 && ws.RecordsCellPruned < runRecs {
			t.Fatalf("%s: cell index skipped %d records on a time-selective window", stage, ws.RecordsCellPruned)
		}
		// A window on the origin visits only device 0's cells and the
		// wide list: devices 1 and 2 are never tested.
		ws = checkWindow(t, l, -1e-5, -1e-5, 1e-5, 1e-5, 0, math.MaxUint32)
		statsConsistent(t, ws, stage+" origin")
		far := 0
		for i := 0; i < n; i++ {
			if d := (i / 32) % 4; d == 1 || d == 2 {
				far++
			}
		}
		if ws.RecordsCellPruned < far {
			t.Fatalf("%s: origin window left %d of %d far records to their metadata", stage, far-ws.RecordsCellPruned, far)
		}
	}
}

// TestWindowCellsPoisonHeal: a failed fsync withdraws the at-risk tail
// — records 100–129, which cross a run boundary of several cell lists —
// out of the active segment; the index must be rebuilt without them,
// and the heal that lands the tail in a fresh segment (after one failed
// publish that rolls back) must index it there.
func TestWindowCellsPoisonHeal(t *testing.T) {
	fs := vfs.NewFaultFS(11)
	l := mustOpen(t, t.TempDir(), Options{FS: fs})
	defer l.Close()
	lifeFill(t, l, 0, 100)
	if err := l.Sync(); err != nil { // watermark after record 99
		t.Fatal(err)
	}
	lifeFill(t, l, 100, 130)
	fs.AddRule(vfs.Rule{Op: vfs.OpSync, Path: "seg-*.log", Fault: vfs.FaultEIO, Count: 1})
	fs.AddRule(vfs.Rule{Op: vfs.OpRename, Path: manifestName, Fault: vfs.FaultEIO, Count: 1})
	if err := l.Sync(); err == nil {
		t.Fatal("Sync succeeded although the salvage publish failed")
	}
	if s := l.Stats(); s.Records != 100 {
		t.Fatalf("poisoned log indexes %d records, want the 100 durable ones", s.Records)
	}
	lifecycleWindows(t, l, "poisoned, heal rolled back", 100)
	if err := l.Sync(); err != nil { // rules exhausted: the heal lands
		t.Fatal(err)
	}
	if s := l.Stats(); s.Records != 130 || s.Segments != 2 {
		t.Fatalf("after heal: %+v, want 130 records in 2 segments", s)
	}
	lifecycleWindows(t, l, "healed", 130)
	lifeFill(t, l, 130, 200)
	lifecycleWindows(t, l, "appended after heal", 200)
}

// TestWindowCellsPoisonNothingDurable drives the heal's other path: no
// fsync ever succeeded, so the poisoned segment keeps no record and the
// salvage file takes its slot — first with a publish failure that
// restores the empty slot, then for real.
func TestWindowCellsPoisonNothingDurable(t *testing.T) {
	fs := vfs.NewFaultFS(12)
	l := mustOpen(t, t.TempDir(), Options{FS: fs})
	defer l.Close()
	lifeFill(t, l, 0, 70)
	fs.AddRule(vfs.Rule{Op: vfs.OpSync, Path: "seg-*.log", Fault: vfs.FaultEIO})
	if err := l.Sync(); err == nil {
		t.Fatal("Sync succeeded while every segment fsync fails")
	}
	if s := l.Stats(); s.Records != 0 {
		t.Fatalf("poisoned log indexes %d records, want 0", s.Records)
	}
	lifecycleWindows(t, l, "poisoned, nothing durable", 0)
	fs.ClearRules()
	fs.AddRule(vfs.Rule{Op: vfs.OpRename, Path: manifestName, Fault: vfs.FaultEIO, Count: 1})
	if err := l.Sync(); err == nil {
		t.Fatal("Sync succeeded although the salvage publish failed")
	}
	lifecycleWindows(t, l, "heal rolled back", 0)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if s := l.Stats(); s.Records != 70 || s.Segments != 1 {
		t.Fatalf("after heal: %+v, want 70 records in 1 segment", s)
	}
	lifecycleWindows(t, l, "healed into the salvage slot", 70)
}

// TestWindowCellsRotation: rotations seal segments longer than a run,
// and a rotation whose manifest publish fails rolls back, leaving the
// old segment active and its index still growing.
func TestWindowCellsRotation(t *testing.T) {
	fs := vfs.NewFaultFS(13)
	l := mustOpen(t, t.TempDir(), Options{FS: fs, MaxSegmentBytes: 6 << 10})
	defer l.Close()
	fs.AddRule(vfs.Rule{Op: vfs.OpRename, Path: manifestName, Fault: vfs.FaultEIO, Count: 1})
	n := 0
	for l.Stats().Segments == 1 && n < 1000 {
		lifeFill(t, l, n, n+1)
		n++
	}
	// The first rotation attempt failed to publish; the second, one
	// append later, succeeded.
	if n >= 1000 {
		t.Fatal("the log never rotated")
	}
	if n < runRecs+2 {
		t.Fatalf("rotated after %d records; the fixture wants segments longer than a run", n)
	}
	lifecycleWindows(t, l, fmt.Sprintf("rotated after %d records", n), n)
	lifeFill(t, l, n, 300)
	if s := l.Stats(); s.Segments < 3 {
		t.Fatalf("300 records fill %d segments, want ≥ 3", s.Segments)
	}
	lifecycleWindows(t, l, "several rotations", 300)
}

// TestWindowCellsCompactReopen: compaction installs freshly written
// segments (their index built by the compactor), and a reopen defers
// sealed segments until a window query loads them through their block
// index; both read-write and read-only.
func TestWindowCellsCompactReopen(t *testing.T) {
	dir := t.TempDir()
	opts := Options{MaxSegmentBytes: 6 << 10}
	l := mustOpen(t, dir, opts)
	lifeFill(t, l, 0, 300)
	lifecycleWindows(t, l, "before compaction", 300)
	// Ageing rewrites every sealed record, regrouped per device.
	res, err := l.Compact(CompactionPolicy{CoarseTolerance: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Gen == 0 || res.SegmentsOut == 0 {
		t.Fatalf("compaction did not rewrite: %+v", res)
	}
	lifecycleWindows(t, l, "after compaction", 300)
	lifeFill(t, l, 300, 330)
	want := byDevice(mustWindow(t, l, -10, -10, 10, 10))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	for _, ro := range []bool{false, true} {
		opts.ReadOnly = ro
		l := mustOpen(t, dir, opts)
		l.mu.Lock()
		lazy := 0
		for _, s := range l.segs {
			if s.lazy {
				lazy++
			}
		}
		l.mu.Unlock()
		if lazy == 0 {
			t.Fatalf("read-only=%v: reopen deferred no segment", ro)
		}
		stage := fmt.Sprintf("reopened (read-only=%v)", ro)
		indexExact(t, l, stage+", deferred")
		lifecycleWindows(t, l, stage, 330)
		if got := byDevice(mustWindow(t, l, -10, -10, 10, 10)); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: results changed across reopen", stage)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// writeV1Segment writes a version-1 segment file (no record bounding
// boxes) holding lifecycle-fixture records [0, n).
func writeV1Segment(t *testing.T, path string, n int) {
	t.Helper()
	data := append(append([]byte(nil), magic[:]...), versionLegacy, 0)
	for i := 0; i < n; i++ {
		dev, keys := lifeKeys(i)
		payload, err := trajstore.DeltaEncode(keys)
		if err != nil {
			t.Fatal(err)
		}
		t0, t1 := timeBounds(keys)
		body := binary.LittleEndian.AppendUint16(nil, uint16(len(dev)))
		body = append(body, dev...)
		body = binary.LittleEndian.AppendUint32(body, t0)
		body = binary.LittleEndian.AppendUint32(body, t1)
		body = append(body, payload...)
		data = binary.LittleEndian.AppendUint32(data, uint32(len(body)))
		data = binary.LittleEndian.AppendUint32(data, crc32.Checksum(body, castagnoli))
		data = append(data, body...)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestWindowCellsLegacy: legacy records carry no bounding box, so they
// all go on the wide list, whose runs are never spatially pruned
// (bbAll false) but still prune on time. Covers the checked-in v1
// fixture and a 130-record v1 segment read-only, writable (sealed
// behind a fresh current-format segment) and after the compaction
// upgrade, which moves the records into cells.
func TestWindowCellsLegacy(t *testing.T) {
	fix := mustOpen(t, copyFixture(t), Options{ReadOnly: true})
	indexExact(t, fix, "v1 fixture")
	for _, w := range fixtureWindows {
		checkWindow(t, fix, w.minX, w.minY, w.maxX, w.maxY, w.t0, w.t1)
	}
	if err := fix.Close(); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	writeV1Segment(t, filepath.Join(dir, segName(1)), 130)
	ro := mustOpen(t, dir, Options{ReadOnly: true})
	ws := lifecycleWindows(t, ro, "v1 read-only", 130)
	if ws.RecordsCellPruned < runRecs {
		t.Fatalf("v1 runs not time-pruned: %+v", ws)
	}
	ro.mu.Lock()
	wide, cells := len(ro.segRecs[0].wide.pos), len(ro.segRecs[0].lists)
	ro.mu.Unlock()
	if wide != 130 || cells != 0 {
		t.Fatalf("v1 records indexed under %d cells with %d wide, want all 130 wide", cells, wide)
	}
	if ws := checkWindow(t, ro, -1e-5, -1e-5, 1e-5, 1e-5, 0, math.MaxUint32); ws.RecordsCellPruned != 0 {
		t.Fatalf("v1 runs pruned spatially without bounding boxes: %+v", ws)
	}
	if err := ro.Close(); err != nil {
		t.Fatal(err)
	}

	l := mustOpen(t, dir, Options{MaxSegmentBytes: 6 << 10})
	defer l.Close()
	lifecycleWindows(t, l, "v1 writable", 130)
	// Appends land in a current-format segment after the sealed v1 one.
	lifeFill(t, l, 130, 200)
	lifecycleWindows(t, l, "v1 plus current-format appends", 200)
	if res, err := l.Compact(CompactionPolicy{NoDedup: true}); err != nil || res.Gen == 0 {
		t.Fatalf("upgrade compaction: %+v, %v", res, err)
	}
	lifecycleWindows(t, l, "v1 upgraded by compaction", 200)
}
