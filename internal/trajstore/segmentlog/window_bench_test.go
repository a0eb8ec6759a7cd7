package segmentlog

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/trajcomp/bqs/internal/trajstore"
)

// benchWindowLog builds the window-query benchmark fixture: 50 devices
// in separate spatial cells, 20 records each (device-major, so sealed
// segments cover distinct regions), rotated into multiple sealed
// segments with block indexes.
func benchWindowLog(b *testing.B) (*Log, int) {
	b.Helper()
	dir := b.TempDir()
	l, err := Open(dir, Options{MaxSegmentBytes: 16 << 10})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { l.Close() })
	for d := 0; d < 50; d++ {
		for r := 0; r < 20; r++ {
			if err := l.Append(fmt.Sprintf("dev-%03d", d), cellKeys(d, r, 16)); err != nil {
				b.Fatal(err)
			}
		}
	}
	s := l.Stats()
	if s.IndexedSegs == 0 {
		b.Fatalf("benchmark log has no sealed block indexes: %+v", s)
	}
	return l, s.Records
}

// benchWindow runs one window shape and reports the decode fraction —
// records decoded per query over the records a full scan would decode.
func benchWindow(b *testing.B, minX, minY, maxX, maxY float64, maxDecodeFrac float64) {
	l, total := benchWindowLog(b)
	var ws WindowStats
	var matched int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recs, s, err := l.QueryWindowStats(minX, minY, maxX, maxY, 0, math.MaxUint32)
		if err != nil {
			b.Fatal(err)
		}
		ws, matched = s, len(recs)
	}
	b.StopTimer()
	frac := float64(ws.RecordsDecoded) / float64(total)
	b.ReportMetric(frac, "decode-frac")
	b.ReportMetric(float64(matched), "matched/op")
	if frac > maxDecodeFrac {
		b.Fatalf("decoded %d of %d records (%.1f%%), want ≤ %.0f%%",
			ws.RecordsDecoded, total, 100*frac, 100*maxDecodeFrac)
	}
}

// BenchmarkQueryWindowSelective: a window covering 2 of 50 devices
// (4% of the fleet). The acceptance bound — the pruned path decodes
// under 20% of what a full scan would — is asserted, not just
// reported.
func BenchmarkQueryWindowSelective(b *testing.B) {
	minX, minY, maxX, maxY := cellWindow(10, 11)
	benchWindow(b, minX, minY, maxX, maxY, 0.20)
}

// BenchmarkQueryWindowFull: the whole extent; every record matches, so
// this measures the decode-everything floor the selective case is
// compared against.
func BenchmarkQueryWindowFull(b *testing.B) {
	benchWindow(b, -10, -10, 10, 10, 1.0)
}

// benchWindowCached rebuilds the fixture with a read cache and measures
// the full-extent query either cold (cache flushed by reopening the log
// between iterations is too costly; instead CacheBytes: 0 IS the cold
// configuration — see BenchmarkQueryWindowCold) or warm.
func benchWindowCached(b *testing.B, cacheBytes int64, wantHits bool) {
	dir := b.TempDir()
	l, err := Open(dir, Options{MaxSegmentBytes: 16 << 10, CacheBytes: cacheBytes})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { l.Close() })
	for d := 0; d < 50; d++ {
		for r := 0; r < 20; r++ {
			if err := l.Append(fmt.Sprintf("dev-%03d", d), cellKeys(d, r, 16)); err != nil {
				b.Fatal(err)
			}
		}
	}
	// Populate (a no-op without a cache) so the timed loop measures the
	// steady state of each configuration.
	if _, _, err := l.QueryWindowStats(-10, -10, 10, 10, 0, math.MaxUint32); err != nil {
		b.Fatal(err)
	}
	var ws WindowStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, s, err := l.QueryWindowStats(-10, -10, 10, 10, 0, math.MaxUint32)
		if err != nil {
			b.Fatal(err)
		}
		ws = s
	}
	b.StopTimer()
	b.ReportMetric(float64(ws.CacheHits), "hits/op")
	b.ReportMetric(float64(ws.RecordsDecoded), "decoded/op")
	if wantHits && (ws.CacheHits == 0 || ws.RecordsDecoded != 0) {
		b.Fatalf("warm query not served from cache: hits=%d decoded=%d", ws.CacheHits, ws.RecordsDecoded)
	}
	if !wantHits && ws.CacheHits != 0 {
		b.Fatalf("cold configuration reported %d cache hits", ws.CacheHits)
	}
}

// BenchmarkQueryWindowCold: the full-extent query with caching off —
// every iteration preads, CRC-checks and delta-decodes all 1000
// records. The baseline BenchmarkQueryWindowCached is compared against.
func BenchmarkQueryWindowCold(b *testing.B) { benchWindowCached(b, 0, false) }

// BenchmarkQueryWindowCached: the same query with a warm 16 MiB record
// cache — every record serves from memory (asserted: zero decodes).
func BenchmarkQueryWindowCached(b *testing.B) { benchWindowCached(b, 16<<20, true) }

// BenchmarkQueryWindowLargeActive: one active segment — no
// segment-level pruning possible — holding 200 time-ordered rounds of
// 250 devices (50k records, one per device per one-minute round),
// queried with a 10-minute, ~500 m window. The cell index must rule out
// at least 80% of the records without testing their own metadata
// (asserted).
func BenchmarkQueryWindowLargeActive(b *testing.B) {
	const devices, rounds = 250, 200
	l, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { l.Close() })
	// Device d parks in its own cell of a 16-wide grid (0.01° ≈ 1.1 km
	// apart) and drifts about 1 m per round.
	keys := make([]trajstore.GeoKey, 8)
	for r := 0; r < rounds; r++ {
		for d := 0; d < devices; d++ {
			lat0 := float64(d/16)*0.01 + float64(r)*1e-5
			lon0 := float64(d%16)*0.01 + float64(r)*1e-5
			for i := range keys {
				keys[i] = trajstore.GeoKey{
					Lat: math.Round((lat0+float64(i)*1e-5)*1e7) / 1e7,
					Lon: math.Round((lon0+float64(i)*1e-5)*1e7) / 1e7,
					T:   uint32(60*r + 7*i),
				}
			}
			if err := l.Append(fmt.Sprintf("dev-%03d", d), keys); err != nil {
				b.Fatal(err)
			}
		}
	}
	if s := l.Stats(); s.Segments != 1 || s.Records != devices*rounds {
		b.Fatalf("fixture is not one active segment of %d records: %+v", devices*rounds, s)
	}
	// Rounds 100–109 around device 37's cell (≈ 500 m across).
	const lat, lon, half = 0.02, 0.05, 0.00225
	benchCellPruned(b, l, lon-half, lat-half, lon+half, lat+half, 60*100, 60*110-1, 0.8)
}

// BenchmarkQueryWindowMixedFleet is the shape the cell index exists
// for: 1000 devices reporting once a minute for 200 rounds from random
// positions across a ~10 km square, so every run of consecutive records
// spans the whole area and prunes only by time. A 500 m, 10-minute
// window must leave at least 90% of the records of the segments it
// reaches untested by their own metadata (asserted).
func BenchmarkQueryWindowMixedFleet(b *testing.B) {
	const devices, rounds, area = 1000, 200, 0.09
	l, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { l.Close() })
	rng := rand.New(rand.NewSource(1))
	keys := make([]trajstore.GeoKey, 8)
	for r := 0; r < rounds; r++ {
		for d := 0; d < devices; d++ {
			lat0, lon0 := area*rng.Float64(), area*rng.Float64()
			for i := range keys {
				keys[i] = trajstore.GeoKey{
					Lat: math.Round((lat0+float64(i)*2e-5)*1e7) / 1e7,
					Lon: math.Round((lon0+float64(i)*1e-5)*1e7) / 1e7,
					T:   uint32(60*r + 7*i),
				}
			}
			if err := l.Append(fmt.Sprintf("dev-%04d", d), keys); err != nil {
				b.Fatal(err)
			}
		}
	}
	// Rounds 100–109, a window ≈ 500 m across in the middle of the area.
	const mid, half = area / 2, 0.00225
	benchCellPruned(b, l, mid-half, mid-half, mid+half, mid+half, 60*100, 60*110-1, 0.9)
}

// benchCellPruned runs one window query and asserts the share of the
// indexed records the cell index ruled out on its own.
func benchCellPruned(b *testing.B, l *Log, minX, minY, maxX, maxY float64, t0, t1 uint32, minFrac float64) {
	b.Helper()
	var ws WindowStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, s, err := l.QueryWindowStats(minX, minY, maxX, maxY, t0, t1)
		if err != nil {
			b.Fatal(err)
		}
		ws = s
	}
	b.StopTimer()
	frac := float64(ws.RecordsCellPruned) / float64(ws.RecordsIndexed)
	b.ReportMetric(frac, "cell-pruned-frac")
	b.ReportMetric(float64(ws.RecordsMatched), "matched/op")
	if ws.RecordsMatched == 0 {
		b.Fatalf("window matched nothing: %+v", ws)
	}
	if frac < minFrac {
		b.Fatalf("cell index ruled out %d of %d records (%.1f%%), want ≥ %.0f%%",
			ws.RecordsCellPruned, ws.RecordsIndexed, 100*frac, 100*minFrac)
	}
}
