package engine

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"github.com/trajcomp/bqs/internal/core"
	"github.com/trajcomp/bqs/internal/trajstore"
	"github.com/trajcomp/bqs/internal/trajstore/segmentlog"
)

// gridWalk builds a random walk for device d snapped to the wire
// format's resolution (0.01 m at the default 1e5 m/°) with whole-second
// timestamps, so every emitted key point survives the persist round
// trip bit-exactly and the in-memory and durable ground truths can be
// compared as equal sets. Device d walks inside its own ~2 km cell.
func gridWalk(d, n int, rng *rand.Rand) []core.Point {
	snap := func(v float64) float64 { return math.Round(v*100) / 100 }
	x := float64(d%4) * 2000
	y := float64(d/4) * 2000
	t := 1000.0
	pts := make([]core.Point, n)
	for i := range pts {
		x += rng.Float64()*20 - 10
		y += rng.Float64()*20 - 10
		t += float64(rng.Intn(4) + 1)
		pts[i] = core.Point{X: snap(x), Y: snap(y), T: t}
	}
	return pts
}

// pairKey identifies one trajectory segment (a consecutive key-point
// pair) at the wire format's resolution — 1e-7° coordinates, whole
// seconds — which is exactly what survives the persist round trip, so a
// memtable pair and its durable copy map to the same key.
type pairKey [6]int64

// quantT clamps a metric-plane timestamp to the wire format's uint32
// seconds, matching trajstore.PointKeysToGeo.
func quantT(t float64) int64 {
	if t < 0 {
		return 0
	}
	if t > math.MaxUint32 {
		return math.MaxUint32
	}
	return int64(uint32(t))
}

// pairKeyOf quantizes a metric-plane segment. m is metres per degree.
func pairKeyOf(a, b core.Point, m float64) pairKey {
	return pairKey{
		int64(math.Round(a.Y / m * 1e7)), int64(math.Round(a.X / m * 1e7)), quantT(a.T),
		int64(math.Round(b.Y / m * 1e7)), int64(math.Round(b.X / m * 1e7)), quantT(b.T),
	}
}

// pairCounts reduces segments to a multiset of wire-resolution pair
// keys.
func pairCounts(segs []trajstore.Segment, m float64) map[pairKey]int {
	out := make(map[pairKey]int, len(segs))
	for _, s := range segs {
		out[pairKeyOf(s.A, s.B, m)]++
	}
	return out
}

// addCounts returns the multiset sum of a and b.
func addCounts(a, b map[pairKey]int) map[pairKey]int {
	out := make(map[pairKey]int, len(a)+len(b))
	for k, n := range a {
		out[k] += n
	}
	for k, n := range b {
		out[k] += n
	}
	return out
}

// diffCounts compares two pair multisets: missing counts occurrences in
// want but not in got, extra the reverse.
func diffCounts(want, got map[pairKey]int) (missing, extra int) {
	for k, n := range want {
		if d := n - got[k]; d > 0 {
			missing += d
		}
	}
	for k, n := range got {
		if d := n - want[k]; d > 0 {
			extra += d
		}
	}
	return missing, extra
}

// total is the size of a pair multiset.
func total(c map[pairKey]int) int {
	n := 0
	for _, v := range c {
		n += v
	}
	return n
}

// durablePairs derives the exact-filtered pair multiset from a raw
// log's window query — what the wire QueryWindow's records carry.
func durablePairs(t *testing.T, lg trajstore.WindowQuerier, minX, minY, maxX, maxY float64, t0, t1 uint32, m float64) map[pairKey]int {
	t.Helper()
	recs, err := lg.QueryWindow(minX/m, minY/m, maxX/m, maxY/m, t0, t1)
	if err != nil {
		t.Fatal(err)
	}
	w := window{minX, minY, maxX, maxY, float64(t0), float64(t1)}
	var segs []trajstore.Segment
	for _, rec := range recs {
		segs = w.appendGeo(segs, rec.Keys, m)
	}
	return pairCounts(segs, m)
}

// newTwin returns the oracle engine: non-persisting, with a
// MergeTolerance-0 store that keeps every emitted pair verbatim. Fed the
// same fixes (and the same session flushes) as a durable engine, its
// store is the ground truth of what the durable engine must report.
func newTwin(t *testing.T, shards int) *Engine {
	t.Helper()
	e, err := New(Config{Compressor: "fbqs", Tolerance: 5, Shards: shards, Store: trajstore.Config{}})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// twinWindow is the oracle's pair multiset for a window.
func twinWindow(tw *Engine, minX, minY, maxX, maxY float64, t0, t1 uint32, m float64) map[pairKey]int {
	return pairCounts(tw.Stores().QueryWindow(minX, minY, maxX, maxY, float64(t0), float64(t1)), m)
}

// diffWindows are the randomized-plus-corner windows of the
// differential test. Boundaries sit at x.5 cm offsets, half a quantum
// off the snapped coordinate grid, so inclusion can never be decided
// by floating-point luck on either side.
func diffWindows(rng *rand.Rand) [][6]float64 {
	ws := [][6]float64{
		{-1e6, -1e6, 1e6, 1e6, 0, math.MaxUint32},               // everything
		{0.005, 0.005, 1900.005, 1900.005, 0, math.MaxUint32},   // one cell
		{-1e6, -1e6, 1e6, 1e6, 1000, 1200},                      // early time slice
		{123456.005, 123456.005, 123466.005, 123466.005, 0, 10}, // empty
	}
	for i := 0; i < 8; i++ {
		x0 := math.Floor(rng.Float64()*6000)*1 - 1000 + 0.005
		y0 := math.Floor(rng.Float64()*6000)*1 - 1000 + 0.005
		w := math.Floor(rng.Float64()*3000) + 1
		t0 := uint32(1000 + rng.Intn(400))
		t1 := t0 + uint32(rng.Intn(600))
		ws = append(ws, [6]float64{x0, y0, x0 + w, y0 + w, float64(t0), float64(t1)})
	}
	return ws
}

// TestDifferentialWindowQueries is the ground-truth property test: on
// a randomized multi-device fleet ingested with chunking, the durable
// log's QueryWindow must return exactly the trajectory segments an
// independent oracle — a non-persisting twin engine fed the same fixes,
// whose MergeTolerance-0 store keeps every pair — returns, as a
// multiset at wire resolution, across randomized windows, and again
// after crash-recovery and after compaction.
func TestDifferentialWindowQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dir := t.TempDir()
	lg, err := segmentlog.Open(dir, segmentlog.Options{MaxSegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	const m = 1e5
	e, err := New(Config{
		Compressor:   "fbqs",
		Tolerance:    5,
		Shards:       4,
		MaxTrailKeys: 7, // force chunked records with the 1-key overlap
		Persister:    lg,
	})
	if err != nil {
		t.Fatal(err)
	}
	twin := newTwin(t, 4)

	const devices, fixesPer = 12, 300
	tracks := make([][]core.Point, devices)
	for d := range tracks {
		tracks[d] = gridWalk(d, fixesPer, rng)
	}
	var fixes []Fix
	for i := 0; i < fixesPer; i++ {
		for d := range tracks {
			fixes = append(fixes, Fix{Device: fmt.Sprintf("dev-%02d", d), Point: tracks[d][i]})
		}
	}
	for lo := 0; lo < len(fixes); lo += 512 {
		hi := min(lo+512, len(fixes))
		for _, eng := range []*Engine{e, twin} {
			if err := eng.Ingest(fixes[lo:hi]); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, eng := range []*Engine{e, twin} {
		if err := eng.Close(); err != nil { // flushes every session (to the log, for e)
			t.Fatal(err)
		}
	}
	if n := e.Stores().Len(); n != 0 {
		t.Fatalf("durable engine fed its in-memory store: %d segments", n)
	}

	windows := diffWindows(rng)
	truth := make([]map[pairKey]int, len(windows))
	nonEmpty := 0
	for i, w := range windows {
		truth[i] = twinWindow(twin, w[0], w[1], w[2], w[3], uint32(w[4]), uint32(w[5]), m)
		if len(truth[i]) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 3 {
		t.Fatalf("degenerate windows: only %d non-empty ground truths", nonEmpty)
	}

	compare := func(stage string, lg *segmentlog.Log) {
		t.Helper()
		for i, w := range windows {
			got := durablePairs(t, lg, w[0], w[1], w[2], w[3], uint32(w[4]), uint32(w[5]), m)
			if missing, extra := diffCounts(truth[i], got); missing != 0 || extra != 0 {
				t.Fatalf("%s window %d: %d oracle segments missing from the log, %d extra (oracle %d)",
					stage, i, missing, extra, total(truth[i]))
			}
		}
	}

	// Leg 1: clean reopen (block-index load path).
	lg2, err := segmentlog.Open(dir, segmentlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	compare("reopen", lg2)
	if err := lg2.Close(); err != nil {
		t.Fatal(err)
	}

	// Leg 2: crash recovery — a torn append on the active segment is
	// truncated on reopen without disturbing any committed record.
	man, err := os.ReadFile(filepath.Join(dir, "MANIFEST"))
	if err != nil {
		t.Fatal(err)
	}
	last := ""
	for _, line := range splitLines(string(man)) {
		if len(line) > 4 && line[:4] == "seg " {
			last = line[4:]
			if i := indexByte(last, ' '); i >= 0 {
				last = last[:i]
			}
		}
	}
	f, err := os.OpenFile(filepath.Join(dir, last), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x55, 0x00, 0x00, 0x00, 0xde, 0xad, 0xbe, 0xef, 0x01, 0x02}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	lg3, err := segmentlog.Open(dir, segmentlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if lg3.Stats().Truncated == 0 {
		t.Fatal("torn tail not detected")
	}
	compare("crash-recovery", lg3)

	// Leg 3: compaction (chunk merge + dedup — polyline-preserving).
	if _, err := lg3.Compact(segmentlog.CompactionPolicy{MergeChunks: true}); err != nil {
		t.Fatal(err)
	}
	compare("compacted", lg3)
	if err := lg3.Close(); err != nil {
		t.Fatal(err)
	}

	// Leg 4: reopen of the compacted log.
	lg4, err := segmentlog.Open(dir, segmentlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lg4.Close()
	compare("compacted-reopen", lg4)
}

func splitLines(s string) []string {
	var out []string
	for len(s) > 0 {
		i := indexByte(s, '\n')
		if i < 0 {
			out = append(out, s)
			break
		}
		out = append(out, s[:i])
		s = s[i+1:]
	}
	return out
}

func indexByte(s string, b byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == b {
			return i
		}
	}
	return -1
}

// TestEngineQueryWindowMergesLiveAndDurable: one Engine.QueryWindow
// call sees un-persisted session trails (the memtable) and persisted
// history (the durable log) as a disjoint union, checked against a
// non-persisting twin engine. Re-ingesting a walk already in the log
// reports it once per traversal — the multiset the wire QueryWindow's
// records carry — rather than deduplicating the second traversal away.
func TestEngineQueryWindowMergesLiveAndDurable(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dir := t.TempDir()
	const m = 1e5
	newEngine := func() (*Engine, *segmentlog.Log) {
		t.Helper()
		lg, err := segmentlog.Open(dir, segmentlog.Options{})
		if err != nil {
			t.Fatal(err)
		}
		e, err := New(Config{
			Compressor: "fbqs", Tolerance: 5, Shards: 2,
			IdleTimeout: time.Hour, Persister: lg,
			Clock: func() time.Time { return time.Unix(0, 0) },
		})
		if err != nil {
			t.Fatal(err)
		}
		return e, lg
	}
	track := gridWalk(0, 400, rng)
	ingest := func(engs ...*Engine) {
		t.Helper()
		for _, eng := range engs {
			for i := range track {
				if err := eng.IngestOne("roamer", track[i]); err != nil {
					t.Fatal(err)
				}
			}
			if err := eng.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	query := func(e *Engine, maxX float64) map[pairKey]int {
		t.Helper()
		segs, err := e.QueryWindow(-1e6, -1e6, maxX, 1e6, 0, math.MaxUint32)
		if err != nil {
			t.Fatal(err)
		}
		return pairCounts(segs, m)
	}
	expect := func(stage string, want, got map[pairKey]int) {
		t.Helper()
		if total(want) == 0 {
			t.Fatalf("%s: empty oracle", stage)
		}
		if missing, extra := diffCounts(want, got); missing != 0 || extra != 0 {
			t.Fatalf("%s: %d oracle segments missing, %d extra (oracle %d, got %d)",
				stage, missing, extra, total(want), total(got))
		}
	}

	// Mid-session: nothing persisted yet, the memtable answers alone.
	e, _ := newEngine()
	twin := newTwin(t, 2)
	ingest(e, twin)
	expect("memtable only", twinWindow(twin, -1e6, -1e6, 1e6, 1e6, 0, math.MaxUint32, m), query(e, 1e6))
	if e.Stats().MemtableKeys == 0 {
		t.Fatal("open session reports an empty memtable")
	}

	// Close flushes the compressor (which may emit tail key points) and
	// the trail into the log; a restarted engine serves it from disk.
	for _, eng := range []*Engine{e, twin} {
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	}
	first := twinWindow(twin, -1e6, -1e6, 1e6, 1e6, 0, math.MaxUint32, m)
	e2, lg2 := newEngine()
	expect("restart, log only", first, query(e2, 1e6))

	// Re-ingest the same walk: the second traversal sits in the memtable
	// while the first is in the log; each is reported once.
	twin2 := newTwin(t, 2)
	ingest(e2, twin2)
	if err := e2.EvictIdle(); err != nil { // IdleTimeout not elapsed: sessions stay
		t.Fatal(err)
	}
	expect("log + memtable", addCounts(first, twinWindow(twin2, -1e6, -1e6, 1e6, 1e6, 0, math.MaxUint32, m)), query(e2, 1e6))

	// A spatial sub-window agrees with the oracle too.
	xs := make([]float64, 0, len(track))
	for _, p := range track {
		xs = append(xs, p.X)
	}
	sort.Float64s(xs)
	midX := xs[len(xs)/2] + 0.005
	expect("sub-window", addCounts(
		twinWindow(twin, -1e6, -1e6, midX, 1e6, 0, math.MaxUint32, m),
		twinWindow(twin2, -1e6, -1e6, midX, 1e6, 0, math.MaxUint32, m)), query(e2, midX))

	// Flush the second traversal: both now come from the log, and the
	// engine's answer matches the raw log's (the wire QueryWindow).
	if err := e2.FlushSessions(); err != nil {
		t.Fatal(err)
	}
	if err := e2.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := twin2.Close(); err != nil {
		t.Fatal(err)
	}
	both := addCounts(first, twinWindow(twin2, -1e6, -1e6, 1e6, 1e6, 0, math.MaxUint32, m))
	expect("both flushed", both, query(e2, 1e6))
	expect("wire view", both, durablePairs(t, lg2, -1e6, -1e6, 1e6, 1e6, 0, math.MaxUint32, m))
	if n := e2.Stats().MemtableKeys; n != 0 {
		t.Fatalf("memtable holds %d keys after FlushSessions+Sync", n)
	}

	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := e2.QueryWindow(0, 0, 1, 1, 0, 1); err != ErrClosed {
		t.Fatalf("QueryWindow on closed engine = %v, want ErrClosed", err)
	}
}
