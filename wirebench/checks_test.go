package main

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/trajcomp/bqs/internal/core"
	"github.com/trajcomp/bqs/internal/stream"
	"github.com/trajcomp/bqs/internal/trajstore"
	"github.com/trajcomp/bqs/internal/trajstore/segmentlog"
)

// compressed runs a device's fixes through the compressor bqsd uses
// and returns the record it would persist.
func compressed(t *testing.T, dev string, fixes []trajstore.GeoKey) record {
	t.Helper()
	c, err := stream.New("fbqs", tolM)
	if err != nil {
		t.Fatal(err)
	}
	var pts []core.Point
	for _, k := range fixes {
		pts = append(pts, core.Point{X: k.Lon * mPerDeg, Y: k.Lat * mPerDeg, T: float64(k.T)})
	}
	keys := trajstore.PointKeysToGeo(stream.Compress(c, pts), mPerDeg, mPerDeg)
	return record{Device: dev, T0: keys[0].T, T1: keys[len(keys)-1].T, Keys: keys}
}

func TestBoundCheckCatchesShiftedRecord(t *testing.T) {
	f := newFleet(7, "dev", 4, 4)
	fr := f.frame(0, 4, 400)
	f.acked(fr)
	for _, b := range fr {
		rec := compressed(t, b.Device, b.Keys)
		if res := checkBound(b.Keys, []record{rec}, tolM); res.Violations != 0 || res.Fixes != 400 {
			t.Fatalf("%s: honest record fails the bound check: %+v", b.Device, res)
		}
		// Shift the end of the longest segment by twice the tolerance
		// across it: the fix at that key point now lies ~2·tol off the
		// segment's line.
		bad := record{Device: rec.Device, T0: rec.T0, T1: rec.T1, Keys: append([]trajstore.GeoKey(nil), rec.Keys...)}
		i, long := 1, 0.0
		for j := 1; j < len(bad.Keys); j++ {
			if l := math.Hypot(bad.Keys[j].Lon-bad.Keys[j-1].Lon, bad.Keys[j].Lat-bad.Keys[j-1].Lat); l > long {
				i, long = j, l
			}
		}
		dx, dy := bad.Keys[i].Lon-bad.Keys[i-1].Lon, bad.Keys[i].Lat-bad.Keys[i-1].Lat
		bad.Keys[i].Lon -= dy / long * 2 * tolM / mPerDeg
		bad.Keys[i].Lat += dx / long * 2 * tolM / mPerDeg
		if res := checkBound(b.Keys, []record{bad}, tolM); res.Violations == 0 {
			t.Fatalf("%s: record shifted by 2·tol passes the bound check (worst %.3f m)", b.Device, res.WorstM)
		}
		// A fix no durable segment covers is a lost fix.
		if res := checkBound(b.Keys, []record{{Device: rec.Device, Keys: rec.Keys[:len(rec.Keys)/2]}}, tolM); res.Violations == 0 {
			t.Fatalf("%s: truncated record passes the bound check", b.Device)
		}
	}
}

func TestWindowCheckCatchesDroppedResult(t *testing.T) {
	lg, err := segmentlog.OpenSharded(t.TempDir(), 2, segmentlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	f := newFleet(3, "dev", 50, 0)
	var all []record
	for round := 0; round < 4; round++ {
		for _, b := range f.frame(0, 50, 60) {
			rec := compressed(t, b.Device, b.Keys)
			if err := lg.Append(rec.Device, rec.Keys); err != nil {
				t.Fatal(err)
			}
			all = append(all, rec)
		}
	}
	g := windowGen{rng: rand.New(rand.NewSource(1)), t1: f.maxT()}
	var sample []answered
	for len(sample) < 20 {
		w := g.draw()
		got, err := lg.QueryWindow(w.minLon, w.minLat, w.maxLon, w.maxLat, w.t0, w.t1)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) > 0 {
			sample = append(sample, answered{w, got})
		}
	}
	if n, first := checkWindows(sample, all); n != 0 {
		t.Fatalf("honest answers fail the window check: %d, %s", n, first)
	}
	dropped := append([]answered(nil), sample...)
	dropped[5].got = dropped[5].got[1:]
	if n, _ := checkWindows(dropped, all); n != 1 {
		t.Fatalf("dropped window result: %d mismatches, want 1", n)
	}
	shifted := append([]record(nil), all...)
	for i, r := range shifted {
		if recID(r) == recID(sample[0].got[0]) {
			keys := append([]trajstore.GeoKey(nil), r.Keys...)
			keys[0].Lat += 2 * tolM / mPerDeg
			shifted[i].Keys = keys
		}
	}
	if n, _ := checkWindows(sample, shifted); n == 0 {
		t.Fatal("answer holding a record the log does not have passes the window check")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(xs)
	if got := fmt.Sprint(q1, q2, q3); got != "2.75 5.5 8.25" {
		t.Fatalf("quartiles = %s", got)
	}
}

func TestWalkerStaysOnWireGrid(t *testing.T) {
	w := newWalker(1, 0)
	for i := 0; i < 10000; i++ {
		k := w.next()
		if k.Lat != wireDeg(k.Lat) || k.Lon != wireDeg(k.Lon) || math.Abs(k.Lat) > 0.2 || math.Abs(k.Lon) > 0.2 {
			t.Fatalf("fix %d off the wire grid or area: %+v", i, k)
		}
	}
}
