package main

import (
	"testing"

	"github.com/trajcomp/bqs/internal/trajstore"
	"github.com/trajcomp/bqs/internal/trajstore/segmentlog"
	"github.com/trajcomp/bqs/internal/trajstore/segmentlog/vfs"
)

// TestSyncCounter checks that the replay's fsync count comes from the
// log's own File.Sync calls: a barrier after an append adds to it.
func TestSyncCounter(t *testing.T) {
	c := &syncCounter{FS: vfs.OS}
	lg, err := segmentlog.OpenSharded(t.TempDir(), 2, segmentlog.Options{FS: c})
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	n0 := c.n.Load()
	if err := lg.Append("d1", []trajstore.GeoKey{{Lon: 1, Lat: 2, T: 3}, {Lon: 1.001, Lat: 2, T: 9}}); err != nil {
		t.Fatal(err)
	}
	if err := lg.Sync(); err != nil {
		t.Fatal(err)
	}
	if n := c.n.Load(); n <= n0 || c.ns.Load() <= 0 {
		t.Fatalf("Sync after an append: %d fsyncs counted before, %d after, %d ns", n0, n, c.ns.Load())
	}
}
