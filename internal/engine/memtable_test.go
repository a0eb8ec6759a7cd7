package engine

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"github.com/trajcomp/bqs/internal/trajstore"
	"github.com/trajcomp/bqs/internal/trajstore/segmentlog"
)

// handoffPersister is an in-memory window-queryable persister whose
// Append, while gated, announces the trail it was handed on entered and
// then blocks until the test sends the result to return on result — so
// a QueryWindow can run while a trail is mid-handoff. Like the segment
// log, it holds its lock across the whole Append, so a durable read
// that overlaps a handoff waits for it and sees the new record.
type handoffPersister struct {
	gated   atomic.Bool
	entered chan []trajstore.GeoKey
	result  chan error

	mu   sync.Mutex // the log lock
	recs []trajstore.PersistedRecord
}

func newHandoffPersister() *handoffPersister {
	return &handoffPersister{entered: make(chan []trajstore.GeoKey), result: make(chan error)}
}

func (p *handoffPersister) Append(device string, keys []trajstore.GeoKey) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.gated.Load() {
		p.entered <- keys
		if err := <-p.result; err != nil {
			return err
		}
	}
	p.recs = append(p.recs, trajstore.PersistedRecord{
		Device: device, T0: keys[0].T, T1: keys[len(keys)-1].T,
		Keys: append([]trajstore.GeoKey(nil), keys...),
	})
	return nil
}

func (p *handoffPersister) Sync() error  { return nil }
func (p *handoffPersister) Close() error { return nil }

// QueryWindow returns every record; the engine filters pairs exactly.
func (p *handoffPersister) QueryWindow(minX, minY, maxX, maxY float64, t0, t1 uint32) ([]trajstore.PersistedRecord, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]trajstore.PersistedRecord(nil), p.recs...), nil
}

// queryAll is a whole-extent Engine.QueryWindow reduced to a pair
// multiset.
func queryAll(t *testing.T, e *Engine) map[pairKey]int {
	t.Helper()
	segs, err := e.QueryWindow(-1e6, -1e6, 1e6, 1e6, 0, math.MaxUint32)
	if err != nil {
		t.Error(err)
	}
	return pairCounts(segs, 1e5)
}

// handoffSeen is one query taken while a trail was being handed off.
type handoffSeen struct {
	trail []trajstore.GeoKey
	got   map[pairKey]int
}

// driveHandoffs runs act in the background. For every gated Append it
// triggers, it starts a whole-extent QueryWindow beside the blocked
// Append, then answers the Append with the next of results (nil once
// they run out). Every such query must report each pair exactly once —
// the in-flight trail's pairs included, whether the query ran before
// the Append returned, during a retry backoff or after. It returns the
// number of Appends seen.
func driveHandoffs(t *testing.T, stage string, e *Engine, p *handoffPersister, act func() error, results ...error) int {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- act() }()
	seen := make(chan handoffSeen)
	n, pending := 0, 0
	check := func(s handoffSeen) {
		t.Helper()
		for k, c := range s.got {
			if c != 1 {
				t.Fatalf("%s: pair %v reported %d times mid-handoff", stage, k, c)
			}
		}
		for i := 0; i+1 < len(s.trail); i++ {
			k := pairKeyOf(geoPoint(s.trail[i], 1e5), geoPoint(s.trail[i+1], 1e5), 1e5)
			if s.got[k] != 1 {
				t.Fatalf("%s: in-flight trail pair %d reported %d times, want 1", stage, i, s.got[k])
			}
		}
	}
	for {
		select {
		case trail := <-p.entered:
			pending++
			go func() { seen <- handoffSeen{trail, queryAll(t, e)} }()
			time.Sleep(time.Millisecond) // let the query reach the shard locks
			var res error
			if n < len(results) {
				res = results[n]
			}
			n++
			p.result <- res
		case s := <-seen:
			pending--
			check(s)
		case err := <-done:
			if err != nil {
				t.Fatalf("%s: %v", stage, err)
			}
			for ; pending > 0; pending-- {
				check(<-seen)
			}
			return n
		}
	}
}

// TestMemtableHandoffExactlyOnce pins the memtable-xor-log invariant
// under -race: while a trail is mid-handoff to a blocked persister
// Append, a concurrent QueryWindow reports every pair exactly once — on
// trail chunking, idle eviction, FlushSessions (including a transient
// failure whose retry backoff releases the shard lock), and a degraded
// park followed by Heal. After each stage the engine's answer equals a
// non-persisting twin's.
func TestMemtableHandoffExactlyOnce(t *testing.T) {
	const m = 1e5
	p := newHandoffPersister()
	var now atomic.Int64
	e, err := New(Config{
		Compressor: "fbqs", Tolerance: 5, Shards: 2,
		Persister:    p,
		MaxTrailKeys: 5,
		IdleTimeout:  time.Hour,
		PersistRetry: RetryPolicy{BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond},
		Clock:        func() time.Time { return time.Unix(now.Load(), 0) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { // a failed stage may leave an Append gated: release it
		p.gated.Store(false)
		go func() {
			for range p.entered {
				p.result <- nil
			}
		}()
		e.Close()
		close(p.entered)
	}()
	twin := newTwin(t, 2)
	defer twin.Close()

	rng := rand.New(rand.NewSource(17))
	const devices = 6
	tracks := make([][]Fix, devices)
	for d := range tracks {
		for _, pt := range gridWalk(d, 240, rng) {
			tracks[d] = append(tracks[d], Fix{Device: fmt.Sprintf("dev-%d", d), Point: pt})
		}
	}
	ingest := func(lo, hi int) func() error {
		var fixes []Fix
		for i := lo; i < hi; i++ {
			for d := range tracks {
				fixes = append(fixes, tracks[d][i])
			}
		}
		if err := twin.Ingest(fixes); err != nil {
			t.Fatal(err)
		}
		return func() error {
			if err := e.Ingest(fixes); err != nil {
				return err
			}
			return e.Sync()
		}
	}
	matchTwin := func(stage string) {
		t.Helper()
		if err := twin.Sync(); err != nil {
			t.Fatal(err)
		}
		want := twinWindow(twin, -1e6, -1e6, 1e6, 1e6, 0, math.MaxUint32, m)
		if missing, extra := diffCounts(want, queryAll(t, e)); missing != 0 || extra != 0 {
			t.Fatalf("%s: %d oracle pairs missing, %d extra (oracle %d)", stage, missing, extra, total(want))
		}
	}
	p.gated.Store(true)

	// Chunking: every fifth key point hands a trail to the log.
	if n := driveHandoffs(t, "chunking", e, p, ingest(0, 80)); n == 0 {
		t.Fatal("chunking: no trail was handed off")
	}
	matchTwin("chunking")

	// Idle eviction closes every session and hands off its final trail.
	now.Add(2 * 3600)
	if n := driveHandoffs(t, "idle eviction", e, p, e.EvictIdle); n == 0 {
		t.Fatal("idle eviction: no trail was handed off")
	}
	if err := twin.FlushSessions(); err != nil {
		t.Fatal(err)
	}
	matchTwin("idle eviction")

	// FlushSessions, the first Append failing transiently: the retry
	// backoff releases the shard lock with the trail still in memory.
	driveHandoffs(t, "chunking 2", e, p, ingest(80, 160))
	if n := driveHandoffs(t, "flush", e, p, e.FlushSessions, syscall.EAGAIN); n <= devices {
		t.Fatalf("flush: %d appends, want a retry on top of %d trails", n, devices)
	}
	if err := twin.FlushSessions(); err != nil {
		t.Fatal(err)
	}
	matchTwin("flush")
	if k := e.Stats().MemtableKeys; k != 0 {
		t.Fatalf("memtable holds %d keys after the flush", k)
	}

	// Degraded: the first final trail fails terminally and is parked,
	// every later one joins the park queue without an Append; Heal
	// drains them through the gated Append.
	driveHandoffs(t, "chunking 3", e, p, ingest(160, 240))
	errDisk := errors.New("disk gone")
	driveHandoffs(t, "park", e, p, e.FlushSessions, errDisk)
	if err := twin.FlushSessions(); err != nil {
		t.Fatal(err)
	}
	if !e.Degraded() || e.Stats().ParkedTrails == 0 {
		t.Fatalf("park: degraded=%v parked=%d, want a degraded engine with parked trails", e.Degraded(), e.Stats().ParkedTrails)
	}
	matchTwin("parked")
	if n := driveHandoffs(t, "heal", e, p, e.Heal); n == 0 {
		t.Fatal("heal: no parked trail was re-appended")
	}
	matchTwin("healed")
	if s := e.Stats(); s.ParkedTrails != 0 || s.MemtableKeys != 0 || s.Store.Inserted != 0 {
		t.Fatalf("after heal: parked %d, memtable %d keys, store inserts %d; want all 0",
			s.ParkedTrails, s.MemtableKeys, s.Store.Inserted)
	}
}

// TestMemtableBoundedAcrossRounds is the bounded-memory proof: a durable
// engine's memory holds only unpersisted trails, so after every round
// of ingest → FlushSessions → Sync the memtable is empty and the
// in-memory stores have never been fed — however much history the log
// has accumulated.
func TestMemtableBoundedAcrossRounds(t *testing.T) {
	lg, err := segmentlog.Open(t.TempDir(), segmentlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{Compressor: "fbqs", Tolerance: 5, Shards: 2, Persister: lg, MaxTrailKeys: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	rng := rand.New(rand.NewSource(23))
	const devices, perRound = 8, 60
	for round := 0; round < 20; round++ {
		var fixes []Fix
		for d := 0; d < devices; d++ {
			for _, pt := range gridWalk(d, perRound, rng) {
				pt.T += float64(round * 1000)
				fixes = append(fixes, Fix{Device: fmt.Sprintf("dev-%d", d), Point: pt})
			}
		}
		if err := e.Ingest(fixes); err != nil {
			t.Fatal(err)
		}
		if err := e.Sync(); err != nil {
			t.Fatal(err)
		}
		if e.Stats().MemtableKeys == 0 {
			t.Fatalf("round %d: open sessions report an empty memtable", round)
		}
		if err := e.FlushSessions(); err != nil {
			t.Fatal(err)
		}
		if err := e.Sync(); err != nil {
			t.Fatal(err)
		}
		s := e.Stats()
		if s.MemtableKeys != 0 || e.Stores().Len() != 0 || s.Store.Inserted != 0 {
			t.Fatalf("round %d: memtable %d keys, store %d segments (%d inserts); want all 0",
				round, s.MemtableKeys, e.Stores().Len(), s.Store.Inserted)
		}
	}
	if lg.Stats().Records == 0 {
		t.Fatal("nothing reached the log")
	}
}
