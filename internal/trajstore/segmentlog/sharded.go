package segmentlog

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"

	"github.com/trajcomp/bqs/internal/trajstore"
	"github.com/trajcomp/bqs/internal/trajstore/segmentlog/vfs"
)

// A ShardedLog fans one logical segment log out over N independent
// shard logs, each in its own subdirectory with its own MANIFEST,
// segment files and block indexes. Devices are routed by
// trajstore.ShardIndex — the same function the ingestion engine uses —
// so when engine and log shard counts agree, each engine shard appends
// into a log shard no other worker touches: appends, flushes, Syncs and
// compactions of different shards share no lock and no file.
//
// On-disk layout:
//
//	dir/SHARDS      CRC-sealed shard count; its existence marks the
//	                directory as sharded and is the migration commit point
//	dir/LOCK        the writer flock — deliberately the same path a
//	                single Log locks, so legacy and sharded writers
//	                exclude each other
//	dir/shard-000/  a complete, self-contained segment log
//	dir/shard-001/  ...
//
// Each shard directory is a full Log: MANIFEST generations,
// crash-at-every-step compaction recovery and bqsrecover all work on it
// unchanged. The shard count is fixed at creation (it determines where
// every already-persisted device lives) and persisted in SHARDS; later
// opens use the persisted count regardless of what the caller asks for.
//
// Opening a legacy single-log directory writable migrates it in place:
// records are re-appended device by device into the shard logs (which
// also upgrades any version-1 records to the current format), SHARDS is
// published atomically, and only then are the legacy root files
// deleted. A crash before the SHARDS rename leaves the legacy log
// intact and the half-built shard directories as debris the next open
// removes; a crash after it leaves at worst legacy files the next open
// finishes deleting. bqsrecover detects SHARDS and recurses.
type ShardedLog struct {
	dir    string
	ro     bool
	fs     vfs.FS // never nil; resolved from Options.FS at open
	lock   vfs.File
	shards []*Log
	// cache is the read-side record cache shared by every shard log
	// (nil when Options.CacheBytes is zero): one byte budget for the
	// whole tree, instead of N independent budgets that would let a
	// hot shard starve while cold shards hold empty reserves.
	cache *recordCache

	mu     sync.Mutex
	closed bool
}

const (
	shardsName    = "SHARDS"
	shardsTmpName = "SHARDS.tmp"
	shardsMagic   = "BQSSHARDS 1"

	// MaxShards bounds the SHARDS count accepted on open; a corrupt or
	// hostile count must not make Open allocate unbounded directories.
	MaxShards = 1024
)

// shardDirName returns the subdirectory name of shard i.
func shardDirName(i int) string { return fmt.Sprintf("shard-%03d", i) }

// formatShards renders the SHARDS file: magic, count, and a CRC-32C
// sealing both — the same self-validation idiom as the MANIFEST.
func formatShards(n int) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s\nshards %d\n", shardsMagic, n)
	fmt.Fprintf(&b, "crc %08x\n", crc32.Checksum(b.Bytes(), castagnoli))
	return b.Bytes()
}

// parseShards decodes and validates a SHARDS file.
func parseShards(data []byte) (int, error) {
	crcAt := bytes.LastIndex(data, []byte("\ncrc "))
	if crcAt < 0 {
		return 0, fmt.Errorf("%w: SHARDS: missing crc line", ErrCorrupt)
	}
	covered := data[:crcAt+1]
	crcLine := string(data[crcAt+1:])
	if !strings.HasSuffix(crcLine, "\n") {
		return 0, fmt.Errorf("%w: SHARDS: truncated crc line", ErrCorrupt)
	}
	crcHex := strings.TrimSuffix(strings.TrimPrefix(crcLine, "crc "), "\n")
	want, err := strconv.ParseUint(crcHex, 16, 32)
	if err != nil || len(crcHex) != 8 {
		return 0, fmt.Errorf("%w: SHARDS: bad crc field", ErrCorrupt)
	}
	if got := crc32.Checksum(covered, castagnoli); got != uint32(want) {
		return 0, fmt.Errorf("%w: SHARDS: crc mismatch (%08x != %08x)", ErrCorrupt, got, want)
	}
	lines := strings.Split(string(covered), "\n")
	if len(lines) != 3 || lines[0] != shardsMagic || lines[2] != "" {
		return 0, fmt.Errorf("%w: SHARDS: bad layout", ErrCorrupt)
	}
	n, err := strconv.Atoi(strings.TrimPrefix(lines[1], "shards "))
	if err != nil || !strings.HasPrefix(lines[1], "shards ") {
		return 0, fmt.Errorf("%w: SHARDS: bad shards line %q", ErrCorrupt, lines[1])
	}
	if n < 1 || n > MaxShards {
		return 0, fmt.Errorf("%w: SHARDS: count %d out of range [1, %d]", ErrCorrupt, n, MaxShards)
	}
	return n, nil
}

// readShards reads dir's SHARDS file; found is false when none exists.
func readShards(fsys vfs.FS, dir string) (n int, found bool, err error) {
	data, err := fsys.ReadFile(filepath.Join(dir, shardsName))
	if os.IsNotExist(err) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, fmt.Errorf("segmentlog: %w", err)
	}
	n, err = parseShards(data)
	if err != nil {
		return 0, true, err
	}
	return n, true, nil
}

// writeShards atomically publishes dir's SHARDS file: temp file, fsync,
// rename, directory fsync. This is the commit point of both fresh
// sharded-log creation and legacy migration.
func writeShards(fsys vfs.FS, dir string, n int) error {
	tmp := filepath.Join(dir, shardsTmpName)
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("segmentlog: SHARDS: %w", err)
	}
	if _, err := f.Write(formatShards(n)); err == nil {
		err = f.Sync()
	}
	if err != nil {
		_ = f.Close() // publish failed; the write/fsync error is the story
		fsys.Remove(tmp)
		return fmt.Errorf("segmentlog: SHARDS: %w", err)
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("segmentlog: SHARDS: %w", err)
	}
	if err := fsys.Rename(tmp, filepath.Join(dir, shardsName)); err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("segmentlog: SHARDS: %w", err)
	}
	return syncDir(fsys, dir)
}

// OpenSharded opens (creating or migrating if necessary) the sharded
// segment log in dir. shards is the shard count for a directory that
// does not hold one yet (≤ 0 means GOMAXPROCS); a directory that does —
// SHARDS exists — keeps its persisted count, since it determines where
// every already-stored device lives. A legacy single-log directory is
// migrated in place (see ShardedLog). With Options.ReadOnly nothing is
// created, locked or migrated: the directory must already be sharded.
func OpenSharded(dir string, shards int, opts Options) (*ShardedLog, error) {
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	if shards > MaxShards {
		return nil, fmt.Errorf("segmentlog: shard count %d exceeds MaxShards %d", shards, MaxShards)
	}
	fsys := opts.FS
	if fsys == nil {
		fsys = vfs.OS
	}
	s := &ShardedLog{dir: dir, ro: opts.ReadOnly, fs: fsys}
	if opts.cache == nil {
		opts.cache = newRecordCache(opts.CacheBytes)
	}
	s.cache = opts.cache
	if s.ro {
		n, found, err := readShards(s.fs, dir)
		if err != nil {
			return nil, err
		}
		if !found {
			return nil, fmt.Errorf("segmentlog: %s is not a sharded log (no SHARDS file); open it as a single log", dir)
		}
		return s, s.openShards(n, opts)
	}

	if err := s.fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("segmentlog: %w", err)
	}
	lock, err := acquireLock(s.fs, dir)
	if err != nil {
		return nil, err
	}
	s.lock = lock
	ok := false
	defer func() {
		if !ok {
			s.releaseLock()
		}
	}()

	n, found, err := readShards(s.fs, dir)
	if err != nil {
		return nil, err
	}
	if found {
		// Already sharded. A crash between the SHARDS commit and the end
		// of migration may have left legacy root files behind — finish
		// deleting them before anything else re-reads them.
		if err := removeLegacyFiles(s.fs, dir); err != nil {
			return nil, err
		}
	} else {
		n = shards
		// Shard directories without a SHARDS file are debris of a
		// migration (or creation) that crashed before its commit point;
		// the legacy root files are still the authoritative copy, so
		// rebuild from scratch.
		if err := removeShardDirs(s.fs, dir); err != nil {
			return nil, err
		}
		if hasLegacy, err := hasLegacyLog(s.fs, dir); err != nil {
			return nil, err
		} else if hasLegacy {
			if err := s.migrateLegacy(n, opts); err != nil {
				return nil, err
			}
		} else {
			if err := s.openShards(n, opts); err != nil {
				return nil, err
			}
			if err := writeShards(s.fs, dir, n); err != nil {
				s.closeShards()
				return nil, err
			}
		}
		ok = true
		return s, nil
	}
	if err := s.openShards(n, opts); err != nil {
		return nil, err
	}
	ok = true
	return s, nil
}

// openShards opens the n shard logs. Writable shard opens take no
// per-shard flock: the top-level LOCK already excludes every other
// writer of the tree (including legacy single-log writers, which lock
// the same path).
func (s *ShardedLog) openShards(n int, opts Options) error {
	s.shards = make([]*Log, 0, n)
	for i := 0; i < n; i++ {
		sub := filepath.Join(s.dir, shardDirName(i))
		var (
			lg  *Log
			err error
		)
		if s.ro {
			lg, err = Open(sub, opts)
		} else {
			lg, err = openNoLock(sub, opts)
		}
		if err != nil {
			s.closeShards()
			return fmt.Errorf("segmentlog: shard %d: %w", i, err)
		}
		s.shards = append(s.shards, lg)
	}
	return nil
}

// closeShards closes whatever shards are open, ignoring errors; used on
// failed-open unwind paths.
func (s *ShardedLog) closeShards() {
	for _, lg := range s.shards {
		if lg != nil {
			_ = lg.Close() // unwind of a failed open; the open error is the story
		}
	}
	s.shards = nil
}

// hasLegacyLog reports whether dir's root holds a single-log: a
// MANIFEST, or (pre-manifest layouts) any segment file.
func hasLegacyLog(fsys vfs.FS, dir string) (bool, error) {
	if _, err := fsys.Stat(filepath.Join(dir, manifestName)); err == nil {
		return true, nil
	} else if !errors.Is(err, fs.ErrNotExist) {
		return false, fmt.Errorf("segmentlog: %w", err)
	}
	matches, err := fsys.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil {
		return false, fmt.Errorf("segmentlog: %w", err)
	}
	return len(matches) > 0, nil
}

// removeShardDirs deletes every shard-* subdirectory of dir.
func removeShardDirs(fsys vfs.FS, dir string) error {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("segmentlog: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "shard-") {
			if err := fsys.RemoveAll(filepath.Join(dir, e.Name())); err != nil {
				return fmt.Errorf("segmentlog: removing stale %s: %w", e.Name(), err)
			}
		}
	}
	return nil
}

// removeLegacyFiles deletes the single-log files from dir's root: the
// MANIFEST, its temp file, and every segment and block-index file. Only
// called once SHARDS exists (the shards hold all the data).
func removeLegacyFiles(fsys vfs.FS, dir string) error {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("segmentlog: %w", err)
	}
	removed := false
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		_, isSeg := parseSegName(name)
		_, isIdx := parseIdxName(name)
		if !isSeg && !isIdx && name != manifestName && name != manifestTmpName {
			continue
		}
		if err := fsys.Remove(filepath.Join(dir, name)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("segmentlog: removing legacy %s: %w", name, err)
		}
		removed = true
	}
	if removed {
		return syncDir(fsys, dir)
	}
	return nil
}

// migrateLegacy converts dir's single log into n shard logs: open the
// legacy log with full recovery semantics (torn tails, manifest
// adoption), re-append every record into the shard it routes to — which
// also re-encodes version-1 records into the current format — sync the
// shards durable, publish SHARDS (the commit point), and delete the
// legacy files. The legacy root stays untouched until SHARDS exists, so
// a crash anywhere before the commit loses nothing.
func (s *ShardedLog) migrateLegacy(n int, opts Options) error {
	legacy, err := openNoLock(s.dir, opts)
	if err != nil {
		return fmt.Errorf("segmentlog: migrating legacy log: %w", err)
	}
	defer legacy.Close()
	if err := s.openShards(n, opts); err != nil {
		return err
	}
	for _, dev := range legacy.Devices() {
		recs, err := legacy.Query(dev, 0, math.MaxUint32)
		if err != nil {
			s.closeShards()
			return fmt.Errorf("segmentlog: migrating %q: %w", dev, err)
		}
		lg := s.shards[trajstore.ShardIndex(dev, n)]
		for _, r := range recs {
			if err := lg.Append(dev, r.Keys); err != nil {
				s.closeShards()
				return fmt.Errorf("segmentlog: migrating %q: %w", dev, err)
			}
		}
	}
	if err := s.each(func(lg *Log) error { return lg.Sync() }); err != nil {
		s.closeShards()
		return err
	}
	if err := writeShards(s.fs, s.dir, n); err != nil {
		s.closeShards()
		return err
	}
	if err := legacy.Close(); err != nil {
		// The migration is already committed; the stale legacy files are
		// removed below regardless.
		_ = err
	}
	return removeLegacyFiles(s.fs, s.dir)
}

// releaseLock drops the top-level directory lock; a no-op in read-only
// mode or after release.
func (s *ShardedLog) releaseLock() {
	if s.lock == nil {
		return
	}
	syscall.Flock(int(s.lock.Fd()), syscall.LOCK_UN)
	_ = s.lock.Close() // the unlock above is what matters; nothing was written
	s.lock = nil
}

// each runs f on every shard concurrently and joins the errors.
func (s *ShardedLog) each(f func(lg *Log) error) error {
	errs := make([]error, len(s.shards))
	var wg sync.WaitGroup
	for i, lg := range s.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = f(lg)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Dir returns the sharded log's root directory.
func (s *ShardedLog) Dir() string { return s.dir }

// NumShards returns the shard count (trajstore.ShardedPersister).
func (s *ShardedLog) NumShards() int { return len(s.shards) }

// ShardPersister exposes shard i as a Persister
// (trajstore.ShardedPersister): the engine binds each of its shard
// workers straight to the log shard it owns.
func (s *ShardedLog) ShardPersister(i int) trajstore.Persister { return s.shards[i] }

// ShardLog exposes shard i's underlying Log — for tests and tooling
// (bqsrecover) that need per-shard inspection.
func (s *ShardedLog) ShardLog(i int) *Log { return s.shards[i] }

// shardFor routes a device to its shard.
func (s *ShardedLog) shardFor(device string) *Log {
	return s.shards[trajstore.ShardIndex(device, len(s.shards))]
}

// Append persists one finalized trajectory into the device's shard.
func (s *ShardedLog) Append(device string, keys []trajstore.GeoKey) error {
	return s.shardFor(device).Append(device, keys)
}

// Sync is the durability barrier across all shards; the per-shard
// fsyncs run concurrently.
func (s *ShardedLog) Sync() error {
	return s.each(func(lg *Log) error { return lg.Sync() })
}

// Close syncs and closes every shard, then releases the top-level lock
// — strictly last, so no other writer can enter the tree while any
// shard still has buffered or in-flight state. Each shard's Close
// serializes behind that shard's running compaction, so a concurrent
// CompactNow finishes or aborts cleanly first.
func (s *ShardedLog) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.closed = true
	err := s.each(func(lg *Log) error { return lg.Close() })
	s.releaseLock()
	return err
}

// Query returns the device's records from its shard (same contract as
// Log.Query).
func (s *ShardedLog) Query(device string, t0, t1 uint32) ([]Record, error) {
	return s.shardFor(device).Query(device, t0, t1)
}

// DeviceSpan returns the record count and time bounds indexed for a
// device (same contract as Log.DeviceSpan).
func (s *ShardedLog) DeviceSpan(device string) (records int, t0, t1 uint32, ok bool) {
	return s.shardFor(device).DeviceSpan(device)
}

// Devices returns the device IDs across all shards, sorted. Routing
// assigns each device to exactly one shard, so the union is disjoint.
func (s *ShardedLog) Devices() []string {
	var out []string
	for _, lg := range s.shards {
		out = append(out, lg.Devices()...)
	}
	sort.Strings(out)
	return out
}

// Stats sums the per-shard bookkeeping. Devices is exact (each device
// lives in exactly one shard); Gen is the sum of the shard generations,
// so it is monotonic and moves iff some shard published.
func (s *ShardedLog) Stats() Stats {
	var out Stats
	for _, lg := range s.shards {
		st := lg.Stats()
		out.Segments += st.Segments
		out.IndexedSegs += st.IndexedSegs
		out.Records += st.Records
		out.Devices += st.Devices
		out.Bytes += st.Bytes
		out.Truncated += st.Truncated
		out.Gen += st.Gen
	}
	return out
}

// QueryWindow answers the spatio-temporal window query across all
// shards (same record contract as Log.QueryWindow). Results concatenate
// in shard order: within a shard they are in log order, but there is no
// global order across shards — callers needing one must sort.
func (s *ShardedLog) QueryWindow(minX, minY, maxX, maxY float64, t0, t1 uint32) ([]Record, error) {
	recs, _, err := s.QueryWindowStats(minX, minY, maxX, maxY, t0, t1)
	return recs, err
}

// QueryWindowStats is QueryWindow plus the pruning statistics summed
// over shards. Shards are queried concurrently.
func (s *ShardedLog) QueryWindowStats(minX, minY, maxX, maxY float64, t0, t1 uint32) ([]Record, WindowStats, error) {
	type shardOut struct {
		recs []Record
		ws   WindowStats
	}
	outs := make([]shardOut, len(s.shards))
	errs := make([]error, len(s.shards))
	var wg sync.WaitGroup
	for i, lg := range s.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i].recs, outs[i].ws, errs[i] = lg.QueryWindowStats(minX, minY, maxX, maxY, t0, t1)
		}()
	}
	wg.Wait()
	err := errors.Join(errs...)
	var recs []Record
	var ws WindowStats
	for _, o := range outs {
		recs = append(recs, o.recs...)
		ws.Segments += o.ws.Segments
		ws.SegmentsPruned += o.ws.SegmentsPruned
		ws.RecordsIndexed += o.ws.RecordsIndexed
		ws.RecordsPruned += o.ws.RecordsPruned
		ws.RecordsCellPruned += o.ws.RecordsCellPruned
		ws.RecordsDecoded += o.ws.RecordsDecoded
		ws.RecordsMatched += o.ws.RecordsMatched
		ws.CacheHits += o.ws.CacheHits
	}
	if err != nil {
		return nil, ws, err
	}
	return recs, ws, nil
}

// Compact runs the compaction pipeline on every shard concurrently and
// sums the results. Gen is the sum of the generations the shards
// published (0 iff no shard rewrote anything). Policy Workers applies
// within each shard; shard-level parallelism comes on top, so a
// CompactNow over S shards with W workers each may decode S×W devices
// at once.
func (s *ShardedLog) Compact(p CompactionPolicy) (CompactionResult, error) {
	results := make([]CompactionResult, len(s.shards))
	errs := make([]error, len(s.shards))
	var wg sync.WaitGroup
	for i, lg := range s.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = lg.Compact(p)
		}()
	}
	wg.Wait()
	var out CompactionResult
	for _, r := range results {
		out.SegmentsIn += r.SegmentsIn
		out.SegmentsOut += r.SegmentsOut
		out.RecordsIn += r.RecordsIn
		out.RecordsOut += r.RecordsOut
		out.BytesIn += r.BytesIn
		out.BytesOut += r.BytesOut
		out.Merged += r.Merged
		out.Deduped += r.Deduped
		out.Aged += r.Aged
		out.Gen += r.Gen
	}
	return out, errors.Join(errs...)
}

// CompactNow runs Compact with the policy configured in
// Options.Compaction; a no-op when none was configured
// (trajstore.Compacter, the engine's periodic compaction hook).
func (s *ShardedLog) CompactNow() error {
	if len(s.shards) == 0 {
		return ErrClosed
	}
	if s.shards[0].opts.Compaction == nil {
		return nil
	}
	_, err := s.Compact(*s.shards[0].opts.Compaction)
	return err
}
