// Write-ahead log: the store's crash-safety layer. A WAL is a data
// directory holding one append-only log file, wal.log, and a compacting
// snapshot. One file, not one per in-memory lock stripe: concurrent
// appenders meet in one file, where one write and one fsync commit all
// of them. Replay order is append order, every kind of record
// interleaved as it happened.
//
// The WAL carries opaque payloads: framing, checksums, fsync policy,
// compaction and torn-tail recovery live here; record semantics (what
// an observation batch or a device install looks like on disk) belong
// to the owner (internal/bms), which writes records before mutating
// in-memory state and replays them through ReplayLive at boot.
//
// Frames are the wire package's log frames (wire.AppendLogFrame):
//
//	[version 0x02][u32 payload length][u32 CRC32-C of gen+payload][u64 generation][payload]
//
// so one scanner (wire.Scan), one checksum and one tail contract serve
// uploads and logs. An appender frames its record into one pending
// buffer under the file mutex, which so covers a copy, not a syscall.
// A group — every frame pending when a writer takes the buffer — goes to
// the file in one Write: under FsyncBatch the sync leader writes its
// group and then fsyncs it; under the other policies an appender writes
// the group holding its frame before it returns, unless a concurrent
// writer already did (syncUpTo, writeUpTo). A killed process or a power
// or kernel crash can leave a short final write; recovery discards a
// torn or truncated FINAL frame (the file is repaired), and no frame of
// an unfinished write was acknowledged. A checksum-corrupted frame with
// valid data after it is silent damage in the middle of committed
// history and fails loudly.
//
// The log is fail-stop: the first failed write or sync stops it. Every
// frame not yet durable fails, and so does every later append, so
// nothing is ever written after the bytes a failed write may have left,
// and a sync the kernel failed is never retried into a success.
// Reopening — replay — is the recovery.
//
// The generation is the compaction barrier. A compaction is cut, land,
// reclaim (Compact): under a brief exclusive hold the owner captures its
// state, wal.log is synced whole and renamed to a generation-stamped
// sealed file, a fresh wal.log opens and the generation moves on; the
// snapshot is then written to snapshot-<gen+1> (atomically: temp file,
// fsync, rename) beside live appends; once it has landed, the sealed
// files and snapshots it covers are deleted. ReplayLive reads the newest
// snapshot's generation G, then every sealed file in generation order,
// then wal.log, skipping frames stamped below G — so a crash at any
// point recovers exactly: before the snapshot lands, from the old
// snapshot and every frame in append order; after it, from the new
// snapshot with the sealed frames skipped, reclaimed or not, which is
// what keeps destructive records (evictions) from re-applying over
// newer snapshot state.
package store

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"occusim/internal/obs"
	"occusim/internal/wire"
)

// walMetrics bundles the WAL's instrumentation handles. The WAL holds
// it behind an atomic pointer so Instrument can be called after the
// log is already appending; a nil load means telemetry is off and the
// hot path pays one predictable branch.
type walMetrics struct {
	appendLatency  *obs.Histogram // frame framed-to-durable, per policy
	fsyncLatency   *obs.Histogram // the fsync syscall alone
	groupCommit    *obs.Histogram // frames newly covered per fsync
	compactions    *obs.Counter   // successful compactions only
	compactErrors  *obs.Counter
	appendErrors   *obs.Counter   // appends the stopped log refused
	compactLatency *obs.Histogram // a whole compaction: cut, land and reclaim
	compactStall   *obs.Histogram // the cut alone: how long appenders were excluded
	tornRepairs    *obs.Counter
	size           *obs.Gauge // summed over every WAL on the registry
	rec            *obs.Recorder
}

// Instrument registers the WAL's series on m and starts feeding them.
// Torn-tail repairs found during a later ReplayLive and failed compactions
// also land in m's flight recorder. Every WAL instrumented on one
// registry feeds the same series — wal_size_bytes is their sum — so an
// in-process shard pool reads as one log. Safe to call while appends
// are in flight: it takes the compaction barrier for the hand-over.
func (w *WAL) Instrument(m *obs.Metrics) {
	if w == nil || m == nil {
		return
	}
	w.appendMu.Lock()
	defer w.appendMu.Unlock()
	if prev := w.met.Load(); prev != nil {
		prev.size.Add(-w.size.Load())
	}
	wm := &walMetrics{
		appendLatency:  m.Timing("wal_append_seconds", "WAL frame append latency, including the fsync under the batch policy"),
		fsyncLatency:   m.Timing("wal_fsync_seconds", "WAL fsync syscall latency"),
		groupCommit:    m.Sizes("wal_group_commit_frames", "frames newly covered per completed fsync (one leader commits its followers' frames)"),
		compactions:    m.Counter("wal_compactions_total", "compactions completed: snapshots landed"),
		compactErrors:  m.Counter("wal_compact_errors_total", "compactions that failed before the snapshot landed (every log file is kept)"),
		appendErrors:   m.Counter("wal_append_errors_total", "appends refused: a failed write or fsync stopped the log before they were durable"),
		compactLatency: m.Timing("wal_compact_seconds", "duration of a whole compaction: cut, snapshot write, reclaim"),
		compactStall:   m.Timing("wal_compact_stall_seconds", "the part of a compaction that excludes appenders: the in-memory cut and the log seal"),
		tornRepairs:    m.Counter("wal_torn_tail_repairs_total", "torn or truncated final frames discarded during replay"),
		size:           m.Gauge("wal_size_bytes", "frame bytes appended since the last compaction cut, summed over this registry's logs"),
		rec:            m.Recorder(),
	}
	wm.size.Add(w.size.Load())
	w.met.Store(wm)
}

// FsyncPolicy selects how eagerly WAL appends reach stable storage.
type FsyncPolicy int

const (
	// FsyncBatch syncs after every appended frame: a committed batch
	// survives power loss. The strongest and slowest policy.
	FsyncBatch FsyncPolicy = iota
	// FsyncInterval syncs on a background ticker (default 100 ms): at
	// most one interval of committed-and-acknowledged records can be
	// lost to a power or kernel crash. Process kills lose nothing.
	FsyncInterval
	// FsyncOff never syncs explicitly. Appends still reach the kernel
	// page cache on every frame, so state survives kill -9 of the
	// process; only a power or kernel crash can lose or tear the tail.
	FsyncOff
)

// ParseFsyncPolicy maps the -fsync flag values onto the policy.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "batch":
		return FsyncBatch, nil
	case "interval":
		return FsyncInterval, nil
	case "off":
		return FsyncOff, nil
	}
	return 0, fmt.Errorf("store: unknown fsync policy %q (want batch, interval or off)", s)
}

// String implements fmt.Stringer.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncBatch:
		return "batch"
	case FsyncInterval:
		return "interval"
	case FsyncOff:
		return "off"
	default:
		return fmt.Sprintf("fsyncPolicy(%d)", int(p))
	}
}

// logName is the one log file of a data directory.
const logName = "wal.log"

// WAL is a write-ahead log in a data directory. Safe for concurrent
// use.
type WAL struct {
	dir    string
	policy FsyncPolicy
	// stripes is the index range the frozen Append checks, as the frozen
	// OpenWAL recorded it (frozen.go); OpenLog leaves it 0.
	stripes int

	// compactMu serialises compactions (and ReplayLive) among themselves, so
	// a snapshot being written never meets a second cut. Taken before
	// appendMu, never while holding it.
	compactMu sync.Mutex
	closed    bool // guarded by compactMu: a closed log takes no compaction

	// appendMu is the compaction barrier. Owners hold it shared (Hold)
	// across one WHOLE log-then-apply operation — append plus the
	// in-memory mutation — so a compaction's cut (exclusive) only ever
	// observes quiesced owner state that includes every appended record.
	// A record appended under generation g whose apply raced past the
	// g+1 cut would otherwise be skipped at replay and lost.
	appendMu sync.RWMutex

	// mu guards the frames appended and not yet written (pending, in
	// writeSeq order), the count of frames appended (writeSeq) and the
	// failure that stopped the log (err). An appender holds it for a
	// copy.
	mu       sync.Mutex
	pending  []byte
	writeSeq uint64
	err      error

	// wmu orders writes to the log file: its holder swaps pending for
	// spare and writes the group in one Write (writePending). written is
	// the highest writeSeq a completed Write covered.
	wmu     sync.Mutex
	spare   []byte
	written atomic.Uint64

	// f is wal.log; a cut replaces it under appendMu, syncMu, wmu and mu,
	// so a user holds any one of them.
	f    logFile
	path string

	// Group commit: synced holds the highest writeSeq a completed fsync
	// covered. Appenders whose frame an earlier leader's fsync covered
	// skip their own — one write and one fsync commit every frame
	// appended before the leader took the group.
	syncMu sync.Mutex
	synced atomic.Uint64

	// gen is the current compaction generation, stamped into every
	// frame; guarded by appendMu (written only under the exclusive
	// hold).
	gen uint64

	// size is the total frame bytes appended since the last cut — the
	// owner's compaction trigger.
	size atomic.Int64

	// last describes the newest snapshot: its size (from Stat at open),
	// and for one this process landed, what the compaction cost.
	last atomic.Pointer[Compaction]

	// met holds the telemetry handles once Instrument ran; a nil load
	// keeps the append path at one branch.
	met atomic.Pointer[walMetrics]

	// interval-policy syncer.
	stop chan struct{}
	done chan struct{}

	closeOnce sync.Once
}

// syncUpTo blocks until a completed fsync covers frame seq. The caller
// either finds it already covered, or becomes the next leader: it writes
// every pending frame in one Write, fsyncs, and publishes the frontier
// so the followers queued on syncMu return without syncing. mu is not
// held across either syscall, so appenders keep appending behind it.
func (w *WAL) syncUpTo(seq uint64) error {
	if w.synced.Load() >= seq {
		return nil
	}
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	prev := w.synced.Load()
	if prev >= seq {
		return nil
	}
	w.wmu.Lock()
	covered, err := w.writePending()
	w.wmu.Unlock()
	if err != nil {
		return err
	}
	wm := w.met.Load()
	var start time.Time
	if wm != nil {
		start = time.Now()
	}
	if err := w.f.Sync(); err != nil {
		return w.fail("sync", err)
	}
	if wm != nil {
		wm.fsyncLatency.Since(start)
		wm.groupCommit.Observe(int64(covered - prev))
	}
	w.synced.Store(covered)
	return nil
}

// writeUpTo blocks until a completed Write covers frame seq: a writer
// before it took the frame, or it writes every pending frame itself.
func (w *WAL) writeUpTo(seq uint64) error {
	if w.written.Load() >= seq {
		return nil
	}
	w.wmu.Lock()
	defer w.wmu.Unlock()
	if w.written.Load() >= seq {
		return nil
	}
	_, err := w.writePending()
	return err
}

// maxKeptGroup bounds the group buffer kept between writes: one that an
// outsized record (a model snapshot) grew goes with that write.
const maxKeptGroup = 1 << 20

// writePending writes every frame appended so far in one Write and
// returns the frontier it covers. The caller holds wmu. pending and
// spare trade places, so appenders fill one buffer while the other is
// written, and a warm log allocates neither.
func (w *WAL) writePending() (covered uint64, err error) {
	w.mu.Lock()
	group, covered, err := w.pending, w.writeSeq, w.err
	if err == nil {
		w.pending = w.spare[:0]
	}
	w.mu.Unlock()
	if err != nil {
		return 0, err
	}
	if len(group) > 0 {
		if _, err := w.f.Write(group); err != nil {
			return 0, w.fail("write", err)
		}
		w.written.Store(covered)
	}
	if cap(group) > maxKeptGroup {
		group = nil
	}
	w.spare = group[:0]
	return covered, nil
}

// fail stops the log at its first failed write or sync and returns the
// error every frame not yet durable, and every later append, fails with.
func (w *WAL) fail(op string, err error) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err == nil {
		w.err = fmt.Errorf("the log stopped at a failed %s (reopen it to recover): %w", op, err)
	}
	return w.err
}

// logFile is the file half of the log's file-system seam: what the WAL
// does to wal.log once it is open. osLogFile is the one implementation
// outside tests, whose faulty files wrap it.
type logFile interface {
	Write(p []byte) (int, error)
	// Sync makes every completed Write durable.
	Sync() error
	Truncate(size int64) error
	Close() error
}

// osLogFile is a log file on the operating system's file system.
type osLogFile struct{ *os.File }

// Sync is syncFile: fdatasync where the platform has it.
func (f osLogFile) Sync() error { return syncFile(f.File) }

// DefaultFsyncInterval spaces background syncs under FsyncInterval.
const DefaultFsyncInterval = 100 * time.Millisecond

// OpenLog opens (creating if needed) the log in dir. interval configures
// the FsyncInterval ticker (0 takes DefaultFsyncInterval). The returned
// WAL has NOT been replayed: the owner restores the newest snapshot
// (Snapshot), replays the tail (ReplayLive), and only then starts
// appending.
func OpenLog(dir string, policy FsyncPolicy, interval time.Duration) (*WAL, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: wal dir: %w", err)
	}
	if err := clearStripedLayout(dir); err != nil {
		return nil, err
	}
	w := &WAL{
		dir:    dir,
		policy: policy,
		path:   filepath.Join(dir, logName),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	// A process killed while it wrote a snapshot left the temp file; no
	// other writer can exist, so nothing still wants it.
	tmps, err := filepath.Glob(filepath.Join(dir, "snapshot-*.tmp-*"))
	if err != nil {
		return nil, fmt.Errorf("store: wal: %w", err)
	}
	for _, tmp := range tmps {
		if err := os.Remove(tmp); err != nil {
			return nil, fmt.Errorf("store: wal: %w", err)
		}
	}
	gen, snapPath, err := w.newestSnapshot()
	if err != nil {
		return nil, err
	}
	sealed, err := w.sealedLogs()
	if err != nil {
		return nil, err
	}
	// The cut that sealed a file under generation g moved the log on to
	// g+1, whether or not its snapshot landed. Sealing under that name
	// again would overwrite the file.
	if n := len(sealed); n > 0 && sealed[n-1] >= gen {
		gen = sealed[n-1] + 1
	}
	w.gen = gen
	last := &Compaction{}
	if snapPath != "" {
		fi, err := os.Stat(snapPath)
		if err != nil {
			return nil, fmt.Errorf("store: wal: %w", err)
		}
		last.SnapshotBytes = fi.Size()
	}
	w.last.Store(last)
	if w.f, err = openLogFile(w.path); err != nil {
		return nil, err
	}
	if policy == FsyncInterval {
		if interval <= 0 {
			interval = DefaultFsyncInterval
		}
		go w.syncLoop(interval)
	} else {
		close(w.done)
	}
	return w, nil
}

// clearStripedLayout deals with what a build from before the one-file
// log left in dir: stripe-NN.wal files and meta.wal. A graceful stop
// compacted them to empty, and empty leftovers are removed. A non-empty
// one holds committed records this build has no reader for, so opening
// refuses — before touching anything — rather than silently drop them.
func clearStripedLayout(dir string) error {
	old, err := filepath.Glob(filepath.Join(dir, "stripe-[0-9][0-9].wal"))
	if err != nil {
		return fmt.Errorf("store: wal: %w", err)
	}
	old = append(old, filepath.Join(dir, "meta.wal"))
	for _, path := range old {
		fi, err := os.Stat(path)
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return fmt.Errorf("store: wal: %w", err)
		}
		if fi.Size() > 0 {
			return fmt.Errorf("store: wal: %s holds %d bytes of records in the striped layout this build does not read: stop the shard gracefully with the build that wrote it (the drain compacts the logs into the snapshot), then start this one", path, fi.Size())
		}
	}
	for _, path := range old {
		if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("store: wal: %w", err)
		}
	}
	return nil
}

// Dir returns the WAL's data directory.
func (w *WAL) Dir() string { return w.dir }

// snapshotName formats the generation-stamped snapshot filename.
func snapshotName(gen uint64) string { return fmt.Sprintf("snapshot-%016d.snap", gen) }

// openLogFile opens (creating if needed) a log file for appending. It
// is the open half of the file-system seam, a variable so that tests
// can wrap the files it opens.
var openLogFile = func(path string) (logFile, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: wal: %w", err)
	}
	return osLogFile{f}, nil
}

// sealedName formats the name wal.log takes when a cut seals it under
// generation gen: every frame in it is stamped gen or lower.
func sealedName(gen uint64) string { return fmt.Sprintf("wal-%016d.sealed", gen) }

// sealedLogs lists the generations of the directory's sealed log files,
// ascending.
func (w *WAL) sealedLogs() ([]uint64, error) {
	names, err := filepath.Glob(filepath.Join(w.dir, "wal-*.sealed"))
	if err != nil {
		return nil, fmt.Errorf("store: wal: %w", err)
	}
	gens := make([]uint64, 0, len(names))
	for _, name := range names {
		var gen uint64
		if _, err := fmt.Sscanf(filepath.Base(name), "wal-%d.sealed", &gen); err != nil || filepath.Base(name) != sealedName(gen) {
			return nil, fmt.Errorf("store: wal: malformed sealed log name %q", name)
		}
		gens = append(gens, gen)
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	return gens, nil
}

// newestSnapshot locates the highest-generation snapshot file in the
// directory (gen 0 and an empty path when none exists).
// Lower-generation leftovers — a crash between rename and reclaim — are
// ignored here and removed by the next compaction.
func (w *WAL) newestSnapshot() (gen uint64, path string, err error) {
	entries, err := os.ReadDir(w.dir)
	if err != nil {
		return 0, "", fmt.Errorf("store: wal: %w", err)
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if len(name) == len(snapshotName(0)) &&
			filepath.Ext(name) == ".snap" && name[:9] == "snapshot-" {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return 0, "", nil
	}
	sort.Strings(names) // zero-padded, so lexicographic == numeric
	newest := names[len(names)-1]
	if _, err := fmt.Sscanf(newest, "snapshot-%d.snap", &gen); err != nil {
		return 0, "", fmt.Errorf("store: wal: malformed snapshot name %q", newest)
	}
	return gen, filepath.Join(w.dir, newest), nil
}

// Snapshot opens the newest snapshot for reading (ok=false when the
// log has never been compacted).
func (w *WAL) Snapshot() (r *os.File, ok bool, err error) {
	_, path, err := w.newestSnapshot()
	if err != nil || path == "" {
		return nil, false, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, false, fmt.Errorf("store: wal: %w", err)
	}
	return f, true, nil
}

// Hold opens one log-then-apply operation and Release(exclusive) ends
// it. The guard blocks compaction for the operation's duration; every
// AppendMeta call AND the in-memory apply of what it logged must happen
// between the two. Operations run concurrently with each other (the
// guard is shared); only Compact and ReplayLive exclude them. An
// exclusive hold is for an operation that must not interleave with any
// other: it waits out every open guard and holds new ones off until its
// Release — the barrier a compaction's cut takes. It is for a record
// decided from the state it sees, which an operation in flight between
// its append and its apply would change under it. Neither call
// allocates.
func (w *WAL) Hold(exclusive bool) {
	if exclusive {
		w.appendMu.Lock()
	} else {
		w.appendMu.RLock()
	}
}

// Release ends the operation Hold(exclusive) opened.
func (w *WAL) Release(exclusive bool) {
	if exclusive {
		w.appendMu.Unlock()
	} else {
		w.appendMu.RUnlock()
	}
}

// Err returns the failure that stopped the log — its first failed write
// or sync — or nil while it takes appends.
func (w *WAL) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// AppendMeta frames payload and appends it to the log — any record,
// whatever its kind — syncing per policy. It returns once the frame is
// written to the kernel (and, under FsyncBatch, to stable storage): the
// caller may then apply the mutation to in-memory state. An error means
// the frame is not acknowledged and the log has stopped. The caller
// must hold the guard (Hold).
func (w *WAL) AppendMeta(payload []byte) error {
	wm := w.met.Load()
	var start time.Time
	if wm != nil {
		start = time.Now()
	}
	w.mu.Lock()
	err := w.err
	var seq uint64
	if err == nil {
		w.pending = wire.AppendLogFrame(w.pending, w.gen, payload)
		w.writeSeq++
		seq = w.writeSeq
	}
	w.mu.Unlock()
	if err == nil {
		if w.policy == FsyncBatch {
			err = w.syncUpTo(seq)
		} else {
			err = w.writeUpTo(seq)
		}
	}
	if err != nil {
		if wm != nil {
			wm.appendErrors.Inc()
		}
		return fmt.Errorf("store: wal append: %w", err)
	}
	n := int64(wire.LogFrameHeaderLen + len(payload))
	w.size.Add(n)
	if wm != nil {
		wm.size.Add(n)
		wm.appendLatency.Since(start)
	}
	return nil
}

// Size returns the frame bytes appended since the last cut — the
// owner's compaction trigger.
func (w *WAL) Size() int64 { return w.size.Load() }

// ReplayLive hands every live frame's payload to apply, in the order the
// records were appended: the sealed files a compaction has not
// reclaimed yet, in generation order, then wal.log. Frames stamped below
// the newest snapshot's generation are skipped: the snapshot already
// contains them. A torn or truncated final frame of wal.log is
// discarded and the file truncated to its valid prefix; any other
// damage — corruption before valid data, or a sealed file that does not
// end on a frame boundary (it was synced whole before it was sealed) —
// sits inside committed history and fails loudly. ReplayLive leaves the
// generation at the highest stamp it met, so new frames are never
// stamped below frames already in the log.
func (w *WAL) ReplayLive(apply func(payload []byte) error) error {
	w.compactMu.Lock()
	defer w.compactMu.Unlock()
	w.appendMu.Lock()
	defer w.appendMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	barrier, _, err := w.newestSnapshot()
	if err != nil {
		return err
	}
	sealed, err := w.sealedLogs()
	if err != nil {
		return err
	}
	scan := func(path string) (data []byte, valid int, err error) {
		if data, err = os.ReadFile(path); err != nil {
			return nil, 0, fmt.Errorf("store: wal replay %s: %w", path, err)
		}
		valid, top, err := scanLive(data, barrier, apply)
		if err != nil {
			return nil, 0, fmt.Errorf("store: wal %s: %w", path, err)
		}
		w.gen = max(w.gen, top)
		return data, valid, nil
	}
	for _, gen := range sealed {
		if gen < barrier {
			continue // wholly covered; the next compaction reclaims it
		}
		path := filepath.Join(w.dir, sealedName(gen))
		data, valid, err := scan(path)
		if err != nil {
			return err
		}
		if valid < len(data) {
			return fmt.Errorf("store: wal %s: %d bytes after the last whole frame of a sealed log", path, len(data)-valid)
		}
	}
	data, off, err := scan(w.path)
	if err != nil {
		return err
	}
	if off < len(data) {
		// Discard the torn tail so future appends continue from a clean
		// frame boundary.
		// wal.log is opened O_APPEND: the next write lands at the new end.
		if err := w.f.Truncate(int64(off)); err != nil {
			return fmt.Errorf("store: wal %s: truncate torn tail: %w", w.path, err)
		}
		if wm := w.met.Load(); wm != nil {
			wm.tornRepairs.Inc()
			wm.rec.Record(obs.EventWALRepair, map[string]any{
				"file":          logName,
				"dropped_bytes": len(data) - off,
			})
		}
	}
	return nil
}

// scanLive is wire.Scan behind the compaction barrier: apply sees the
// payload of every frame logged at or above the barrier generation (the
// newest snapshot already contains the rest). It returns the byte
// length of the valid prefix and the highest generation stamped on a
// frame in it; an error means damage inside committed history, or
// apply's own.
func scanLive(data []byte, barrier uint64, apply func([]byte) error) (valid int, top uint64, err error) {
	valid, err = wire.Scan(data, func(gen uint64, payload []byte) error {
		top = max(top, gen)
		if gen < barrier {
			return nil
		}
		return apply(payload)
	})
	return valid, top, err
}

// Compaction describes the newest snapshot and what landing it cost.
type Compaction struct {
	// Stall is how long the cut excluded appenders: from asking for the
	// exclusive hold to releasing it.
	Stall time.Duration
	// SnapshotBytes is the size of the snapshot file.
	SnapshotBytes int64
	// LogBytesSealed is the frame bytes the cut sealed behind it.
	LogBytesSealed int64
}

// LastCompaction describes the newest snapshot. For one found at open
// only its size is known.
func (w *WAL) LastCompaction() Compaction { return *w.last.Load() }

// Compact moves the owner's state into a new snapshot and reclaims the
// log behind it, in three steps of which only the first excludes
// appenders.
//
// Cut: with the log synced, under the exclusive hold, cut captures the
// owner's full durable state in memory — it must do no I/O and nothing
// proportional to the history — and returns the function that will
// serialise what it captured. Every log-then-apply operation is
// quiesced, so the capture includes every record the log holds and
// nothing unlogged. Under the same hold wal.log is sealed: renamed to
// its generation's sealed name, a fresh wal.log opened, the generation
// bumped. Appends continue under the new generation.
//
// Land: the snapshot is written to snapshot-<new generation> atomically
// (temp file, fsync, rename) while appends run.
//
// Reclaim: the sealed files and snapshots the new one covers are
// deleted (best effort: leftovers are skipped by ReplayLive and go with the
// next compaction).
//
// A crash anywhere recovers exactly (see the package comment). A failed
// landing keeps the old snapshot, the sealed file and the live log,
// which replay in append order; the next compaction seals again and its
// snapshot covers both.
func (w *WAL) Compact(cut func() (write func(io.Writer) error)) error {
	w.compactMu.Lock()
	defer w.compactMu.Unlock()
	start := time.Now()
	done, err := w.compact(cut)
	wm := w.met.Load()
	if err != nil {
		if wm != nil {
			wm.compactErrors.Inc()
			wm.rec.Record(obs.EventCompactError, map[string]any{"error": err.Error()})
		}
		return fmt.Errorf("store: wal compact: %w", err)
	}
	w.last.Store(&done)
	if wm != nil {
		wm.compactions.Inc()
		wm.compactLatency.Since(start)
		wm.compactStall.ObserveDuration(done.Stall)
		wm.rec.Record(obs.EventCompact, map[string]any{
			"stall_ms":         float64(done.Stall) / float64(time.Millisecond),
			"snapshot_bytes":   done.SnapshotBytes,
			"log_bytes_sealed": done.LogBytesSealed,
		})
	}
	return nil
}

// compact is Compact's three steps; the caller holds compactMu.
func (w *WAL) compact(cut func() func(io.Writer) error) (done Compaction, err error) {
	if w.closed {
		return done, errors.New("the log is closed")
	}
	// Sync before the hold, so the sync under it covers only the frames
	// that arrived in between (under FsyncBatch, none). Every policy
	// syncs here: a sealed file must never be torn.
	if err := w.Sync(); err != nil {
		return done, err
	}
	// New appenders wait from the moment the exclusive lock is asked
	// for, so that is where their stall starts.
	asked := time.Now()
	w.appendMu.Lock()
	write, next, err := w.cutAndSeal(cut)
	if err == nil {
		done.LogBytesSealed = w.size.Swap(0)
	}
	w.appendMu.Unlock()
	done.Stall = time.Since(asked)
	if err != nil {
		return done, err
	}
	if wm := w.met.Load(); wm != nil {
		wm.size.Add(-done.LogBytesSealed)
	}

	counted := func(out io.Writer) error {
		cw := countingWriter{w: out}
		err := write(&cw)
		done.SnapshotBytes = cw.n
		return err
	}
	if err := WriteFileAtomic(filepath.Join(w.dir, snapshotName(next)), counted); err != nil {
		return done, err
	}

	// The snapshot is durable and the barrier moved: everything below is
	// space reclaim, not correctness.
	if entries, err := os.ReadDir(w.dir); err == nil {
		for _, e := range entries {
			name := e.Name()
			switch filepath.Ext(name) {
			case ".snap":
				if name < snapshotName(next) {
					_ = os.Remove(filepath.Join(w.dir, name))
				}
			case ".sealed":
				if name < sealedName(next) {
					_ = os.Remove(filepath.Join(w.dir, name))
				}
			}
		}
	}
	return done, nil
}

// cutAndSeal is the part of a compaction that runs under the exclusive
// hold (the caller's): the owner's cut, then the file switch. It returns
// the snapshot writer and the generation the snapshot lands under.
func (w *WAL) cutAndSeal(cut func() func(io.Writer) error) (write func(io.Writer) error, next uint64, err error) {
	write = cut()
	// The frames that arrived since Compact's first sync.
	if err := w.Sync(); err != nil {
		return nil, 0, err
	}
	fresh, err := w.seal()
	if err != nil {
		return nil, 0, err
	}
	// No appender is in flight and syncMu keeps the interval ticker's
	// fsync off the descriptor while it is swapped and closed. writeSeq
	// and synced carry over: they count frames, not bytes of one file.
	w.syncMu.Lock()
	w.wmu.Lock()
	w.mu.Lock()
	old := w.f
	w.f = fresh
	w.mu.Unlock()
	w.wmu.Unlock()
	w.syncMu.Unlock()
	_ = old.Close() // synced above; nothing is left to lose
	w.gen++
	return write, w.gen, nil
}

// seal renames the synced wal.log to its generation's sealed name and
// opens a fresh wal.log, making both directory changes durable when the
// policy promises durability: a frame acknowledged into the fresh file
// must not lose its directory entry to a power cut.
func (w *WAL) seal() (fresh logFile, err error) {
	sealed := filepath.Join(w.dir, sealedName(w.gen))
	if err := os.Rename(w.path, sealed); err != nil {
		return nil, err
	}
	if fresh, err = openLogFile(w.path); err != nil {
		// Appends go on into the descriptor still open: give the file its
		// name back, so the next attempt finds it.
		_ = os.Rename(sealed, w.path)
		return nil, err
	}
	if w.policy != FsyncOff {
		syncDir(w.dir)
	}
	return fresh, nil
}

// countingWriter counts the bytes written through it.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// Sync flushes every frame written so far to stable storage, down the
// same leader/follower path as a FsyncBatch append: a frontier some
// fsync already covered costs nothing.
func (w *WAL) Sync() error {
	w.mu.Lock()
	seq := w.writeSeq
	w.mu.Unlock()
	return w.syncUpTo(seq)
}

// syncLoop is the FsyncInterval background syncer.
func (w *WAL) syncLoop(interval time.Duration) {
	defer close(w.done)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			_ = w.Sync()
		case <-w.stop:
			return
		}
	}
}

// Close stops the background syncer, waits out a compaction in flight,
// syncs once more, and closes the log file. The owner compacts before
// Close on a graceful drain; Close alone is the crash-adjacent path.
func (w *WAL) Close() error {
	var err error
	w.closeOnce.Do(func() {
		close(w.stop)
		<-w.done
		w.compactMu.Lock()
		defer w.compactMu.Unlock()
		w.closed = true
		if w.policy != FsyncOff {
			err = w.Sync()
		}
		_ = w.f.Close()
	})
	return err
}

// WriteFileAtomic writes a file so that a crash at any point leaves
// either the old content or the new, never a torn mix: the content is
// written to a temp file in the same directory, fsynced, renamed over
// the target, and the directory entry fsynced. Shared by the WAL's
// snapshot writer and bmsd's training-state snapshot.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	defer func() {
		if tmpName != "" {
			_ = os.Remove(tmpName)
		}
	}()
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		return err
	}
	tmpName = ""
	syncDir(dir)
	return nil
}

// syncDir persists renames and creations in dir by fsyncing the
// directory itself (best effort on filesystems that do not support it).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}
